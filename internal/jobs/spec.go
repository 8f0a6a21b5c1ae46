// Package jobs is the crash-safe simulation service behind cmd/lbsimd:
// a job spec with a canonical content address, a FIFO queue with
// persisted states, a checkpointer that logs per-spec sweep outcomes
// append-only so a killed server resumes and produces byte-identical
// output, a content-addressed result cache, and an HTTP/JSON server.
//
// Everything leans on the simulator's determinism: a spec's result is a
// pure function of its result-affecting fields (experiment, scale,
// seed, policy, fault plan), identical at any sweep parallelism. That
// is what makes the content address
// sound — and what makes a resumed run provably byte-identical to an
// uninterrupted one.
package jobs

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"ompsscluster/internal/balance"
	"ompsscluster/internal/experiments"
	"ompsscluster/internal/faults"
	"ompsscluster/internal/simtime"
)

// Spec describes one simulation job. Exactly one of Experiment, Policy,
// or Faults-without-Experiment selects the run kind, mirroring the
// lbsim CLI: -exp, -policy (optionally with -faults), -faults alone.
//
// Parallel and TimeoutSec are execution hints: they change how fast the
// job runs, never what it computes (results are byte-identical at any
// sweep parallelism by the simulator's determinism contract), so they
// are excluded from the content address — a cached result serves
// resubmissions with any hints.
type Spec struct {
	// Experiment is a figure id from experiments.IDs() ("fig8", ...).
	Experiment string `json:"experiment,omitempty"`
	// Scale is "quick", "default", or "paper" ("" = default).
	Scale string `json:"scale,omitempty"`
	// Seed overrides the scale's seed (0 = the scale default).
	Seed int64 `json:"seed,omitempty"`
	// Policy selects a self-scheduling policy demo run.
	Policy string `json:"policy,omitempty"`
	// Faults is either a JSON string naming a preset plan or an inline
	// fault-plan object (the same wire format lbsim -faults accepts
	// from a file).
	Faults json.RawMessage `json:"faults,omitempty"`

	// Execution hints — never part of the content address.
	Parallel   int `json:"parallel,omitempty"`    // concurrent simulator runs per sweep
	TimeoutSec int `json:"timeout_sec,omitempty"` // per-job wall-clock budget (0 = server default)
}

// demoNodes/demoAppranks are the fault- and policy-demo machine size
// (4 nodes, one apprank per node — see experiments.resilienceNodes);
// inline fault plans are validated against it at submission time.
const (
	demoNodes    = 4
	demoAppranks = 4
)

// ParseSpec decodes a job submission strictly: unknown fields and type
// mismatches are reported with the offending field name so lbsimd can
// reject bad submissions with actionable 400s instead of bare JSON
// errors.
func ParseSpec(data []byte) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		var te *json.UnmarshalTypeError
		if errors.As(err, &te) {
			field := te.Field
			if field == "" {
				field = "(document)"
			}
			return Spec{}, fmt.Errorf("spec field %q: got JSON %s, want %s", field, te.Value, te.Type)
		}
		if msg := err.Error(); strings.HasPrefix(msg, "json: unknown field ") {
			return Spec{}, fmt.Errorf("spec: %s (valid fields: experiment, scale, seed, policy, faults, parallel, timeout_sec)",
				strings.TrimPrefix(msg, "json: "))
		}
		return Spec{}, fmt.Errorf("spec: %w", err)
	}
	if dec.More() {
		return Spec{}, fmt.Errorf("spec: trailing data after the JSON document")
	}
	return s, nil
}

// Normalize validates the spec and fills the defaulted result-affecting
// fields (scale name, effective seed), returning the normalized copy the
// queue stores and the hash covers. The fault plan is parsed (with
// indexed, field-named errors) and semantically validated against the
// demo machine here, so every queued job is known runnable.
func (s Spec) Normalize() (Spec, error) {
	if string(bytes.TrimSpace(s.Faults)) == "null" {
		s.Faults = nil // as Canonical writes a spec without a plan
	}
	if s.Scale == "" {
		s.Scale = "default"
	}
	sc, err := experiments.ScaleByName(s.Scale)
	if err != nil {
		return Spec{}, err
	}
	if s.Seed == 0 {
		s.Seed = sc.Seed
	}
	if s.Parallel < 0 {
		return Spec{}, fmt.Errorf("parallel must be >= 0, got %d", s.Parallel)
	}
	if s.TimeoutSec < 0 {
		return Spec{}, fmt.Errorf("timeout_sec must be >= 0, got %d", s.TimeoutSec)
	}

	// Run-kind selection, mirroring the CLI's hard errors: an
	// experiment run silently dropping a fault plan would run something
	// other than what was submitted.
	switch {
	case s.Experiment != "" && s.Policy != "":
		return Spec{}, fmt.Errorf("experiment and policy are mutually exclusive (the policy demo is its own run; use experiment \"policies\" for the full sweep)")
	case s.Experiment != "" && len(s.Faults) != 0:
		return Spec{}, fmt.Errorf("experiment and faults are mutually exclusive (the fault demo is its own run; use experiment \"resilience\" for the fault sweep)")
	case s.Experiment == "" && s.Policy == "" && len(s.Faults) == 0:
		return Spec{}, fmt.Errorf("spec selects no run: set experiment (one of %s), policy (one of %s), or faults",
			strings.Join(experiments.IDs(), ", "), strings.Join(balance.SelfSchedNames(), ", "))
	}
	if s.Experiment != "" && !validExperiment(s.Experiment) {
		return Spec{}, fmt.Errorf("unknown experiment %q (have %s)", s.Experiment, strings.Join(experiments.IDs(), ", "))
	}
	if s.Policy != "" && !validPolicy(s.Policy) {
		return Spec{}, fmt.Errorf("unknown policy %q (have %s)", s.Policy, strings.Join(balance.SelfSchedNames(), ", "))
	}
	if _, err := s.Plan(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

func validExperiment(id string) bool {
	for _, have := range experiments.IDs() {
		if have == id {
			return true
		}
	}
	return false
}

func validPolicy(name string) bool {
	for _, have := range balance.SelfSchedNames() {
		if have == name {
			return true
		}
	}
	return false
}

// Plan resolves the spec's fault plan: nil when unset, the named preset
// when Faults is a JSON string, the parsed and validated plan when it
// is an inline object. Parse errors carry the offending event index and
// field (see faults.Parse). An inline object in the canonical encoding
// (see Canonical) is accepted too, so a canonical document is itself a
// spec with the same address.
func (s Spec) Plan() (*faults.Plan, error) {
	if len(s.Faults) == 0 {
		return nil, nil
	}
	raw := bytes.TrimSpace(s.Faults)
	if len(raw) > 0 && raw[0] == '"' {
		var name string
		if err := json.Unmarshal(raw, &name); err != nil {
			return nil, fmt.Errorf("faults preset name: %w", err)
		}
		p, ok := faults.Preset(name)
		if !ok {
			return nil, fmt.Errorf("unknown faults preset %q (have %s)", name, strings.Join(faults.PresetNames(), ", "))
		}
		return p, nil
	}
	parse := faults.Parse
	if isCanonicalPlan(raw) {
		parse = parseCanonicalPlan
	}
	p, err := parse(raw)
	if err != nil {
		return nil, err
	}
	if err := p.Validate(demoNodes, demoAppranks); err != nil {
		return nil, fmt.Errorf("%w (the demo machine has %d nodes, %d appranks)", err, demoNodes, demoAppranks)
	}
	return p, nil
}

// canonicalSpec is the hashed document: only result-affecting fields,
// in a fixed struct order, with the fault plan re-encoded from its
// parsed form — so submissions that differ in JSON key order,
// whitespace, or execution hints produce the same address.
type canonicalSpec struct {
	Experiment string         `json:"experiment"`
	Scale      string         `json:"scale"`
	Seed       int64          `json:"seed"`
	Policy     string         `json:"policy"`
	Faults     *canonicalPlan `json:"faults"`
}

type canonicalPlan struct {
	Name        string           `json:"name"`
	Seed        uint64           `json:"seed"`
	PinSeed     bool             `json:"pin_seed"`
	MaxAttempts int              `json:"max_attempts"`
	Backoff     int64            `json:"backoff"`
	Events      []canonicalEvent `json:"events"`
}

type canonicalEvent struct {
	Kind    string  `json:"kind"`
	At      int64   `json:"at"`
	Until   int64   `json:"until"`
	Node    int     `json:"node"`
	NodeB   int     `json:"node_b"`
	Apprank int     `json:"apprank"`
	Speed   float64 `json:"speed"`
	Cores   int     `json:"cores"`
	Delay   int64   `json:"delay"`
	Jitter  int64   `json:"jitter"`
	Drop    float64 `json:"drop"`
}

// isCanonicalPlan reports whether a plan object is in the canonical
// encoding, which always carries "pin_seed" — a field faults.Parse
// rejects, so the two encodings cannot be confused.
func isCanonicalPlan(raw []byte) bool {
	var probe struct {
		PinSeed *bool `json:"pin_seed"`
	}
	return json.Unmarshal(raw, &probe) == nil && probe.PinSeed != nil
}

// parseCanonicalPlan decodes a plan in the canonical encoding, the
// inverse of the plan half of Canonical.
func parseCanonicalPlan(raw []byte) (*faults.Plan, error) {
	var cp canonicalPlan
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cp); err != nil {
		return nil, fmt.Errorf("faults: parse canonical plan: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("faults: parse canonical plan: trailing data after the JSON document")
	}
	p := &faults.Plan{
		Name:        cp.Name,
		Seed:        cp.Seed,
		PinSeed:     cp.PinSeed,
		MaxAttempts: cp.MaxAttempts,
		Backoff:     simtime.Duration(cp.Backoff),
		Events:      make([]faults.Event, len(cp.Events)),
	}
	for i, ev := range cp.Events {
		p.Events[i] = faults.Event{
			Kind:    faults.Kind(ev.Kind),
			At:      simtime.Duration(ev.At),
			Until:   simtime.Duration(ev.Until),
			Node:    ev.Node,
			NodeB:   ev.NodeB,
			Apprank: ev.Apprank,
			Speed:   ev.Speed,
			Cores:   ev.Cores,
			Delay:   simtime.Duration(ev.Delay),
			Jitter:  simtime.Duration(ev.Jitter),
			Drop:    ev.Drop,
		}
	}
	return p, nil
}

// Canonical returns the canonical serialization of a normalized spec —
// the document whose sha256 is the spec's content address.
func (s Spec) Canonical() ([]byte, error) {
	plan, err := s.Plan()
	if err != nil {
		return nil, err
	}
	c := canonicalSpec{
		Experiment: s.Experiment,
		Scale:      s.Scale,
		Seed:       s.Seed,
		Policy:     s.Policy,
	}
	if plan != nil {
		cp := &canonicalPlan{
			Name:        plan.Name,
			Seed:        plan.Seed,
			PinSeed:     plan.PinSeed,
			MaxAttempts: plan.MaxAttempts,
			Backoff:     int64(plan.Backoff),
			Events:      make([]canonicalEvent, len(plan.Events)),
		}
		for i, ev := range plan.Events {
			cp.Events[i] = canonicalEvent{
				Kind:    string(ev.Kind),
				At:      int64(ev.At),
				Until:   int64(ev.Until),
				Node:    ev.Node,
				NodeB:   ev.NodeB,
				Apprank: ev.Apprank,
				Speed:   ev.Speed,
				Cores:   ev.Cores,
				Delay:   int64(ev.Delay),
				Jitter:  int64(ev.Jitter),
				Drop:    ev.Drop,
			}
		}
		c.Faults = cp
	}
	return json.Marshal(c)
}

// Hash returns the spec's content address: the hex sha256 of its
// canonical serialization.
func (s Spec) Hash() (string, error) {
	doc, err := s.Canonical()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(doc)
	return hex.EncodeToString(sum[:]), nil
}
