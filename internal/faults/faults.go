// Package faults provides a deterministic, seed-driven fault-plan
// subsystem for the simulator: a Plan is a list of virtual-time events
// (node slowdowns, permanent core loss, flaky-link episodes, apprank
// stalls, node crashes and helper drains) parsed from JSON or chosen
// from a named preset, then armed on a simtime.Env by the runtime.
//
// Determinism is by construction: every event fires at a fixed virtual
// time, and every probabilistic decision (message drop, link jitter) is
// a pure function of (plan seed, link sequence number, attempt) via a
// splitmix64-style hash — there is no shared RNG state, so outcomes are
// identical regardless of host, wall-clock, or sweep parallelism.
package faults

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"ompsscluster/internal/simtime"
)

// Kind names one fault event type.
type Kind string

const (
	// Slow multiplies a node's speed by Speed over [At, Until).
	Slow Kind = "slow"
	// CoreLoss permanently removes Cores cores from a node at At.
	CoreLoss Kind = "coreloss"
	// Link conditions messages between Node and NodeB over [At, Until):
	// fixed Delay, hashed Jitter, and probabilistic Drop per delivery.
	Link Kind = "link"
	// Stall freezes task dispatch for one apprank over [At, Until).
	Stall Kind = "stall"
	// Crash kills a node at At: every apprank homed there aborts (its
	// whole application is torn down, MPI job-abort style) and work
	// offloaded to the node by surviving appranks is recovered.
	Crash Kind = "crash"
	// Drain kills only the helper workers on a node at At: appranks
	// homed elsewhere lose their worker there and re-offload its work;
	// appranks homed on the node keep running.
	Drain Kind = "drain"
)

// Episodic reports whether the kind has a recovery edge (Until).
func (k Kind) Episodic() bool {
	return k == Slow || k == Link || k == Stall
}

func (k Kind) valid() bool {
	switch k {
	case Slow, CoreLoss, Link, Stall, Crash, Drain:
		return true
	}
	return false
}

// Event is one scheduled fault. Which fields are meaningful depends on
// Kind; Validate enforces the per-kind contract.
type Event struct {
	Kind    Kind
	At      simtime.Duration // virtual time of injection
	Until   simtime.Duration // recovery time (episodic kinds only)
	Node    int              // target node (slow/coreloss/link/crash/drain)
	NodeB   int              // link peer (link only)
	Apprank int              // target apprank (stall only)
	Speed   float64          // speed multiplier in (0,1] (slow only)
	Cores   int              // cores removed (coreloss only)
	Delay   simtime.Duration // fixed extra latency (link only)
	Jitter  simtime.Duration // max hashed extra latency (link only)
	Drop    float64          // per-delivery drop probability in [0,1) (link only)
}

// Phase distinguishes the two edges of an episodic event.
type Phase int

const (
	Inject Phase = iota
	Recover
)

func (p Phase) String() string {
	if p == Recover {
		return "recover"
	}
	return "inject"
}

// Plan is an ordered set of fault events plus the retry policy for
// dropped messages. Seed is mixed into every hashed decision; the
// runtime overwrites it with the run seed via Bind unless the plan
// pins PinSeed.
type Plan struct {
	Name        string
	Seed        uint64
	PinSeed     bool             // keep Plan.Seed instead of the run seed
	MaxAttempts int              // send attempts before abandoning (default 16)
	Backoff     simtime.Duration // base resend backoff (default 1ms)
	Events      []Event
}

// Bind returns a copy of the plan expanded with the run seed: defaults
// filled, events sorted by (At, original index), and Seed set to the
// run seed unless pinned. The receiver is not modified, so one parsed
// plan may be bound by many concurrent sweep runs.
func (p *Plan) Bind(runSeed int64) *Plan {
	b := *p
	if !b.PinSeed {
		b.Seed = uint64(runSeed)
	}
	if b.MaxAttempts <= 0 {
		b.MaxAttempts = 16
	}
	if b.Backoff <= 0 {
		b.Backoff = simtime.Duration(time.Millisecond)
	}
	b.Events = make([]Event, len(p.Events))
	copy(b.Events, p.Events)
	sort.SliceStable(b.Events, func(i, j int) bool { return b.Events[i].At < b.Events[j].At })
	return &b
}

// anySize stands for a machine of unknown size: Parse validates against
// it, so only the machine-independent parts of the contract (and
// negative node or apprank ids) can fail there.
const anySize = int(^uint(0) >> 1)

// rangeError reports id outside [0,n) for the given field.
func rangeError(kind Kind, field string, id, n int) error {
	if n == anySize {
		return fmt.Errorf("%s: %s %d is negative", kind, field, id)
	}
	return fmt.Errorf("%s: %s %d out of range [0,%d)", kind, field, id, n)
}

// Validate checks the per-kind field contract against a machine of
// numNodes nodes and numAppranks appranks.
func (p *Plan) Validate(numNodes, numAppranks int) error {
	for i, ev := range p.Events {
		if err := ev.validate(numNodes, numAppranks); err != nil {
			return fmt.Errorf("faults: event %d: %w", i, err)
		}
	}
	if p.MaxAttempts < 0 {
		return fmt.Errorf("faults: negative MaxAttempts %d", p.MaxAttempts)
	}
	if p.Backoff < 0 {
		return fmt.Errorf("faults: negative Backoff %d", p.Backoff)
	}
	return nil
}

func (ev Event) validate(numNodes, numAppranks int) error {
	if !ev.Kind.valid() {
		return fmt.Errorf("unknown kind %q", ev.Kind)
	}
	if ev.At < 0 {
		return fmt.Errorf("%s: negative At", ev.Kind)
	}
	if ev.Kind.Episodic() {
		if ev.Until <= ev.At {
			return fmt.Errorf("%s: Until (%d) must be after At (%d)", ev.Kind, ev.Until, ev.At)
		}
	} else if ev.Until != 0 {
		return fmt.Errorf("%s: Until is only valid for episodic kinds", ev.Kind)
	}
	needNode := ev.Kind != Stall
	if needNode && (ev.Node < 0 || ev.Node >= numNodes) {
		return rangeError(ev.Kind, "node", ev.Node, numNodes)
	}
	switch ev.Kind {
	case Slow:
		if !(ev.Speed > 0 && ev.Speed <= 1) {
			return fmt.Errorf("slow: Speed %g not in (0,1]", ev.Speed)
		}
	case CoreLoss:
		if ev.Cores <= 0 {
			return fmt.Errorf("coreloss: Cores %d must be positive", ev.Cores)
		}
	case Link:
		if ev.NodeB < 0 || ev.NodeB >= numNodes || ev.NodeB == ev.Node {
			return fmt.Errorf("link: peer %d invalid for node %d", ev.NodeB, ev.Node)
		}
		if ev.Delay < 0 || ev.Jitter < 0 {
			return fmt.Errorf("link: negative Delay/Jitter")
		}
		if ev.Drop < 0 || ev.Drop >= 1 {
			return fmt.Errorf("link: Drop %g not in [0,1)", ev.Drop)
		}
	case Stall:
		if ev.Apprank < 0 || ev.Apprank >= numAppranks {
			return rangeError(ev.Kind, "apprank", ev.Apprank, numAppranks)
		}
	}
	return nil
}

// Arm schedules apply(idx, ev, phase) for every event in the plan: the
// inject edge at ev.At and, for episodic kinds, the recovery edge at
// ev.Until. idx is the event's position in the plan (a stable identity
// that pairs the two edges in traces). Events are armed in plan order,
// so same-timestamp events fire in plan order (the engine is FIFO
// within a timestamp).
func Arm(env *simtime.Env, p *Plan, apply func(idx int, ev Event, phase Phase)) {
	for i, ev := range p.Events {
		i, ev := i, ev
		env.At(simtime.Time(ev.At), func() { apply(i, ev, Inject) })
		if ev.Kind.Episodic() {
			env.At(simtime.Time(ev.Until), func() { apply(i, ev, Recover) })
		}
	}
}

// jsonEvent is the wire format of one event: durations are Go
// duration strings ("250ms", "1.5s") so plans are human-writable.
type jsonEvent struct {
	Kind    string  `json:"kind"`
	At      string  `json:"at"`
	Until   string  `json:"until,omitempty"`
	Node    int     `json:"node,omitempty"`
	NodeB   int     `json:"node_b,omitempty"`
	Apprank int     `json:"apprank,omitempty"`
	Speed   float64 `json:"speed,omitempty"`
	Cores   int     `json:"cores,omitempty"`
	Delay   string  `json:"delay,omitempty"`
	Jitter  string  `json:"jitter,omitempty"`
	Drop    float64 `json:"drop,omitempty"`
}

func parseDur(field, s string) (simtime.Duration, error) {
	if s == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("faults: bad %s duration %q: %w", field, s, err)
	}
	return simtime.Duration(d), nil
}

// describeJSONError turns encoding/json's errors into something a plan
// author (or an HTTP 400 from the job server) can act on: type errors
// name the offending field and the value's actual JSON type, unknown
// fields come back with the valid field list.
func describeJSONError(err error, validFields string) error {
	var te *json.UnmarshalTypeError
	if errors.As(err, &te) {
		field := te.Field
		if field == "" {
			field = "(document)"
		}
		return fmt.Errorf("field %q: got JSON %s, want %s", field, te.Value, te.Type)
	}
	if msg := err.Error(); strings.HasPrefix(msg, "json: unknown field ") {
		return fmt.Errorf("%s (valid fields: %s)", strings.TrimPrefix(msg, "json: "), validFields)
	}
	return err
}

const (
	planFields  = `"name", "seed", "max_attempts", "backoff", "events"`
	eventFields = `"kind", "at", "until", "node", "node_b", "apprank", "speed", "cores", "delay", "jitter", "drop"`
)

// decodeStrict unmarshals data into v, rejecting unknown fields and
// trailing garbage.
func decodeStrict(data []byte, v any, validFields string) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return describeJSONError(err, validFields)
	}
	if dec.More() {
		return fmt.Errorf("trailing data after the JSON document")
	}
	return nil
}

// Parse decodes a JSON fault plan. Field syntax is checked here —
// errors name the offending event index and field, and unknown fields
// are rejected so a typo ("nodeb" for "node_b") cannot silently arm a
// different plan than the author wrote. Every plan Parse accepts also
// passes Validate on a machine large enough for its node and apprank
// ids; the range checks against a concrete machine happen there.
func Parse(data []byte) (*Plan, error) {
	// The envelope keeps events raw so each one can be decoded — and
	// blamed — individually by index.
	var envelope struct {
		Name        string            `json:"name"`
		Seed        *uint64           `json:"seed"`
		MaxAttempts int               `json:"max_attempts"`
		Backoff     string            `json:"backoff"`
		Events      []json.RawMessage `json:"events"`
	}
	if err := decodeStrict(data, &envelope, planFields); err != nil {
		return nil, fmt.Errorf("faults: parse plan: %w", err)
	}
	p := &Plan{Name: envelope.Name, MaxAttempts: envelope.MaxAttempts}
	if envelope.Seed != nil {
		p.Seed = *envelope.Seed
		p.PinSeed = true
	}
	var err error
	if p.Backoff, err = parseDur("backoff", envelope.Backoff); err != nil {
		return nil, err
	}
	for i, raw := range envelope.Events {
		var je jsonEvent
		if err := decodeStrict(raw, &je, eventFields); err != nil {
			return nil, fmt.Errorf("faults: event %d: %w", i, err)
		}
		ev := Event{
			Kind:    Kind(je.Kind),
			Node:    je.Node,
			NodeB:   je.NodeB,
			Apprank: je.Apprank,
			Speed:   je.Speed,
			Cores:   je.Cores,
			Drop:    je.Drop,
		}
		if ev.At, err = parseDur("at", je.At); err != nil {
			return nil, fmt.Errorf("faults: event %d: %w", i, err)
		}
		if ev.Until, err = parseDur("until", je.Until); err != nil {
			return nil, fmt.Errorf("faults: event %d: %w", i, err)
		}
		if ev.Delay, err = parseDur("delay", je.Delay); err != nil {
			return nil, fmt.Errorf("faults: event %d: %w", i, err)
		}
		if ev.Jitter, err = parseDur("jitter", je.Jitter); err != nil {
			return nil, fmt.Errorf("faults: event %d: %w", i, err)
		}
		p.Events = append(p.Events, ev)
	}
	if err := p.Validate(anySize, anySize); err != nil {
		return nil, err
	}
	return p, nil
}

// Load reads a plan from a JSON file or, failing a file of that name,
// from the preset table.
func Load(nameOrPath string) (*Plan, error) {
	if data, err := os.ReadFile(nameOrPath); err == nil {
		return Parse(data)
	} else if p, ok := Preset(nameOrPath); ok {
		return p, nil
	} else {
		return nil, fmt.Errorf("faults: %q is neither a readable plan file (%v) nor a preset (have: %v)", nameOrPath, err, PresetNames())
	}
}

const ms = simtime.Duration(time.Millisecond)

// presets are small plans sized for the quick experiment scale (runs of
// a few hundred virtual milliseconds on a 4-node machine).
var presets = map[string]*Plan{
	"slownode": {
		Name: "slownode",
		Events: []Event{
			{Kind: Slow, At: 20 * ms, Until: 120 * ms, Node: 1, Speed: 0.4},
		},
	},
	"flakylink": {
		Name: "flakylink",
		Events: []Event{
			{Kind: Link, At: 10 * ms, Until: 150 * ms, Node: 0, NodeB: 1,
				Delay: ms / 4, Jitter: ms / 2, Drop: 0.05},
		},
	},
	"coreloss": {
		Name: "coreloss",
		Events: []Event{
			{Kind: CoreLoss, At: 30 * ms, Node: 2, Cores: 2},
		},
	},
	"drainhelper": {
		Name: "drainhelper",
		Events: []Event{
			{Kind: Drain, At: 25 * ms, Node: 3},
		},
	},
	"crashnode": {
		Name: "crashnode",
		Events: []Event{
			{Kind: Crash, At: 25 * ms, Node: 3},
		},
	},
	"storm": {
		Name: "storm",
		Events: []Event{
			{Kind: Slow, At: 10 * ms, Until: 200 * ms, Node: 1, Speed: 0.5},
			{Kind: Link, At: 15 * ms, Until: 180 * ms, Node: 0, NodeB: 2,
				Delay: ms / 4, Jitter: ms, Drop: 0.08},
			{Kind: CoreLoss, At: 40 * ms, Node: 2, Cores: 1},
			{Kind: Drain, At: 60 * ms, Node: 3},
		},
	},
}

// Preset returns a copy of the named built-in plan.
func Preset(name string) (*Plan, bool) {
	p, ok := presets[name]
	if !ok {
		return nil, false
	}
	cp := *p
	cp.Events = append([]Event(nil), p.Events...)
	return &cp, true
}

// PresetNames lists the built-in plans, sorted.
func PresetNames() []string {
	names := make([]string, 0, len(presets))
	for n := range presets {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
