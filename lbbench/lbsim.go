package main

import (
	"bufio"
	"bytes"
	"embed"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// lbsimStep is one lbsim invocation of a workload rep. label keys its
// golden stdout hash.
type lbsimStep struct {
	label  string
	args   []string
	traced bool // stdout is a Chrome trace; a metrics registry is written too
}

// lbsimWorkload runs a fixed list of lbsim invocations per rep, one at
// a time, each with -parallel 1.
type lbsimWorkload struct {
	name   string
	steps  []lbsimStep
	golden map[string]string // label -> sha256 of stdout; nil skips the check
	// validated holds the stdout hashes that already passed
	// validateChrome: identical bytes need no second pass.
	validated map[string]bool
}

// tracedExperiments are the experiments with a traced variant.
var tracedExperiments = []string{"fig5", "fig8", "fig9", "policies", "efficiency"}

func lbsimWorkloads() []*lbsimWorkload {
	traced := &lbsimWorkload{name: "traced-default"}
	for _, id := range tracedExperiments {
		traced.steps = append(traced.steps, lbsimStep{label: id, traced: true,
			args: []string{"-exp", id, "-scale", "default", "-parallel", "1", "-trace", "/dev/stdout"}})
	}
	return []*lbsimWorkload{
		{name: "fig8-default", steps: []lbsimStep{{label: "fig8",
			args: []string{"-exp", "fig8", "-scale", "default", "-format", "csv", "-parallel", "1"}}}},
		{name: "quick-all", steps: []lbsimStep{{label: "all",
			args: []string{"-all", "-scale", "quick", "-format", "csv", "-parallel", "1"}}}},
		traced,
	}
}

func (w *lbsimWorkload) Name() string { return w.name }

//go:embed golden/*.sha256
var goldenFS embed.FS

// loadGolden reads golden/<name>.sha256: "<hex>  <label>" lines, the
// sha256 of each step's stdout at the commit that defined the
// benchmark.
func (w *lbsimWorkload) loadGolden() error {
	data, err := goldenFS.ReadFile("golden/" + w.name + ".sha256")
	if err != nil {
		return err
	}
	w.golden = map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 {
			return fmt.Errorf("golden/%s.sha256: malformed line %q", w.name, line)
		}
		w.golden[f[1]] = f[0]
	}
	return nil
}

// warm pages the binary in with a small untimed run.
func (w *lbsimWorkload) warm(h *harness) error {
	_, err := h.run(h.lbsim, []string{"-exp", "fig9", "-scale", "quick", "-parallel", "1"},
		nil, os.Stderr, childEnv())
	return err
}

// stepRun is one finished step with its outputs read back.
type stepRun struct {
	procStats
	stdoutBytes int64
	stderr      string
	engine      *engineTotals
	counters    map[string]float64
}

// engineTotals is the "total" section of lbsim -enginejson.
type engineTotals struct {
	Runs        float64 `json:"runs"`
	Events      float64 `json:"events"`
	FastPath    float64 `json:"fast_path_events"`
	HeapPushes  float64 `json:"heap_pushes"`
	Parks       float64 `json:"parks"`
	Wakes       float64 `json:"wakes"`
	PeakGoro    float64 `json:"peak_goroutines"`
	RegHiWater  float64 `json:"registry_hiwater"`
	HostSeconds float64 `json:"run_host_seconds"`
}

// runStep runs one step and checks its stdout against the golden hash
// (and, for traces, validateChrome). A failed check is returned as an
// error; the measurements are valid either way.
func (w *lbsimWorkload) runStep(h *harness, s lbsimStep, extraArgs, extraEnv []string) (stepRun, error) {
	out := filepath.Join(h.work, s.label+".out")
	side := filepath.Join(h.work, s.label+".json")
	defer os.Remove(out)
	defer os.Remove(side)
	args := append([]string(nil), s.args...)
	if s.traced {
		args = append(args, "-metricsjson", side)
	} else {
		args = append(args, "-enginejson", side)
	}
	args = append(args, extraArgs...)
	f, err := os.Create(out)
	if err != nil {
		return stepRun{}, err
	}
	var stderr bytes.Buffer
	st, runErr := h.run(h.lbsim, args, f, &stderr, childEnv(extraEnv...))
	f.Close()
	r := stepRun{procStats: st, stderr: stderr.String()}
	if runErr != nil {
		return r, fmt.Errorf("%v: %s", runErr, lastLine(r.stderr))
	}
	sum, n, err := fileDigest(out)
	if err != nil {
		return r, err
	}
	r.stdoutBytes = n
	if want, ok := w.golden[s.label]; w.golden != nil && (!ok || want != sum) {
		return r, fmt.Errorf("%s: stdout sha256 %s, golden %s", s.label, sum, want)
	}
	if s.traced && !w.validated[sum] {
		tf, err := os.Open(out)
		if err != nil {
			return r, err
		}
		_, err = validateChrome(bufio.NewReaderSize(tf, 1<<20))
		tf.Close()
		if err != nil {
			return r, fmt.Errorf("%s: %w", s.label, err)
		}
		if w.validated == nil {
			w.validated = map[string]bool{}
		}
		w.validated[sum] = true
	}
	data, err := os.ReadFile(side)
	if err != nil {
		return r, err
	}
	if s.traced {
		var m struct {
			Counters map[string]float64 `json:"counters"`
		}
		if err := json.Unmarshal(data, &m); err != nil {
			return r, fmt.Errorf("%s: metrics registry: %w", s.label, err)
		}
		r.counters = m.Counters
	} else {
		var e struct {
			Total engineTotals `json:"total"`
		}
		if err := json.Unmarshal(data, &e); err != nil {
			return r, fmt.Errorf("%s: engine stats: %w", s.label, err)
		}
		r.engine = &e.Total
	}
	return r, nil
}

func lastLine(s string) string {
	s = strings.TrimSpace(s)
	if i := strings.LastIndexByte(s, '\n'); i >= 0 {
		return s[i+1:]
	}
	return s
}

// rep runs every step once. Set-up time is the process wall outside
// simulator runs where lbsim reports its run host time; the traced
// variant reports none, so there it is lbsim's start-up, timed as an
// `lbsim -list` after each step.
func (w *lbsimWorkload) rep(h *harness) repResult {
	r := newRep()
	var wall, cpu, rss float64
	for _, s := range w.steps {
		r.ops++
		sr, err := w.runStep(h, s, nil, nil)
		if err != nil {
			r.fail("%s: %v", w.name, err)
		}
		wall += sr.wall
		cpu += sr.cpu
		rss = max(rss, sr.rssMiB)
		if e := sr.engine; e != nil {
			r.setup = append(r.setup, sr.wall-e.HostSeconds)
			if e.HostSeconds > 0 {
				r.samples["simtime.events_per_host_s"] = e.Events / e.HostSeconds
			}
			for k, v := range map[string]float64{
				"experiments.runs": e.Runs, "simtime.events": e.Events,
				"simtime.fast_path_events": e.FastPath, "simtime.heap_pushes": e.HeapPushes,
				"simtime.parks": e.Parks, "simtime.wakes": e.Wakes,
				"simtime.peak_goroutines": e.PeakGoro, "nanos.registry_hiwater": e.RegHiWater,
			} {
				r.exact[k] += v
			}
		}
		if s.traced {
			r.exact["obs.trace_bytes"] += float64(sr.stdoutBytes)
			addCounters(r.exact, sr.counters)
			r.ops++
			st, err := h.run(h.lbsim, []string{"-list"}, nil, nil, childEnv())
			if err != nil {
				r.fail("%s: %v", w.name, err)
			}
			r.setup = append(r.setup, st.wall)
		}
	}
	r.samples["wall_s"] = wall
	r.samples["cpu_s"] = cpu
	r.samples["peak_rss_mb"] = rss
	return r
}

// addCounters folds a metrics registry's counters into the per-layer
// model invariants.
func addCounters(exact, counters map[string]float64) {
	for name, src := range map[string]string{
		"nanos.tasks":              "events_task_created",
		"core.sched_queued":        "sched_queued",
		"core.sched_locality_best": "sched_locality_best",
		"core.sched_locality_alt":  "sched_locality_alt",
		"core.transfer_bytes":      "transfer_bytes_total",
		"core.ctl_msgs":            "events_ctl_msg",
		"dlb.core_borrows":         "core_borrows",
		"dlb.ownership_changes":    "ownership_changes",
		"simmpi.collectives":       "events_collective",
		"obs.events_dropped":       "events_dropped",
	} {
		exact[name] += counters[src]
	}
	for k, v := range counters {
		if strings.HasPrefix(k, "events_") && k != "events_dropped" {
			exact["obs.events"] += v
		}
	}
}

// profile runs every step once more with the CPU and heap profilers on
// and gctrace in the environment, and splits the CPU samples into
// layers. medianWall is the unprofiled rep's median wall, the base of
// profile_overhead.
func (w *lbsimWorkload) profile(h *harness, medianWall float64) repResult {
	r := newRep()
	var wall float64
	for _, s := range w.steps {
		r.ops++
		cpuProf := filepath.Join(h.work, s.label+".cpu.pprof")
		memProf := filepath.Join(h.work, s.label+".mem.pprof")
		sr, err := w.runStep(h, s, []string{"-cpuprofile", cpuProf, "-memprofile", memProf}, []string{"GODEBUG=gctrace=1"})
		if err == nil {
			err = addProfile(h, r.samples, cpuProf, memProf)
		}
		os.Remove(cpuProf)
		os.Remove(memProf)
		if err != nil {
			r.fail("%s: profiled run: %v", w.name, err)
			continue
		}
		wall += sr.wall
		r.samples["runtime.gc_cycles"] += float64(countGCLines(sr.stderr))
	}
	if medianWall > 0 {
		r.samples["profile_overhead"] = wall/medianWall - 1
	}
	return r
}

// addProfile adds one process's layer self times, GC time and
// allocated MiB into the per-layer samples.
func addProfile(h *harness, into map[string]float64, cpuProf, memProf string) error {
	stacks, err := pprofTraces(h, cpuProf)
	if err != nil {
		return err
	}
	self, gc := layerTimes(stacks)
	for layer, secs := range self {
		into[layer+".self_s"] += secs
	}
	into["runtime.gc_s"] += gc
	allocs, err := pprofTraces(h, memProf, "-sample_index=alloc_space")
	if err != nil {
		return err
	}
	for _, s := range allocs {
		into["runtime.alloc_mb"] += s.value / (1 << 20)
	}
	return nil
}

// pprofTraces runs `go tool pprof -traces` on a profile of lbsim.
func pprofTraces(h *harness, prof string, flags ...string) ([]stack, error) {
	args := append(append([]string{"tool", "pprof"}, flags...), "-traces", h.lbsim, prof)
	cmd := exec.Command("go", args...)
	cmd.Dir = h.work
	cmd.Env = append(os.Environ(), "PPROF_TMPDIR="+h.work)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w: %s", err, lastLine(stderr.String()))
	}
	return parseTraces(bytes.NewReader(out))
}
