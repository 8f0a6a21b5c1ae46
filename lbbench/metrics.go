package main

import (
	"fmt"
	"sort"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units and directions (TestBenchmarkJSONMatchesHarness).
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of lbsim or lbsimd sees, measured on
// every workload with profiling off.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer are the single-layer metrics. A layer that a workload does
// not run, or that the harness cannot observe on it (the simulator
// layers inside lbsimd, the job-service spans of lbsim), reads 0.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, l := range selfLayers {
		defs = append(defs, metricDef{l + ".self_s", "s", "lower"})
	}
	counts := []string{
		"simtime.events", "simtime.fast_path_events", "simtime.heap_pushes",
		"simtime.parks", "simtime.wakes", "simtime.peak_goroutines",
		"nanos.registry_hiwater", "experiments.runs",
		"nanos.tasks", "core.sched_queued", "core.sched_locality_best",
		"core.sched_locality_alt", "core.ctl_msgs", "dlb.core_borrows",
		"dlb.ownership_changes", "simmpi.collectives",
		"obs.events", "obs.events_dropped", "runtime.gc_cycles",
		"jobs.cache_hits",
	}
	for _, c := range counts {
		defs = append(defs, metricDef{c, "count", "lower"})
	}
	return append(defs,
		metricDef{"simtime.events_per_host_s", "1/s", "higher"},
		metricDef{"core.transfer_bytes", "B", "lower"},
		metricDef{"obs.trace_bytes", "B", "lower"},
		metricDef{"runtime.gc_s", "s", "lower"},
		metricDef{"runtime.alloc_mb", "MiB", "lower"},
		metricDef{"jobs.submit_p50_s", "s", "lower"},
		metricDef{"jobs.status_p50_s", "s", "lower"},
		metricDef{"jobs.result_p50_s", "s", "lower"},
		metricDef{"jobs.polls_per_job", "count", "lower"},
		metricDef{"jobs.fresh_p50_s", "s", "lower"},
		metricDef{"jobs.fresh_p90_s", "s", "lower"},
		metricDef{"jobs.hit_p50_s", "s", "lower"},
		metricDef{"jobs.hit_p90_s", "s", "lower"},
		metricDef{"jobs.queue_bytes", "B", "lower"},
		metricDef{"jobs.cache_bytes", "B", "lower"},
		metricDef{"profile_overhead", "ratio", "lower"},
	)
}()

// repResult is what one timed repetition of a workload measured.
type repResult struct {
	samples map[string]float64 // end-to-end and per-layer values of this rep
	setup   []float64          // setup_s samples (several per rep)
	exact   map[string]float64 // deterministic counters: must repeat exactly
	ops     int                // operations attempted (processes, jobs)
	errs    []string           // failed checks, one per failed operation
}

func newRep() repResult {
	return repResult{samples: map[string]float64{}, exact: map[string]float64{}}
}

func (r *repResult) fail(format string, args ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

// collector accumulates the reps (and the profiled run) of one
// workload.
type collector struct {
	samples map[string][]float64
	exact   map[string]float64
	ops     int
	errs    []string
}

func newCollector() *collector {
	return &collector{samples: map[string][]float64{}, exact: map[string]float64{}}
}

func (c *collector) add(r repResult) {
	for k, v := range r.samples {
		c.samples[k] = append(c.samples[k], v)
	}
	c.samples["setup_s"] = append(c.samples["setup_s"], r.setup...)
	for k, v := range r.exact {
		if prev, ok := c.exact[k]; ok && prev != v {
			r.errs = append(r.errs, fmt.Sprintf("%s changed between reps: %v then %v", k, prev, v))
		}
		c.exact[k] = v
		c.samples[k] = append(c.samples[k], v)
	}
	c.ops += r.ops
	c.errs = append(c.errs, r.errs...)
}

// medianOf is the median of a metric's samples so far, 0 if none.
func (c *collector) medianOf(name string) float64 { return median(c.samples[name]) }

// workloadResult is one workload's section of the results file.
type workloadResult struct {
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	Metrics   map[string]summary `json:"metrics"`
}

// result summarizes the metrics of defs; a metric without samples
// reads 0.
func (c *collector) result(defs ...[]metricDef) *workloadResult {
	w := &workloadResult{Attempted: c.ops, Failed: len(c.errs), Errors: c.errs, Metrics: map[string]summary{}}
	// One operation can fail more than one check (a job whose result
	// differs and whose cache flag is wrong); it is still one failed
	// operation.
	w.Failed = min(w.Failed, w.Attempted)
	for _, ds := range defs {
		for _, d := range ds {
			xs := c.samples[d.name]
			if len(xs) == 0 {
				xs = []float64{0}
			}
			w.Metrics[d.name] = summarize(d.unit, xs)
		}
	}
	return w
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
