// Command lbbench is the benchmark of lbsim and lbsimd. It builds both
// commands from the repository, runs four workloads against them from
// outside, checks their outputs, and reports end-to-end metrics (wall,
// CPU, peak RSS and set-up time) plus per-layer metrics from a
// profiled run and the job-service client's spans.
//
// Usage:
//
//	lbbench -seed 1 -reps 5 -out results.json      every workload, 5 interleaved reps
//	lbbench -workload fig8-default -seed 3 -seconds 20 -trace 0
//	lbbench -compare base.json head.json
//	lbbench -base ../base -reps 10 -workloads fig8-default      A/B against another checkout
//
// With -workload it runs one workload for -seconds and prints one JSON
// line: {"correct", "attempted", "failed", "metrics"}, the end-to-end
// metrics with -trace 0 and the per-layer metrics with -trace 1. With
// -base it also builds the checkout named there and alternates its reps
// with this one's, judging each end-to-end metric pair by pair. The
// exit code is non-zero on any failed check.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// workload is one input set the benchmark runs.
type workload interface {
	Name() string
	// warm runs something small and untimed first.
	warm(h *harness) error
	// rep runs one timed repetition.
	rep(h *harness) repResult
	// profile runs the workload once with profiling on.
	profile(h *harness, medianWall float64) repResult
}

// Time caps, measured after the build: one -workload run and one full
// invocation.
const (
	runCap  = 170 * time.Second
	fullCap = 3420 * time.Second
)

func workloads(seed int64) ([]workload, error) {
	var ws []workload
	for _, w := range lbsimWorkloads() {
		if err := w.loadGolden(); err != nil {
			return nil, err
		}
		ws = append(ws, w)
	}
	return append(ws, &svcWorkload{name: "svc-mix", plan: svcPlan(seed, svcJobs)}), nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lbbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seed    = fs.Int64("seed", 1, "seed of the svc-mix job sequence")
		reps    = fs.Int("reps", 5, "timed reps of each workload, interleaved round-robin")
		filter  = fs.String("workloads", "", "comma-separated workloads to run (default: all)")
		out     = fs.String("out", "", "write every sample and its summary as JSON to this file")
		compare = fs.Bool("compare", false, "compare two -out files: lbbench -compare base.json head.json")
		abBase  = fs.String("base", "", "A/B mode: build this checkout of the base commit too, alternate its reps with -repo's, judge pair by pair")
		one     = fs.String("workload", "", "run this workload alone for -seconds and print one JSON result line")
		seconds = fs.Float64("seconds", 20, "with -workload: how long to run timed reps (at least one)")
		trace   = fs.Int("trace", 0, "with -workload: 1 adds the profiled run and reports the per-layer metrics")
		repo    = fs.String("repo", "..", "repository root: holds go.mod, cmd/ and BENCHMARK.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "lbbench:", err)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: lbbench -compare base.json head.json")
			return 2
		}
		return compareFiles(*repo, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}

	all, err := workloads(*seed)
	if err != nil {
		return fail(err)
	}
	if err := checkSpec(filepath.Join(*repo, "BENCHMARK.json"), all); err != nil {
		return fail(err)
	}
	selected := all
	if *one != "" {
		*filter = *one
	}
	if *filter != "" {
		selected = nil
		for _, name := range strings.Split(*filter, ",") {
			w := lookup(all, name)
			if w == nil {
				fmt.Fprintf(stderr, "lbbench: unknown workload %q\n", name)
				return 2
			}
			selected = append(selected, w)
		}
	}

	h, err := newHarness(*repo)
	if err != nil {
		return fail(err)
	}
	defer h.close()
	start := time.Now()
	if *abBase != "" {
		code := runAB(h, *abBase, selected, *reps, stdout, stderr)
		elapsed := time.Since(start)
		fmt.Fprintf(stderr, "lbbench: total elapsed %.1fs (cap %v)\n", elapsed.Seconds(), fullCap)
		if elapsed > fullCap {
			return 1
		}
		return code
	}
	for _, w := range selected {
		if err := w.warm(h); err != nil {
			return fail(fmt.Errorf("%s warm-up: %w", w.Name(), err))
		}
	}
	if *one != "" {
		return runOne(h, selected[0], *seconds, *trace == 1, start, stdout, stderr)
	}

	cs := make([]*collector, len(selected))
	for i := range cs {
		cs[i] = newCollector()
	}
	for r := 0; r < *reps; r++ {
		for i, w := range selected {
			cs[i].add(w.rep(h))
		}
	}
	for i, w := range selected {
		cs[i].add(w.profile(h, cs[i].medianOf("wall_s")))
	}
	res := results{Seed: *seed, Reps: *reps, Workloads: map[string]*workloadResult{}}
	for i, w := range selected {
		res.Workloads[w.Name()] = cs[i].result(endToEnd, perLayer)
	}
	elapsed := time.Since(start)
	res.ElapsedS = elapsed.Seconds()
	printTable(stdout, &res)
	fmt.Fprintf(stderr, "lbbench: total elapsed %.1fs (cap %v)\n", elapsed.Seconds(), fullCap)
	if *out != "" {
		data, err := json.MarshalIndent(&res, "", " ")
		if err != nil {
			return fail(err)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return fail(err)
		}
	}
	bad := elapsed > fullCap
	for _, name := range sortedKeys(res.Workloads) {
		for _, e := range res.Workloads[name].Errors {
			fmt.Fprintln(stderr, "lbbench: check failed:", e)
			bad = true
		}
	}
	if bad {
		return 1
	}
	return 0
}

func lookup(ws []workload, name string) workload {
	for _, w := range ws {
		if w.Name() == name {
			return w
		}
	}
	return nil
}

// runOne runs one workload's timed reps until the deadline, plus the
// profiled run with trace, and prints the one-line result.
func runOne(h *harness, w workload, seconds float64, trace bool, start time.Time, stdout, stderr io.Writer) int {
	c := newCollector()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for n := 0; n == 0 || time.Now().Before(deadline); n++ {
		c.add(w.rep(h))
	}
	defs := endToEnd
	if trace {
		c.add(w.profile(h, c.medianOf("wall_s")))
		defs = perLayer
	}
	res := c.result(defs)
	elapsed := time.Since(start)
	fmt.Fprintf(stderr, "lbbench: %s: %d checks failed of %d operations; elapsed %.1fs (cap %v)\n",
		w.Name(), res.Failed, res.Attempted, elapsed.Seconds(), runCap)
	for _, e := range res.Errors {
		fmt.Fprintln(stderr, "lbbench: check failed:", e)
	}
	overCap := elapsed > runCap
	if overCap {
		fmt.Fprintf(stderr, "lbbench: %s exceeded the %v cap\n", w.Name(), runCap)
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(res.Errors) == 0 && !overCap, res.Attempted, res.Failed, map[string]metric{}}
	for name, s := range res.Metrics {
		line.Metrics[name] = metric{s.Median, s.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, "lbbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(data))
	if !line.Correct {
		return 1
	}
	return 0
}
