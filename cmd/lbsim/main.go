// Command lbsim runs the paper-reproduction experiments on the simulated
// cluster and prints their tables or CSV.
//
// Usage:
//
//	lbsim -list
//	lbsim -exp fig8 [-scale quick|default|paper] [-format table|csv|markdown]
//	lbsim -all [-scale ...] [-parallel N]
//	lbsim -faults storm [-scale quick]
//	lbsim -faults plan.json -format csv
//	lbsim -policy twolevel [-scale quick]
//	lbsim -policy guided -faults storm
//	lbsim -exp policies -scale quick -format csv
//	lbsim -exp fig8 -cpuprofile cpu.pprof -memprofile mem.pprof
//	lbsim -exp fig8 -enginestats -enginejson engine.json
//	lbsim -exp fig9 -scale quick -trace fig9.json -metricsjson fig9_metrics.json
//	lbsim -exp fig8 -pop                  (POP efficiency: PE = LB x CommE)
//	lbsim -exp efficiency -popjson pop.json
//	lbsim -exp fig8 -popaccount           (full TALP accounting during the sweep)
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"time"

	"ompsscluster/internal/balance"
	"ompsscluster/internal/expander"
	"ompsscluster/internal/experiments"
	"ompsscluster/internal/faults"
	"ompsscluster/internal/nbody"
	"ompsscluster/internal/obs"
	"ompsscluster/internal/simtime"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// gcPercent decides the GC target for this invocation. The simulator's
// allocations are almost entirely short-lived task and dependency
// records; the live heap between runs is tiny. The default GOGC=100
// therefore collects far too eagerly — GC accounts for over 15% of a
// large sweep's wall clock — so this batch CLI trades memory for fewer
// cycles with GOGC=400. An explicit GOGC in the environment always wins:
// ok is false and the runtime is left untouched. Results are unaffected
// either way — GC timing never feeds back into the simulation.
func gcPercent(gogcEnv string) (percent int, ok bool) {
	if gogcEnv != "" {
		return 0, false
	}
	return 400, true
}

// run is main with its dependencies injected: flags are parsed from
// args, output goes to the given writers, and every failure (bad flag,
// unknown scale or experiment, unreadable plan file) is an error message
// on stderr plus a non-zero return — never a panic or log.Fatal — so
// the whole command line surface is unit-testable.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lbsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp       = fs.String("exp", "", "experiment id (see -list)")
		all       = fs.Bool("all", false, "run every experiment")
		list      = fs.Bool("list", false, "list experiment ids")
		scale     = fs.String("scale", "default", "scale: quick, default, or paper")
		format    = fs.String("format", "table", "output format: table, csv, or markdown")
		talp      = fs.Bool("talp", false, "print a TALP efficiency report for a MicroPP run")
		outDir    = fs.String("out", "", "also write each result as CSV into this directory")
		parallel  = fs.Int("parallel", runtime.NumCPU(), "concurrent simulator runs per sweep (1 = sequential; output is identical at any setting)")
		faultPlan = fs.String("faults", "", "run the synthetic workload under this fault plan (JSON file or preset; see faults presets: "+strings.Join(faults.PresetNames(), ", ")+")")
		policy    = fs.String("policy", "", "run the synthetic workload under this self-scheduling policy vs the lewi+global baseline ("+strings.Join(balance.SelfSchedNames(), ", ")+"); combine with -faults to run both under a plan")

		cpuprofile  = fs.String("cpuprofile", "", "write a CPU profile of the whole invocation to this file")
		memprofile  = fs.String("memprofile", "", "write a heap profile to this file on exit")
		engineStats = fs.Bool("enginestats", false, "print per-experiment event-engine stats to stderr")
		engineJSON  = fs.String("enginejson", "", "write aggregate event-engine stats as JSON to this file")
		traceOut    = fs.String("trace", "", "run the traced variant of -exp and write a Chrome/Perfetto trace JSON to this file")
		metricsOut  = fs.String("metricsjson", "", "with the traced variant of -exp, write the aggregated metrics registry as JSON to this file")
		popOut      = fs.Bool("pop", false, "run representative configurations of -exp with full TALP accounting and print their POP efficiency reports (PE = LB x CommE)")
		popJSON     = fs.String("popjson", "", "like -pop but write the reports as deterministic JSON to this file (- for stdout)")
		popAccount  = fs.Bool("popaccount", false, "enable full TALP/POP accounting during the normal -exp/-all sweeps (results are unchanged; used to measure accounting overhead)")
	)
	if err := fs.Parse(args); err != nil {
		return 2 // the FlagSet already printed the problem and usage
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "lbsim:", err)
		return 1
	}

	if p, ok := gcPercent(os.Getenv("GOGC")); ok {
		debug.SetGCPercent(p)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fail(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	defer func() {
		if *memprofile == "" {
			return
		}
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintln(stderr, "lbsim:", err)
			return
		}
		defer f.Close()
		runtime.GC() // settle allocations so the profile reflects live heap
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(stderr, "lbsim:", err)
		}
	}()

	if *list {
		fmt.Fprintln(stdout, strings.Join(experiments.IDs(), "\n"))
		return 0
	}
	sc, err := experiments.ScaleByName(*scale)
	if err != nil {
		return fail(err)
	}
	if *talp {
		fmt.Fprint(stdout, experiments.TALPReport(sc))
		return 0
	}
	sc.Parallel = *parallel
	// One graph store, one trajectory store and one engine-stats
	// collector for the whole invocation: sweeps (and with -all,
	// experiments) that reuse a layout generate its helper graph once,
	// n-body runs with the same physics integrate it once, and engine
	// throughput aggregates across every run.
	sc.Graphs = expander.NewStore("")
	sc.Trajectories = nbody.NewStore()
	sc.Engine = simtime.NewStatsCollector()
	if *popAccount {
		sc.POP = true
	}

	emit := func(r *experiments.Result) error {
		if *outDir != "" {
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				return err
			}
			path := filepath.Join(*outDir, r.ID+".csv")
			if err := os.WriteFile(path, []byte(r.CSV()), 0o644); err != nil {
				return err
			}
		}
		switch *format {
		case "table":
			fmt.Fprintln(stdout, r.Table())
		case "csv":
			fmt.Fprint(stdout, r.CSV())
		case "markdown", "md":
			fmt.Fprintln(stdout, r.Markdown())
		default:
			return fmt.Errorf("unknown format %q (table, csv, markdown)", *format)
		}
		return nil
	}

	// -faults and -policy select dedicated demo runs; silently ignoring
	// them next to -exp/-all would run something other than what was
	// asked for, so the combinations are hard errors.
	if *faultPlan != "" && (*all || *exp != "") {
		return fail(fmt.Errorf("-faults cannot be combined with -exp/-all (the fault demo is its own run; use -exp resilience for the fault sweep)"))
	}
	if *policy != "" && (*all || *exp != "") {
		return fail(fmt.Errorf("-policy cannot be combined with -exp/-all (the policy demo is its own run; use -exp policies for the full sweep)"))
	}

	if *policy != "" {
		var plan *faults.Plan
		if *faultPlan != "" {
			plan, err = faults.Load(*faultPlan)
			if err != nil {
				return fail(err)
			}
		}
		r, err := experiments.PolicyDemo(sc, *policy, plan)
		if err != nil {
			return fail(err)
		}
		if emitErr := emit(r); emitErr != nil {
			return fail(emitErr)
		}
		if r.Err != nil {
			fmt.Fprintln(stderr, "lbsim: policy demo run failed:", r.Err)
		}
		return 0
	}

	if *faultPlan != "" {
		plan, err := faults.Load(*faultPlan)
		if err != nil {
			return fail(err)
		}
		r := experiments.FaultDemo(sc, plan)
		if emitErr := emit(r); emitErr != nil {
			return fail(emitErr)
		}
		if r.Err != nil {
			// The plan aborted the application (e.g. a crash event).
			// The demo itself succeeded — the notes show the typed
			// error — but flag it for scripts.
			fmt.Fprintln(stderr, "lbsim: fault plan terminated the run:", r.Err)
		}
		return 0
	}

	if (*popOut || *popJSON != "") && (*traceOut != "" || *metricsOut != "") {
		return fail(fmt.Errorf("-pop/-popjson cannot be combined with -trace/-metricsjson (each runs its own representative sweep; invoke them separately)"))
	}
	if *popOut || *popJSON != "" {
		if *all || *exp == "" {
			return fail(fmt.Errorf("-pop/-popjson need a single -exp with a POP variant (fig5, fig8, fig9, policies, efficiency)"))
		}
		if err := writePOP(*exp, sc, *popOut, *popJSON, stdout); err != nil {
			return fail(err)
		}
		return 0
	}

	if *traceOut != "" || *metricsOut != "" {
		if *all || *exp == "" {
			return fail(fmt.Errorf("-trace/-metricsjson need a single -exp with a traced variant (fig5, fig8, fig9, policies, efficiency)"))
		}
		if err := writeTraces(*exp, sc, *traceOut, *metricsOut); err != nil {
			return fail(err)
		}
		return 0
	}
	report := &engineReport{Scale: *scale, Parallel: *parallel}
	runOne := func(id string) error {
		before := sc.Engine.Totals()
		start := time.Now()
		r, err := experiments.ByID(id, sc)
		if err != nil {
			return err
		}
		wall := time.Since(start)
		d := sc.Engine.Totals().Sub(before)
		report.add(id, r.Engine, d, wall)
		if *engineStats {
			fmt.Fprintf(stderr, "lbsim: %s: %d runs, %s events (%.0f%% fast-path), %s events/sec of run-host time, %s parks/%s wakes, peak %d goroutine procs, registry hi-water %d intervals, wall %v\n",
				id, d.Runs, humanCount(d.Events), 100*d.FastPathFraction(),
				humanCount(uint64(d.EventsPerSec())),
				humanCount(d.Parks), humanCount(d.Wakes), d.PeakGoroutines,
				d.RegistryHiWater, wall.Round(time.Millisecond))
		}
		return emit(r)
	}
	switch {
	case *all:
		for _, id := range experiments.IDs() {
			if err := runOne(id); err != nil {
				return fail(err)
			}
		}
	case *exp != "":
		if err := runOne(*exp); err != nil {
			return fail(err)
		}
	default:
		fs.Usage()
		return 2
	}
	if *engineJSON != "" {
		if err := report.write(*engineJSON, sc.Engine.Totals()); err != nil {
			return fail(err)
		}
	}
	return 0
}

// engineReport accumulates the per-experiment engine numbers destined for
// the -enginejson file (lbbench reads its run-host seconds and counters).
type engineReport struct {
	Scale       string             `json:"scale"`
	Parallel    int                `json:"parallel"`
	Experiments []experimentReport `json:"experiments"`
}

type experimentReport struct {
	ID           string  `json:"id"`
	Runs         uint64  `json:"runs"`
	Events       uint64  `json:"events"`
	FastPath     uint64  `json:"fast_path_events"`
	HeapPushes   uint64  `json:"heap_pushes"`
	Parks        uint64  `json:"parks"`
	Wakes        uint64  `json:"wakes"`
	PeakGoro     uint64  `json:"peak_goroutines"`
	RegHiWater   uint64  `json:"registry_hiwater"`
	HostSeconds  float64 `json:"run_host_seconds"`
	WallSeconds  float64 `json:"wall_seconds"`
	EventsPerSec float64 `json:"events_per_sec"`
}

func (er *engineReport) add(id string, e experiments.EngineStats, d simtime.RunTotals, wall time.Duration) {
	er.Experiments = append(er.Experiments, experimentReport{
		ID:           id,
		Runs:         e.Runs,
		Events:       e.Events,
		FastPath:     e.FastPath,
		HeapPushes:   e.HeapPushes,
		Parks:        e.Parks,
		Wakes:        e.Wakes,
		PeakGoro:     e.PeakGoroutines,
		RegHiWater:   e.RegistryHiWater,
		HostSeconds:  d.Host.Seconds(),
		WallSeconds:  wall.Seconds(),
		EventsPerSec: d.EventsPerSec(),
	})
}

func (er *engineReport) write(path string, total simtime.RunTotals) error {
	out := struct {
		*engineReport
		Total experimentReport `json:"total"`
	}{engineReport: er, Total: experimentReport{
		ID:           "total",
		Runs:         total.Runs,
		Events:       total.Events,
		FastPath:     total.FastPath,
		HeapPushes:   total.HeapPushes,
		Parks:        total.Parks,
		Wakes:        total.Wakes,
		PeakGoro:     total.PeakGoroutines,
		RegHiWater:   total.RegistryHiWater,
		HostSeconds:  total.Host.Seconds(),
		EventsPerSec: total.EventsPerSec(),
	}}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// writeTraces runs the traced variant of an experiment once and writes
// whichever outputs were requested: a Chrome/Perfetto trace (one process
// group per configuration) and/or the merged metrics registry.
func writeTraces(id string, sc experiments.Scale, tracePath, metricsPath string) error {
	bundles, err := experiments.TraceBundles(id, sc)
	if err != nil {
		return err
	}
	if tracePath != "" {
		recs := make([]*obs.Recorder, len(bundles))
		labels := make([]string, len(bundles))
		for i, b := range bundles {
			recs[i], labels[i] = b.Obs, b.Label
		}
		f, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		if err := obs.WriteChrome(f, recs, labels); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if metricsPath != "" {
		m, err := experiments.BuildMetrics(bundles)
		if err != nil {
			return err
		}
		f, err := os.Create(metricsPath)
		if err != nil {
			return err
		}
		if err := m.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// writePOP runs representative configurations of an experiment with full
// TALP accounting and emits their POP efficiency reports: human-readable
// tables on stdout with -pop, and/or one deterministic JSON document with
// -popjson (the per-report rendering is dlb's hand-rolled writer, so the
// bytes are deterministic).
func writePOP(id string, sc experiments.Scale, print bool, jsonPath string, stdout io.Writer) error {
	bundles, err := experiments.POPReports(id, sc)
	if err != nil {
		return err
	}
	if print {
		for _, b := range bundles {
			fmt.Fprintf(stdout, "== %s ==\n%s\n", b.Label, b.Report)
		}
	}
	if jsonPath == "" {
		return nil
	}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "{%q:%q,%q:[", "experiment", id, "reports")
	for i, b := range bundles {
		if i > 0 {
			buf.WriteByte(',')
		}
		fmt.Fprintf(&buf, "{%q:%q,%q:", "label", b.Label, "pop")
		if err := b.Report.WriteJSON(&buf); err != nil {
			return err
		}
		buf.WriteByte('}')
	}
	buf.WriteString("]}\n")
	if jsonPath == "-" {
		_, err := stdout.Write(buf.Bytes())
		return err
	}
	return os.WriteFile(jsonPath, buf.Bytes(), 0o644)
}

// humanCount renders n with a k/M/G suffix for the stderr stats line.
func humanCount(n uint64) string {
	switch {
	case n >= 1e9:
		return fmt.Sprintf("%.2fG", float64(n)/1e9)
	case n >= 1e6:
		return fmt.Sprintf("%.2fM", float64(n)/1e6)
	case n >= 1e3:
		return fmt.Sprintf("%.1fk", float64(n)/1e3)
	}
	return fmt.Sprintf("%d", n)
}
