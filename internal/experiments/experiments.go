// Package experiments reproduces every figure of the paper's evaluation
// (§7, Figures 5-11). Each experiment builds the paper's scenario on the
// simulated cluster, runs it across the same configurations (offloading
// degrees, LeWI/DROM combinations, allocation policies), and returns
// labelled series shaped like the published plots.
//
// Absolute times differ from the paper (the substrate is a simulator and
// the workloads are scaled), but the comparisons the paper makes — who
// wins, by what factor, where the crossovers fall — are reproduced and
// asserted in the package tests. EXPERIMENTS.md records paper-vs-measured
// values.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"ompsscluster/internal/cluster"
	"ompsscluster/internal/core"
	"ompsscluster/internal/expander"
	"ompsscluster/internal/nbody"
	"ompsscluster/internal/simtime"
	"ompsscluster/internal/sweep"
)

// Point is one (x, y) sample of a series.
type Point struct {
	X, Y float64
}

// Series is one labelled line of a figure.
type Series struct {
	Label  string
	Points []Point
}

// Lookup returns the series value at x (exact match) and whether the
// series has a point there. Missing points are reported explicitly so a
// legitimate non-positive value is never mistaken for a hole.
func (s Series) Lookup(x float64) (float64, bool) {
	for _, p := range s.Points {
		if p.X == x {
			return p.Y, true
		}
	}
	return 0, false
}

// EngineStats summarises the discrete-event engines of the simulator
// runs behind one figure. Only deterministic counters live here — host
// time and events/sec depend on the hardware and are reported by the
// caller (cmd/lbsim) from the Scale's collector — so Results compare
// equal across sweep parallelism levels.
type EngineStats struct {
	// Runs is the number of simulator runs the figure executed.
	Runs uint64
	// Events is the total number of engine events executed.
	Events uint64
	// FastPath counts events that bypassed the heap via the engine's
	// same-timestamp FIFO.
	FastPath uint64
	// HeapPushes counts events that went through the future-event heap.
	HeapPushes uint64
	// Parks counts process blocks (goroutine Park/Sleep and the
	// continuation *Then primitives) across all runs.
	Parks uint64
	// Wakes counts scheduled process resumptions across all runs.
	Wakes uint64
	// PeakGoroutines is the maximum goroutine-backed process count any
	// single run reached — the Go scheduler pressure a figure exerts.
	PeakGoroutines uint64
	// RegistryHiWater is the maximum dependency-registry interval count
	// any single run reached — the live-interval footprint after
	// coalescing, which bounds the per-query walk cost.
	RegistryHiWater uint64
}

// Result is one reproduced figure.
type Result struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []Series
	Notes  []string
	// Engine holds the engine counters of the runs behind the figure
	// (populated by ByID; zero when a figure function is called
	// directly without a collector).
	Engine EngineStats
	// Err records the first typed runtime error any run behind the
	// figure surfaced (a simtime.DeadlockError, a core.AbortError from a
	// crash fault, ...) instead of panicking; the affected runs simply
	// contribute no point. Figures that tolerate failing runs (the
	// resilience sweep, FaultDemo) populate it.
	Err error
}

// Get returns the series with the given label.
func (r *Result) Get(label string) *Series {
	for i := range r.Series {
		if r.Series[i].Label == label {
			return &r.Series[i]
		}
	}
	return nil
}

// Table renders the result as an aligned text table, series as columns.
func (r *Result) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s — %s\n", r.ID, r.Title)
	xs := map[float64]bool{}
	for _, s := range r.Series {
		for _, p := range s.Points {
			xs[p.X] = true
		}
	}
	sorted := make([]float64, 0, len(xs))
	for x := range xs {
		sorted = append(sorted, x)
	}
	sort.Float64s(sorted)
	fmt.Fprintf(&b, "%-12s", r.XLabel)
	for _, s := range r.Series {
		fmt.Fprintf(&b, "  %16s", s.Label)
	}
	b.WriteString("\n")
	for _, x := range sorted {
		fmt.Fprintf(&b, "%-12.3g", x)
		for _, s := range r.Series {
			if y, ok := s.Lookup(x); ok {
				fmt.Fprintf(&b, "  %16.4f", y)
			} else {
				fmt.Fprintf(&b, "  %16s", "-")
			}
		}
		b.WriteString("\n")
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Markdown renders the result as a GitHub-flavoured markdown table with
// the notes as a trailing list (for pasting into EXPERIMENTS.md-style
// records).
func (r *Result) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", r.ID, r.Title)
	xs := map[float64]bool{}
	for _, s := range r.Series {
		for _, p := range s.Points {
			xs[p.X] = true
		}
	}
	sorted := make([]float64, 0, len(xs))
	for x := range xs {
		sorted = append(sorted, x)
	}
	sort.Float64s(sorted)
	fmt.Fprintf(&b, "| %s |", r.XLabel)
	for _, s := range r.Series {
		fmt.Fprintf(&b, " %s |", s.Label)
	}
	b.WriteString("\n|---|")
	for range r.Series {
		b.WriteString("---|")
	}
	b.WriteString("\n")
	for _, x := range sorted {
		fmt.Fprintf(&b, "| %g |", x)
		for _, s := range r.Series {
			if y, ok := s.Lookup(x); ok {
				fmt.Fprintf(&b, " %.4f |", y)
			} else {
				b.WriteString(" – |")
			}
		}
		b.WriteString("\n")
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "\n- %s", n)
	}
	b.WriteString("\n")
	return b.String()
}

// CSV renders the result in long format: series,x,y. Fields are quoted
// per RFC 4180 when they contain a comma, quote, or newline, so labels
// like "degree 4, local" survive a round-trip.
func (r *Result) CSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "series,%s,%s\n",
		csvField(strings.ReplaceAll(r.XLabel, " ", "_")),
		csvField(strings.ReplaceAll(r.YLabel, " ", "_")))
	for _, s := range r.Series {
		for _, p := range s.Points {
			fmt.Fprintf(&b, "%s,%g,%g\n", csvField(s.Label), p.X, p.Y)
		}
	}
	return b.String()
}

// csvField quotes s per RFC 4180 if it needs it, else returns it as is.
func csvField(s string) string {
	if !strings.ContainsAny(s, ",\"\n\r") {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}

// Scale controls the cost of the reproduction. The paper's runs use
// 48-core nodes and hundreds of 50ms tasks per core; the default scale
// shrinks per-node core counts and task counts so full sweeps run in
// seconds while preserving every ratio the paper reports.
type Scale struct {
	// CoresPerNode is the simulated node width.
	CoresPerNode int
	// TasksPerCore is the synthetic benchmark's per-iteration task count
	// per core (paper: 100).
	TasksPerCore int
	// MeanTask is the synthetic benchmark's mean task duration (paper:
	// 50ms).
	MeanTask simtime.Duration
	// Iterations is the number of outer iterations / timesteps.
	Iterations int
	// MaxNodes caps the node counts of the weak-scaling sweeps.
	MaxNodes int
	// GlobalPeriod and LocalPeriod are the DROM policy periods. The
	// paper uses 2s for the global solver; scaled runs shorten it in
	// proportion to the shortened iterations.
	GlobalPeriod simtime.Duration
	LocalPeriod  simtime.Duration
	// Seed drives all randomness.
	Seed int64

	// Parallel is the number of simulator runs the figure engines execute
	// concurrently (each run on its own simtime.Env). 0 or 1 runs
	// sequentially; results are identical at any setting because the
	// sweep engine collects by spec index.
	Parallel int
	// Graphs, when non-nil, is shared by every run of the sweep so
	// configurations with the same layout generate their helper graph
	// once. Safe for concurrent use.
	Graphs *expander.Store
	// Trajectories, when non-nil, is shared the same way by the n-body
	// runs: runs with the same physics integrate it once. Safe for
	// concurrent use; nil gives every run a private trajectory.
	Trajectories *nbody.Store
	// Engine, when non-nil, collects event-engine counters and host
	// time from every simulator run (safe for concurrent use). ByID
	// creates one per call when unset and summarises it on the Result.
	Engine *simtime.StatsCollector
	// POP enables full TALP/POP accounting in every simulator run of a
	// figure. Figure outputs are unchanged (accounting is summary-only
	// until queried); cmd/lbsim sets it from -popaccount so the bench
	// harness can measure the accounting overhead, and POPReports sets
	// it on its representative runs.
	POP bool
	// POPWindow is the windowed POP series width. Only meaningful with
	// POP set; zero keeps accounting totals-only. POPReports defaults
	// it to LocalPeriod when unset.
	POPWindow simtime.Duration
	// Jobs, when non-nil, threads the job service's per-spec hooks
	// (checkpointing, resume, cancellation) through every figure sweep;
	// see JobHooks. A pointer so every copy of the Scale an experiment
	// passes around shares the one hook state.
	Jobs *JobHooks
}

// DefaultScale runs every figure in minutes on a laptop. Nodes are 24
// cores wide so the one-core-per-helper floor stays small relative to the
// node (as on the paper's 48-core nodes).
func DefaultScale() Scale {
	return Scale{
		CoresPerNode: 24,
		TasksPerCore: 30,
		MeanTask:     50 * simtime.Millisecond,
		Iterations:   4,
		MaxNodes:     64,
		GlobalPeriod: 400 * simtime.Millisecond,
		LocalPeriod:  100 * simtime.Millisecond,
		Seed:         1,
	}
}

// QuickScale is a reduced scale for unit tests.
func QuickScale() Scale {
	s := DefaultScale()
	s.CoresPerNode = 12
	s.TasksPerCore = 10
	s.MeanTask = 20 * simtime.Millisecond
	s.Iterations = 3
	s.MaxNodes = 8
	s.GlobalPeriod = 100 * simtime.Millisecond
	s.LocalPeriod = 40 * simtime.Millisecond
	return s
}

// ScaleByName maps the user-facing scale names ("quick", "default",
// "paper") to their Scale — shared by cmd/lbsim's -scale flag and the
// job service's spec validation.
func ScaleByName(name string) (Scale, error) {
	switch name {
	case "quick":
		return QuickScale(), nil
	case "default":
		return DefaultScale(), nil
	case "paper":
		return PaperScale(), nil
	}
	return Scale{}, fmt.Errorf("unknown scale %q (quick, default, paper)", name)
}

// ScaleNames lists the named scales ScaleByName accepts.
func ScaleNames() []string { return []string{"quick", "default", "paper"} }

// PaperScale approximates the paper's parameters (48-core MareNostrum 4
// nodes, 100 tasks per core, 2-second solver period). Full sweeps take
// minutes of wall time.
func PaperScale() Scale {
	return Scale{
		CoresPerNode: 48,
		TasksPerCore: 100,
		MeanTask:     50 * simtime.Millisecond,
		Iterations:   6,
		MaxNodes:     64,
		GlobalPeriod: 2 * simtime.Second,
		LocalPeriod:  100 * simtime.Millisecond,
		Seed:         1,
	}
}

// engine returns the sweep engine configured by the scale. The default
// (Parallel 0) is sequential, preserving the historical single-threaded
// behaviour; cmd/lbsim sets Parallel from its -parallel flag. Under job
// hooks the engine carries the job's cancellation context, so even
// sweeps without a checkpoint codec (trace and POP bundles) stop
// drawing specs when the job is canceled.
func (sc Scale) engine() *sweep.Engine {
	eng := sweep.New(1)
	if sc.Parallel > 1 {
		eng = sweep.New(sc.Parallel)
	}
	if sc.Jobs != nil && sc.Jobs.Ctx != nil {
		eng = eng.WithHook(sweep.Hook{Ctx: sc.Jobs.Ctx})
	}
	return eng
}

// config returns the runtime configuration every experiment run starts
// from: the machine plus the fields the scale shares with all its runs.
// Call sites set only what differs.
func (sc Scale) config(m *cluster.Machine) core.Config {
	return core.Config{
		Machine:      m,
		Graphs:       sc.Graphs,
		EngineStats:  sc.Engine,
		POP:          sc.POP,
		POPWindow:    sc.POPWindow,
		GlobalPeriod: sc.GlobalPeriod,
		LocalPeriod:  sc.LocalPeriod,
		Seed:         sc.Seed,
	}
}

// runSpec is one point-producing simulator run of a figure sweep: run
// yields the y value destined for series at x. Everything the run
// touches must be created inside it (machines, recorders, workloads) so
// specs may execute concurrently.
type runSpec struct {
	series *Series
	x      float64
	run    func() float64
}

// runAll executes the specs through the scale's sweep engine and appends
// each result to its destination series in spec order, so assembled
// series are identical at every parallelism.
func runAll(sc Scale, specs []runSpec) {
	ys := mapSpecs(sc, specs, func(s runSpec) float64 { return s.run() }, floatCodec())
	for i, s := range specs {
		s.series.Points = append(s.series.Points, Point{s.x, ys[i]})
	}
}

// nodeSweep returns the paper's node counts for weak scaling, capped by
// the scale.
func nodeSweep(sc Scale, counts ...int) []int {
	var out []int
	for _, c := range counts {
		if c <= sc.MaxNodes {
			out = append(out, c)
		}
	}
	return out
}

// All runs every figure at the given scale and returns the results in
// paper order.
func All(sc Scale) []*Result {
	return []*Result{
		Fig5(sc),
		Fig6a(sc),
		Fig6b(sc),
		Fig6c(sc),
		Fig7(sc),
		Fig8(sc),
		Fig10(sc),
		Fig11(sc),
		Fig9(sc),
		Headline(sc),
		Resilience(sc),
		Policies(sc),
		Efficiency(sc),
	}
}

// ByID runs the experiment with the given id ("fig5" ... "fig11",
// "headline", "ablation-*").
func ByID(id string, sc Scale) (*Result, error) {
	fns := map[string]func(Scale) *Result{
		"fig5":                Fig5,
		"fig6a":               Fig6a,
		"fig6b":               Fig6b,
		"fig6c":               Fig6c,
		"fig7":                Fig7,
		"fig8":                Fig8,
		"fig9":                Fig9,
		"fig10":               Fig10,
		"fig11":               Fig11,
		"headline":            Headline,
		"resilience":          Resilience,
		"policies":            Policies,
		"efficiency":          Efficiency,
		"ablation-taskspc":    AblationTasksPerCore,
		"ablation-borrowed":   AblationCountBorrowed,
		"ablation-graphshape": AblationGraphShape,
		"ablation-period":     AblationGlobalPeriod,
		"ablation-incentive":  AblationIncentive,
		"ablation-orbweights": AblationORBWeights,
		"ext-dynamic":         ExtDynamicSpreading,
		"ext-partition":       ExtPartitionedSolver,
		"ext-dvfs":            ExtDVFS,
	}
	fn, ok := fns[id]
	if !ok {
		var ids []string
		for k := range fns {
			ids = append(ids, k)
		}
		sort.Strings(ids)
		return nil, fmt.Errorf("experiments: unknown id %q (have %s)", id, strings.Join(ids, ", "))
	}
	if sc.Engine == nil {
		sc.Engine = simtime.NewStatsCollector()
	}
	before := sc.Engine.Totals()
	res := fn(sc)
	d := sc.Engine.Totals().Sub(before)
	res.Engine = EngineStats{
		Runs:            d.Runs,
		Events:          d.Events,
		FastPath:        d.FastPath,
		HeapPushes:      d.HeapPushes,
		Parks:           d.Parks,
		Wakes:           d.Wakes,
		PeakGoroutines:  d.PeakGoroutines,
		RegistryHiWater: d.RegistryHiWater,
	}
	return res, nil
}

// IDs lists the available experiment ids.
func IDs() []string {
	return []string{"fig5", "fig6a", "fig6b", "fig6c", "fig7", "fig8", "fig9",
		"fig10", "fig11", "headline", "resilience", "policies", "efficiency",
		"ablation-taskspc", "ablation-borrowed", "ablation-graphshape",
		"ablation-period", "ablation-incentive", "ablation-orbweights",
		"ext-dynamic", "ext-partition", "ext-dvfs"}
}
