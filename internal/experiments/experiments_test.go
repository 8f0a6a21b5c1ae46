package experiments

import (
	"fmt"
	"strings"
	"testing"

	"ompsscluster/internal/nbody"
)

// trajectories is shared by every quick-scale test run, as lbsim shares
// one store per invocation; TestSharedGraphStoreAcrossRuns checks shared
// trajectories against private ones.
var trajectories = nbody.NewStore()

// qs is the shared quick scale for tests.
func qs() Scale {
	sc := QuickScale()
	sc.Trajectories = trajectories
	return sc
}

// y returns the series value at x, or -1 when the point is missing (the
// tests' sentinel for a hole; measured values in these figures are
// positive).
func y(s *Series, x float64) float64 {
	v, ok := s.Lookup(x)
	if !ok {
		return -1
	}
	return v
}

func TestFig8Shapes(t *testing.T) {
	res := Fig8(qs())
	// At 4 nodes: degree 4 beats the baseline at imbalance 2.0, and sits
	// close to perfect.
	base := res.Get("4n baseline")
	deg4 := res.Get("4n degree 4")
	perfect := res.Get("4n perfect")
	if base == nil || deg4 == nil || perfect == nil {
		t.Fatalf("missing series; have %v", labels(res))
	}
	for _, imb := range []float64{2.0, 3.0} {
		b, d, p := y(base, imb), y(deg4, imb), y(perfect, imb)
		if b <= 0 || d <= 0 || p <= 0 {
			t.Fatalf("imb %v: missing points b=%v d=%v p=%v", imb, b, d, p)
		}
		if d >= b {
			t.Errorf("imb %v: degree 4 (%v) not better than baseline (%v)", imb, d, b)
		}
		if d > p*1.5 {
			t.Errorf("imb %v: degree 4 (%v) too far above perfect (%v)", imb, d, p)
		}
	}
	// Baseline time grows with imbalance; degree 4 stays nearly flat.
	if y(base, 4.0) <= y(base, 1.0)*1.5 {
		t.Errorf("baseline does not grow with imbalance: %v vs %v", y(base, 4.0), y(base, 1.0))
	}
	growth := y(deg4, 4.0) / y(deg4, 1.0)
	baseGrowth := y(base, 4.0) / y(base, 1.0)
	if growth >= baseGrowth {
		t.Errorf("degree 4 grows as fast as baseline: %v vs %v", growth, baseGrowth)
	}
}

func TestFig8DegreeTwoLimitedAtHighImbalance(t *testing.T) {
	res := Fig8(qs())
	deg2 := res.Get("4n degree 2")
	deg4 := res.Get("4n degree 4")
	if deg2 == nil || deg4 == nil {
		t.Fatal("missing degree series")
	}
	// The paper: degree 2 suffices up to imbalance ~2 but falls behind at
	// higher imbalance where degree 4 still holds.
	if y(deg2, 4.0) <= y(deg4, 4.0)*1.05 {
		t.Errorf("degree 2 (%v) should clearly lag degree 4 (%v) at imbalance 4",
			y(deg2, 4.0), y(deg4, 4.0))
	}
}

func TestFig5GlobalAvoidsUnnecessaryOffload(t *testing.T) {
	res := Fig5(qs())
	var local, global float64 = -1, -1
	for _, n := range res.Notes {
		var v float64
		if strings.HasPrefix(n, "local policy:") {
			if _, err := sscanNote(n, &v); err == nil {
				local = v
			}
		}
		if strings.HasPrefix(n, "global policy:") {
			if _, err := sscanNote(n, &v); err == nil {
				global = v
			}
		}
	}
	if local < 0 || global < 0 {
		t.Fatalf("notes missing cross-node numbers: %v", res.Notes)
	}
	// Figure 5: the local policy keeps offloading during the balanced
	// phase; the global policy drops well below it. (The global policy's
	// residual cross-node work is the one-core helper floor, which is
	// 1/48th of a node in the paper but 1/12th at test scale.)
	if global > local*0.7 {
		t.Errorf("global cross-node %v not clearly below local %v", global, local)
	}
}

func sscanNote(n string, v *float64) (int, error) {
	i := strings.Index(n, ": ")
	var rest string
	if i >= 0 {
		rest = n[i+2:]
	}
	return fmtSscan(rest, v)
}

func TestFig11Convergence(t *testing.T) {
	res := Fig11(qs())
	find := func(label string) *Series {
		s := res.Get(label)
		if s == nil {
			t.Fatalf("missing series %q; have %v", label, labels(res))
		}
		return s
	}
	// DROM (global or local) drives the final imbalance near 1; LeWI
	// alone leaves it noticeably higher, matching Figure 11.
	tail := func(s *Series) float64 {
		n := len(s.Points)
		if n == 0 {
			return -1
		}
		// Mean of the last third.
		sum, cnt := 0.0, 0
		for _, p := range s.Points[2*n/3:] {
			sum += p.Y
			cnt++
		}
		return sum / float64(cnt)
	}
	lewi := tail(find("2n lewi-only"))
	global := tail(find("2n global+lewi"))
	local := tail(find("2n local+lewi"))
	if global > 1.25 || local > 1.25 {
		t.Errorf("DROM did not converge: global %v local %v", global, local)
	}
	if lewi < global {
		t.Logf("note: lewi-only tail %v vs global %v", lewi, global)
	}
}

func TestFig9Ratios(t *testing.T) {
	res := Fig9(qs())
	get := func(label string) float64 {
		s := res.Get(label)
		if s == nil || len(s.Points) == 0 {
			t.Fatalf("missing %q", label)
		}
		return s.Points[0].Y
	}
	base := get("baseline")
	lewi := get("lewi-only")
	drom := get("drom-only")
	both := get("lewi+drom")
	if lewi >= base {
		t.Errorf("LeWI-only (%v) did not beat baseline (%v)", lewi, base)
	}
	if drom >= lewi {
		t.Errorf("DROM-only (%v) should beat LeWI-only (%v), as in Figure 9", drom, lewi)
	}
	if both > drom*1.05 {
		t.Errorf("LeWI+DROM (%v) should be at least as good as DROM-only (%v)", both, drom)
	}
}

func TestHeadlineClaims(t *testing.T) {
	res := Headline(qs())
	if len(res.Series) < 5 {
		t.Fatalf("headline series missing: %v", labels(res))
	}
	red := res.Get("micropp reduction vs dlb %").Points[0].Y
	if red < 20 {
		t.Errorf("micropp reduction = %.1f%%, want substantial (paper: 46%%)", red)
	}
	over := res.Get("synthetic above perfect %").Points[0].Y
	if over > 30 {
		t.Errorf("synthetic %.1f%% above perfect, want near paper's <=10%%", over)
	}
	further := res.Get("nbody further reduction %").Points[0].Y
	if further <= 0 {
		t.Errorf("n-body offloading gave no further reduction (%.1f%%)", further)
	}
}

func TestByIDAndTables(t *testing.T) {
	res, err := ByID("fig8", qs())
	if err != nil {
		t.Fatal(err)
	}
	tab := res.Table()
	if !strings.Contains(tab, "fig8") || !strings.Contains(tab, "imbalance") {
		t.Fatalf("table rendering wrong:\n%s", tab)
	}
	csv := res.CSV()
	if !strings.HasPrefix(csv, "series,imbalance,") {
		t.Fatalf("csv rendering wrong:\n%s", csv)
	}
	if _, err := ByID("nope", qs()); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func labels(r *Result) []string {
	var out []string
	for _, s := range r.Series {
		out = append(out, s.Label)
	}
	return out
}

// fmtSscan wraps fmt.Sscan for note parsing.
func fmtSscan(s string, v *float64) (int, error) {
	return fmt.Sscan(s, v)
}

func TestExtDVFSReconverges(t *testing.T) {
	res := ExtDVFS(qs())
	base := res.Get("baseline")
	bal := res.Get("degree 4 lewi+drom")
	if base == nil || bal == nil {
		t.Fatalf("missing series: %v", labels(res))
	}
	n := len(base.Points)
	if n < 4 {
		t.Fatal("too few iterations")
	}
	// After throttling, the baseline's last iteration is much slower than
	// its first; the balanced run recovers most of the loss.
	baseFirst, baseLast := base.Points[0].Y, base.Points[n-1].Y
	balLast := bal.Points[len(bal.Points)-1].Y
	if baseLast < baseFirst*1.3 {
		t.Fatalf("throttling had no effect: %v -> %v", baseFirst, baseLast)
	}
	if balLast > baseLast*0.9 {
		t.Fatalf("runtime did not recover: balanced %v vs baseline %v", balLast, baseLast)
	}
}

func TestMarkdownRendering(t *testing.T) {
	res := &Result{
		ID: "x", Title: "T", XLabel: "n",
		Series: []Series{
			{Label: "a", Points: []Point{{1, 2.5}, {2, 3.5}}},
			{Label: "b", Points: []Point{{1, 4.5}}},
		},
		Notes: []string{"note one"},
	}
	md := res.Markdown()
	for _, want := range []string{"### x — T", "| n | a | b |", "| 1 | 2.5000 | 4.5000 |", "| 2 | 3.5000 | – |", "- note one"} {
		if !strings.Contains(md, want) {
			t.Fatalf("markdown missing %q:\n%s", want, md)
		}
	}
}

func TestFig5TracesProduceTimelines(t *testing.T) {
	recs, labs := Fig5Traces(qs())
	if len(recs) != 2 || labs[0] != "local" || labs[1] != "global" {
		t.Fatalf("labels = %v", labs)
	}
	for i, rec := range recs {
		if rec.Busy(0, 0).Max() < 1 {
			t.Fatalf("trace %d empty", i)
		}
	}
}

// TestAllExperimentsRun executes every registered experiment at quick
// scale and sanity-checks the results are non-empty with finite values.
func TestAllExperimentsRun(t *testing.T) {
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			res, err := ByID(id, qs())
			if err != nil {
				t.Fatal(err)
			}
			if res.ID == "" || len(res.Series) == 0 {
				t.Fatalf("empty result for %s", id)
			}
			points := 0
			for _, s := range res.Series {
				percentage := strings.Contains(s.Label, "%")
				for _, p := range s.Points {
					// Times, counts and loads are non-negative;
					// percentage deltas (e.g. "reduction %") may be
					// slightly negative.
					if p.Y < 0 && !percentage {
						t.Fatalf("%s/%s has negative value %v at x=%v", id, s.Label, p.Y, p.X)
					}
					points++
				}
			}
			if points == 0 {
				t.Fatalf("%s produced no points", id)
			}
		})
	}
}

func TestAblationGraphShapeOrdering(t *testing.T) {
	res := AblationGraphShape(qs())
	s := res.Series[0]
	if len(s.Points) != 3 {
		t.Fatalf("points = %v", s.Points)
	}
	// All three shapes must at least beat a missing-balancing disaster:
	// they are within 2x of each other (the ablation's point is that the
	// expander is close to full connectivity at a fraction of the state).
	lo, hi := s.Points[0].Y, s.Points[0].Y
	for _, p := range s.Points {
		if p.Y < lo {
			lo = p.Y
		}
		if p.Y > hi {
			hi = p.Y
		}
	}
	if hi > 2*lo {
		t.Fatalf("graph shapes diverge wildly: %v", s.Points)
	}
}

func TestExtDynamicBeatsDegreeOne(t *testing.T) {
	res := ExtDynamicSpreading(qs())
	s1 := res.Get("static degree 1")
	dyn := res.Get("dynamic (from degree 1)")
	if s1 == nil || dyn == nil {
		t.Fatalf("missing series: %v", labels(res))
	}
	if y(dyn, 3.0) >= y(s1, 3.0) {
		t.Fatalf("dynamic (%v) no better than static degree 1 (%v) at imbalance 3",
			y(dyn, 3.0), y(s1, 3.0))
	}
}

func TestExtPartitionQualityBounded(t *testing.T) {
	res := ExtPartitionedSolver(qs())
	ts := res.Series[0]
	if len(ts.Points) < 2 {
		t.Skip("too few partitions at this scale")
	}
	whole := y(&ts, 0)
	for _, p := range ts.Points {
		if p.Y > whole*1.5 {
			t.Fatalf("partition %v degrades balance too much: %v vs whole %v", p.X, p.Y, whole)
		}
	}
}
