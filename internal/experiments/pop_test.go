package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"ompsscluster/internal/obs"
)

// popReportsJSON renders every fig8 POP report of one scale config as a
// single concatenated JSON blob for byte comparison.
func popReportsJSON(t *testing.T, mutate func(*Scale)) string {
	t.Helper()
	sc := qs()
	mutate(&sc)
	bundles, err := POPReports("fig8", sc)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, b := range bundles {
		buf.WriteString(b.Label)
		buf.WriteByte('\n')
		if err := b.Report.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.String()
}

// TestPOPReportsEngineDifferential: the fig8 POP JSON must be
// byte-identical whether the sweep engine runs the representative
// configurations one or eight at a time.
func TestPOPReportsEngineDifferential(t *testing.T) {
	ref := popReportsJSON(t, func(sc *Scale) { sc.Parallel = 1 })
	if ref == "" || !strings.Contains(ref, `"apprank_pop"`) {
		t.Fatalf("degenerate reference:\n%s", ref)
	}
	if got := popReportsJSON(t, func(sc *Scale) { sc.Parallel = 8 }); got != ref {
		t.Errorf("POP JSON diverged between sweep parallelism 1 and 8")
	}
}

// TestPOPReportsUnknownID: unsupported experiments are a hard error, not
// an empty result.
func TestPOPReportsUnknownID(t *testing.T) {
	if _, err := POPReports("fig10", qs()); err == nil {
		t.Error("POPReports(fig10) should error")
	}
	if _, err := TraceBundles("nosuch", qs()); err == nil ||
		!strings.Contains(err.Error(), "efficiency") {
		t.Errorf("TraceBundles(nosuch) error should list supported ids, got %v", err)
	}
}

// TestEfficiencyExperiment: the new figure runs at quick scale, carries
// the PE/LB/CommE series triple per config, and every point satisfies
// the multiplicative decomposition.
func TestEfficiencyExperiment(t *testing.T) {
	res := Efficiency(qs())
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	byLabel := map[string]*Series{}
	for i := range res.Series {
		byLabel[res.Series[i].Label] = &res.Series[i]
	}
	for _, cfg := range []string{"static", "lewi+global", "wfactoring", "twolevel"} {
		pe, lb, ce := byLabel[cfg+" PE"], byLabel[cfg+" LB"], byLabel[cfg+" CommE"]
		if pe == nil || lb == nil || ce == nil {
			t.Fatalf("missing series triple for %q", cfg)
		}
		if len(pe.Points) == 0 {
			t.Fatalf("%s PE has no points", cfg)
		}
		for i, p := range pe.Points {
			got := lb.Points[i].Y * ce.Points[i].Y
			if math.Abs(p.Y-got) > 1e-12 {
				t.Errorf("%s at imb %v: PE %v != LB x CommE %v", cfg, p.X, p.Y, got)
			}
			if p.Y <= 0 || p.Y > 1+1e-9 {
				t.Errorf("%s at imb %v: implausible PE %v", cfg, p.X, p.Y)
			}
		}
	}
	// The static baseline's load balance must degrade with imbalance
	// while lewi+global holds up better at the imbalanced end.
	st, lg := byLabel["static PE"], byLabel["lewi+global PE"]
	if last := len(st.Points) - 1; st.Points[last].Y >= st.Points[0].Y {
		t.Errorf("static PE did not degrade with imbalance: %v -> %v", st.Points[0].Y, st.Points[last].Y)
	}
	if last := len(lg.Points) - 1; lg.Points[last].Y <= st.Points[last].Y {
		t.Errorf("lewi+global PE %v should beat static %v at max imbalance",
			lg.Points[len(lg.Points)-1].Y, st.Points[last].Y)
	}
}

// metricsJSON renders the merged fig5 metrics registry under one engine
// config.
func metricsJSON(t *testing.T, mutate func(*Scale)) string {
	t.Helper()
	sc := qs()
	if mutate != nil {
		mutate(&sc)
	}
	bundles, err := TraceBundles("fig5", sc)
	if err != nil {
		t.Fatal(err)
	}
	m, err := BuildMetrics(bundles)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestBuildMetricsJSONDeterministic: the aggregated metrics registry is
// byte-identical across sweep parallelism and repeated invocations.
func TestBuildMetricsJSONDeterministic(t *testing.T) {
	ref := metricsJSON(t, nil)
	if ref == "" {
		t.Fatal("empty metrics JSON")
	}
	if got := metricsJSON(t, func(sc *Scale) { sc.Parallel = 8 }); got != ref {
		t.Error("metrics JSON diverged under sweep parallelism")
	}
	if got := metricsJSON(t, nil); got != ref {
		t.Error("metrics JSON diverged between identical invocations")
	}
}

// TestEfficiencyChromeHasPOPCounters: the traced efficiency bundles
// carry the windowed node-PE series as Perfetto counter tracks, and the
// export stays structurally valid with them included.
func TestEfficiencyChromeHasPOPCounters(t *testing.T) {
	bundles := EfficiencyTraceBundles(qs())
	if len(bundles) == 0 {
		t.Fatal("no efficiency trace bundles")
	}
	recs := make([]*obs.Recorder, len(bundles))
	labels := make([]string, len(bundles))
	for i, b := range bundles {
		recs[i], labels[i] = b.Obs, b.Label
	}
	var buf bytes.Buffer
	if err := obs.WriteChrome(&buf, recs, labels); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	if err := obs.ValidateChrome(buf.Bytes()); err != nil {
		t.Fatalf("ValidateChrome: %v", err)
	}
	if !strings.Contains(buf.String(), `"PE node0"`) {
		t.Error("Chrome export is missing the PE counter tracks")
	}
}
