package experiments

import (
	"reflect"
	"strings"
	"testing"

	"ompsscluster/internal/expander"
	"ompsscluster/internal/nbody"
)

// renderFixture exercises every awkward rendering case at once: negative
// x values, a sparse series with genuinely missing points, and labels
// containing commas and quotes.
func renderFixture() *Result {
	return &Result{
		ID: "fix", Title: "Render fixture", XLabel: "x", YLabel: "y",
		Series: []Series{
			{Label: "plain", Points: []Point{{-1, 0.5}, {0, 1.5}, {2, 2.5}}},
			{Label: "sparse", Points: []Point{{-1, -3.25}, {2, 4}}},
			{Label: `deg 4, "local"`, Points: []Point{{0, 7}}},
		},
		Notes: []string{"fixture note"},
	}
}

func TestTableGolden(t *testing.T) {
	got := renderFixture().Table()
	want := strings.Join([]string{
		"# fix — Render fixture",
		`x                        plain            sparse    deg 4, "local"`,
		"-1                      0.5000           -3.2500                 -",
		"0                       1.5000                 -            7.0000",
		"2                       2.5000            4.0000                 -",
		"note: fixture note",
		"",
	}, "\n")
	if got != want {
		t.Errorf("Table mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestMarkdownGolden(t *testing.T) {
	got := renderFixture().Markdown()
	want := strings.Join([]string{
		"### fix — Render fixture",
		"",
		`| x | plain | sparse | deg 4, "local" |`,
		"|---|---|---|---|",
		"| -1 | 0.5000 | -3.2500 | – |",
		"| 0 | 1.5000 | – | 7.0000 |",
		"| 2 | 2.5000 | 4.0000 | – |",
		"",
		"- fixture note",
		"",
	}, "\n")
	if got != want {
		t.Errorf("Markdown mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestCSVGolden(t *testing.T) {
	got := renderFixture().CSV()
	// RFC 4180: the comma- and quote-bearing label is quoted with inner
	// quotes doubled; plain fields stay unquoted; missing points simply
	// produce no row (long format has no holes to fill).
	want := strings.Join([]string{
		"series,x,y",
		"plain,-1,0.5",
		"plain,0,1.5",
		"plain,2,2.5",
		"sparse,-1,-3.25",
		"sparse,2,4",
		`"deg 4, ""local""",0,7`,
		"",
	}, "\n")
	if got != want {
		t.Errorf("CSV mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestLookupDistinguishesZeroFromMissing(t *testing.T) {
	s := Series{Label: "z", Points: []Point{{1, 0}}}
	if v, ok := s.Lookup(1); !ok || v != 0 {
		t.Errorf("Lookup(1) = %v, %v; want 0, true", v, ok)
	}
	if _, ok := s.Lookup(2); ok {
		t.Error("Lookup(2) reported a point that does not exist")
	}
}

// TestSweepDeterminism runs the same figures sequentially and at
// parallelism 4 and requires identical Results — the engine's collection
// by spec index makes output independent of completion order.
func TestSweepDeterminism(t *testing.T) {
	for _, id := range []string{"fig8", "headline"} {
		seq := qs()
		seq.Parallel = 1
		par := qs()
		par.Parallel = 4
		a, err := ByID(id, seq)
		if err != nil {
			t.Fatal(err)
		}
		b, err := ByID(id, par)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: parallel result differs from sequential:\nseq:\n%s\npar:\n%s",
				id, a.Table(), b.Table())
		}
		if a.Table() != b.Table() || a.CSV() != b.CSV() || a.Markdown() != b.Markdown() {
			t.Errorf("%s: rendered output differs between parallelism levels", id)
		}
	}
}

// TestSharedGraphStoreAcrossRuns runs figures with shared stores and
// checks the results are unchanged: cached graphs are the same graphs,
// and a shared n-body trajectory is the physics every run would
// integrate privately, whichever run (or concurrent runs) fills it.
func TestSharedGraphStoreAcrossRuns(t *testing.T) {
	plain := qs()
	shared := qs()
	shared.Parallel = 2
	shared.Graphs = expander.NewStore("")
	a := Fig9(plain)
	b := Fig9(shared)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("shared graph store changed the result:\nplain:\n%s\nshared:\n%s",
			a.Table(), b.Table())
	}

	private := qs()
	private.Trajectories = nil // a private trajectory per run
	private.Parallel = 4
	for _, fig := range []struct {
		id  string
		run func(Scale) *Result
	}{{"fig6c", Fig6c}, {"headline", Headline}, {"ablation-orbweights", AblationORBWeights}} {
		want := fig.run(private)
		for _, parallel := range []int{1, 4} {
			sc := qs()
			sc.Parallel = parallel
			sc.Trajectories = nbody.NewStore()
			if got := fig.run(sc); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: shared trajectory store at parallel %d changed the result:\nprivate:\n%s\nshared:\n%s",
					fig.id, parallel, want.Table(), got.Table())
			}
		}
	}
}
