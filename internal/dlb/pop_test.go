package dlb

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"ompsscluster/internal/simtime"
)

const sec = 1e9 // ns per second, matching the POP input unit

func TestComputePOPIdentity(t *testing.T) {
	in := POPInput{
		Elapsed: 100 * sec,
		Appranks: []POPEntityInput{
			{ID: 0, Useful: 50 * sec, Busy: 60 * sec, Capacity: 100 * sec},
			{ID: 1, Useful: 90 * sec, Busy: 95 * sec, Capacity: 100 * sec, Borrowed: 5 * sec},
			{ID: 2, Useful: 30 * sec, Busy: 40 * sec, Capacity: 100 * sec},
		},
		Nodes: []POPEntityInput{
			{ID: 0, Useful: 170 * sec, Busy: 195 * sec, Capacity: 300 * sec, Borrowed: 5 * sec},
		},
	}
	r := ComputePOP(in)

	wantPE := (0.5 + 0.9 + 0.3) / 3
	if math.Abs(r.ApprankPOP.PE-wantPE) > 1e-12 {
		t.Errorf("apprank PE = %v, want %v", r.ApprankPOP.PE, wantPE)
	}
	if math.Abs(r.ApprankPOP.CommE-0.9) > 1e-12 {
		t.Errorf("apprank CommE = %v, want 0.9", r.ApprankPOP.CommE)
	}
	// LB is defined as PE/CommE, so the decomposition holds exactly.
	for _, s := range []POPSummary{r.ApprankPOP, r.NodePOP} {
		if got := s.LB * s.CommE; math.Abs(got-s.PE) > 1e-15 {
			t.Errorf("PE = %v but LB x CommE = %v", s.PE, got)
		}
		if s.LB < 0 || s.LB > 1+1e-12 {
			t.Errorf("LB out of range: %v", s.LB)
		}
	}
	// LentUtil: idle = capacity - busy per entity: 40 + 5 + 60 = 105 idle
	// core-s, 5 borrowed, so borrowers filled 5 of the 110 owner-unused.
	wantLent := 5.0 / 110.0
	if math.Abs(r.ApprankPOP.LentUtil-wantLent) > 1e-12 {
		t.Errorf("LentUtil = %v, want %v", r.ApprankPOP.LentUtil, wantLent)
	}
	if got := r.Appranks[1].Idle; math.Abs(got-5) > 1e-9 {
		t.Errorf("apprank 1 idle = %v core-s, want 5", got)
	}
}

func TestComputePOPIdleClamp(t *testing.T) {
	// Owned-busy above capacity (e.g. a mid-window DROM shrink) must not
	// produce negative idle.
	r := ComputePOP(POPInput{
		Elapsed:  10 * sec,
		Appranks: []POPEntityInput{{ID: 0, Useful: 11 * sec, Busy: 12 * sec, Capacity: 10 * sec}},
	})
	if r.Appranks[0].Idle != 0 {
		t.Errorf("idle = %v, want clamp to 0", r.Appranks[0].Idle)
	}
}

func TestComputePOPEmpty(t *testing.T) {
	r := ComputePOP(POPInput{Elapsed: 10 * sec, Window: 1 * sec})
	if r.ApprankPOP != (POPSummary{}) || r.NodePOP != (POPSummary{}) {
		t.Errorf("empty input produced nonzero summaries: %+v %+v", r.ApprankPOP, r.NodePOP)
	}
	// Zero-capacity entities must not divide by zero.
	r = ComputePOP(POPInput{
		Elapsed:  0,
		Appranks: []POPEntityInput{{ID: 0}},
		Nodes:    []POPEntityInput{{ID: 0}},
	})
	if r.Appranks[0].Utilisation != 0 || r.Nodes[0].AvgCores != 0 {
		t.Errorf("zero-capacity entity: %+v", r.Appranks[0])
	}
	if len(r.Windows) != 0 {
		t.Errorf("zero elapsed grew %d windows", len(r.Windows))
	}
}

func TestComputePOPWindows(t *testing.T) {
	in := POPInput{
		Elapsed: 25 * sec,
		Window:  10 * sec,
		Nodes: []POPEntityInput{
			// avgCores = 2: 50 capacity core-s over 25 s.
			{ID: 0, Capacity: 50 * sec, WinUseful: []float64{20 * sec, 10 * sec, 5 * sec}},
			{ID: 1, Capacity: 50 * sec, WinUseful: []float64{10 * sec}},
		},
	}
	r := ComputePOP(in)
	if len(r.Windows) != 3 {
		t.Fatalf("got %d windows, want 3", len(r.Windows))
	}
	// Window 0: full width 10 s, node utilisations 20/(2*10)=1.0 and 0.5.
	w := r.Windows[0]
	if math.Abs(w.NodePE[0]-1.0) > 1e-12 || math.Abs(w.NodePE[1]-0.5) > 1e-12 {
		t.Errorf("window 0 node PE = %v", w.NodePE)
	}
	if math.Abs(w.PE-0.75) > 1e-12 || math.Abs(w.CommE-1.0) > 1e-12 {
		t.Errorf("window 0 PE/CommE = %v/%v", w.PE, w.CommE)
	}
	// Window 2 is truncated at the run end: width 5 s, so node 0 has
	// 5/(2*5) = 0.5; node 1's ragged series has ended.
	w = r.Windows[2]
	if math.Abs(w.End-25) > 1e-12 {
		t.Errorf("window 2 end = %v s, want 25", w.End)
	}
	if math.Abs(w.NodePE[0]-0.5) > 1e-12 || w.NodePE[1] != 0 {
		t.Errorf("window 2 node PE = %v", w.NodePE)
	}
	for _, w := range r.Windows {
		if w.CommE > 0 && math.Abs(w.LB*w.CommE-w.PE) > 1e-15 {
			t.Errorf("window [%v,%v): PE %v != LB x CommE %v", w.Start, w.End, w.PE, w.LB*w.CommE)
		}
	}
}

func TestPOPWriteJSONDeterministic(t *testing.T) {
	in := POPInput{
		Elapsed: 25 * sec,
		Window:  10 * sec,
		Appranks: []POPEntityInput{
			{ID: 0, Useful: 30 * sec, Busy: 35 * sec, Capacity: 50 * sec, Tasks: 7, MPIOps: 3, DeclaredWork: 29 * sec},
			{ID: 1, Useful: 10 * sec, Busy: 12 * sec, Capacity: 50 * sec, Borrowed: 2 * sec, Tasks: 4},
		},
		Nodes: []POPEntityInput{
			{ID: 0, Useful: 40 * sec, Busy: 47 * sec, Capacity: 100 * sec, Borrowed: 2 * sec,
				WinUseful: []float64{20 * sec, 15 * sec, 5 * sec}},
		},
	}
	var a, b bytes.Buffer
	if err := ComputePOP(in).WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := ComputePOP(in).WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two renders of the same input differ")
	}
	s := a.String()
	for _, key := range []string{
		`"elapsed_seconds"`, `"window_seconds"`, `"appranks"`, `"nodes"`,
		`"apprank_pop"`, `"node_pop"`, `"windows"`, `"useful_core_s"`,
		`"borrowed_core_s"`, `"lent_utilisation"`, `"node_pe"`, `"declared_work_s"`,
		`"mpi_ops"`,
	} {
		if !strings.Contains(s, key) {
			t.Errorf("JSON missing key %s:\n%s", key, s)
		}
	}
	if strings.Count(s, `"start_s"`) != 3 {
		t.Errorf("want 3 windows in JSON:\n%s", s)
	}
}

func TestAddWindowedSplit(t *testing.T) {
	// Span [5, 25) over 10-wide windows: overlap 5/10/5 of span 20.
	wins := addWindowed(nil, 10, 5, 25, 100)
	want := []float64{25, 50, 25}
	if len(wins) != len(want) {
		t.Fatalf("got %v, want %v", wins, want)
	}
	var sum float64
	for i := range want {
		if math.Abs(wins[i]-want[i]) > 1e-9 {
			t.Errorf("window %d = %v, want %v", i, wins[i], want[i])
		}
		sum += wins[i]
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Errorf("split does not conserve the amount: %v", sum)
	}
}

func TestAddWindowedBoundary(t *testing.T) {
	// [start, end) half-open: a span ending exactly on a boundary stays
	// entirely below it.
	wins := addWindowed(nil, 10, 0, 10, 40)
	if len(wins) != 1 || wins[0] != 40 {
		t.Errorf("boundary span: got %v, want [40]", wins)
	}
	wins = addWindowed(wins, 10, 10, 20, 7)
	if len(wins) != 2 || wins[1] != 7 {
		t.Errorf("second window: got %v", wins)
	}
}

func TestAddWindowedZeroSpan(t *testing.T) {
	wins := addWindowed(nil, 10, 30, 30, 7)
	if len(wins) != 4 || wins[3] != 7 {
		t.Errorf("zero-length span: got %v, want it attributed to window 3", wins)
	}
}

func TestAddExecWindowedConserves(t *testing.T) {
	talp := NewTALP()
	talp.Preallocate([]int{0}, 2)
	talp.SetWindow(10)
	ref := talp.Ref(0, 1)
	talp.AddExec(ref, 5, 25, 100, 4, false)
	talp.AddExec(ref, 20, 30, 50, 2, true)
	var sum float64
	for _, v := range talp.WindowUseful(0, 1) {
		sum += v
	}
	c := talp.Cell(0, 1)
	if math.Abs(sum-c.Useful) > 1e-9 {
		t.Errorf("windowed useful %v != cell useful %v", sum, c.Useful)
	}
	if c.Borrowed != 52 {
		t.Errorf("borrowed = %v, want 52", c.Borrowed)
	}
}

// TestAddExecZeroAlloc pins the accounting hot path: with windows off
// (the default), reporting a task execution must not allocate.
func TestAddExecZeroAlloc(t *testing.T) {
	talp := NewTALP()
	talp.Preallocate([]int{0, 1}, 4)
	ref := talp.Ref(1, 3)
	if allocs := testing.AllocsPerRun(200, func() {
		talp.AddExec(ref, 0, 10, 8, 1, false)
	}); allocs != 0 {
		t.Errorf("AddExec allocates %v objects/op, want 0", allocs)
	}
}

func BenchmarkAddExec(b *testing.B) {
	talp := NewTALP()
	talp.Preallocate([]int{0, 1, 2, 3}, 4)
	var refs [4]CellRef
	for i := range refs {
		refs[i] = talp.Ref(i, i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		talp.AddExec(refs[i&3], simtime.Time(i), simtime.Time(i+10), 8, 1, i&1 == 0)
	}
}
