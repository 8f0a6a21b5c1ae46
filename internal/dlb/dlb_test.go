package dlb

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"ompsscluster/internal/simtime"
)

func newArb(cores int, lewi bool, owned ...int) (*NodeArbiter, []WorkerID) {
	a := NewNodeArbiter(0, cores, lewi)
	ids := make([]WorkerID, len(owned))
	for i := range owned {
		ids[i] = a.AddWorker()
	}
	a.SetOwned(owned)
	return a, ids
}

func TestOwnershipAccessors(t *testing.T) {
	a, ids := newArb(8, false, 6, 1, 1)
	if a.Cores() != 8 || a.NumWorkers() != 3 {
		t.Fatal("basic accessors wrong")
	}
	if a.Owned(ids[0]) != 6 || a.Owned(ids[2]) != 1 {
		t.Fatal("ownership wrong")
	}
	all := a.OwnedAll()
	if len(all) != 3 || all[0] != 6 {
		t.Fatalf("OwnedAll = %v", all)
	}
}

func TestSetOwnedValidation(t *testing.T) {
	a := NewNodeArbiter(0, 4, false)
	a.AddWorker()
	a.AddWorker()
	for _, bad := range [][]int{
		{3},       // wrong length
		{5, 0},    // sums above cores
		{1, 1},    // sums below cores
		{-1, 5},   // negative
		{2, 2, 0}, // wrong length
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetOwned(%v) did not panic", bad)
				}
			}()
			a.SetOwned(bad)
		}()
	}
	a.SetOwned([]int{3, 1})
}

func TestOwnerStartWithinOwnership(t *testing.T) {
	a, ids := newArb(4, false, 3, 1)
	for i := 0; i < 3; i++ {
		if !a.CanStartOwned(ids[0]) {
			t.Fatalf("owner blocked at %d/3 running", i)
		}
		a.Start(ids[0], 0)
	}
	if a.CanStartOwned(ids[0]) {
		t.Fatal("owner allowed beyond ownership")
	}
	if a.CanBorrow(ids[0]) {
		t.Fatal("borrow allowed without LeWI")
	}
	if !a.CanStartOwned(ids[1]) {
		t.Fatal("second worker blocked despite owning a free core")
	}
}

func TestLeWIBorrowAndBoundaryReclaim(t *testing.T) {
	a, ids := newArb(4, true, 2, 2)
	// Worker 1 idle: worker 0 runs 2 owned and borrows 2.
	now := simtime.Time(0)
	for i := 0; i < 2; i++ {
		a.Start(ids[0], now)
	}
	if !a.CanBorrow(ids[0]) {
		t.Fatal("borrow denied with idle cores")
	}
	a.Start(ids[0], now)
	a.Start(ids[0], now)
	if a.TotalRunning() != 4 || a.IdleCores() != 0 {
		t.Fatal("node should be saturated")
	}
	// Owner 1 now has work: cannot start (no physical core) — the
	// reclaim must wait for a borrower's task boundary.
	if a.CanStartOwned(ids[1]) {
		t.Fatal("reclaim should not preempt")
	}
	// A borrower task finishes: the owner can now start.
	a.Finish(ids[0], 100)
	if !a.CanStartOwned(ids[1]) {
		t.Fatal("owner cannot start after borrower boundary")
	}
	a.Start(ids[1], 100)
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDROMOwnershipShiftTakesEffectAtBoundaries(t *testing.T) {
	a, ids := newArb(4, false, 2, 2)
	a.Start(ids[0], 0)
	a.Start(ids[0], 0)
	// DROM shifts a core from worker 0 to worker 1 while 0 is running 2.
	a.SetOwned([]int{1, 3})
	// Worker 0 is now over-ownership (running 2 > owned 1) but keeps its
	// running tasks (non-preemptive).
	if a.Running(ids[0]) != 2 {
		t.Fatal("running tasks must not be preempted")
	}
	// Worker 0 may not start more; worker 1 may use the free cores.
	if a.CanStartOwned(ids[0]) {
		t.Fatal("over-ownership worker allowed to start")
	}
	if !a.CanStartOwned(ids[1]) {
		t.Fatal("new owner cannot start")
	}
	a.Start(ids[1], 0)
	a.Start(ids[1], 0)
	// Node is saturated (2+2); worker 1 still under ownership (2 < 3)
	// but must wait for worker 0's boundary.
	if a.CanStartOwned(ids[1]) {
		t.Fatal("no physical core free")
	}
	a.Finish(ids[0], 50)
	if !a.CanStartOwned(ids[1]) {
		t.Fatal("reclaim after boundary failed")
	}
}

func TestStartPanicsWhenOversubscribed(t *testing.T) {
	a, ids := newArb(1, true, 1)
	a.Start(ids[0], 0)
	defer func() {
		if recover() == nil {
			t.Error("oversubscription did not panic")
		}
	}()
	a.Start(ids[0], 0)
}

func TestFinishPanicsWhenIdle(t *testing.T) {
	a, ids := newArb(1, true, 1)
	defer func() {
		if recover() == nil {
			t.Error("finish on idle worker did not panic")
		}
	}()
	a.Finish(ids[0], 0)
}

func TestBusyIntegralAndAverages(t *testing.T) {
	a, ids := newArb(4, false, 4)
	sec := simtime.Time(simtime.Second)
	a.Start(ids[0], 0)      // 1 core from t=0
	a.Start(ids[0], sec)    // 2 cores from t=1s
	a.Finish(ids[0], 3*sec) // 1 core from t=3s
	// Integral at 4s: 1*1 + 2*2 + 1*1 = 6 core-seconds.
	got := a.BusyIntegral(ids[0], 4*sec) / float64(simtime.Second)
	if math.Abs(got-6) > 1e-9 {
		t.Fatalf("busy integral = %v core-s, want 6", got)
	}
	// Average over [0, 4s] = 1.5 busy cores.
	avg := a.TakeBusyAverage(ids[0], 4*sec)
	if math.Abs(avg-1.5) > 1e-9 {
		t.Fatalf("busy average = %v, want 1.5", avg)
	}
	// The window restarted: over (4s, 6s] with 1 running core, avg = 1.
	avg = a.TakeBusyAverage(ids[0], 6*sec)
	if math.Abs(avg-1.0) > 1e-9 {
		t.Fatalf("second window average = %v, want 1.0", avg)
	}
}

func TestPeekDoesNotResetWindow(t *testing.T) {
	a, ids := newArb(2, false, 2)
	sec := simtime.Time(simtime.Second)
	a.Start(ids[0], 0)
	p1 := a.PeekBusyAverage(ids[0], 2*sec)
	p2 := a.TakeBusyAverage(ids[0], 2*sec)
	if math.Abs(p1-p2) > 1e-9 || math.Abs(p1-1.0) > 1e-9 {
		t.Fatalf("peek = %v, take = %v, want both 1.0", p1, p2)
	}
}

func TestNodeBusyAverage(t *testing.T) {
	a, ids := newArb(4, false, 2, 2)
	sec := simtime.Time(simtime.Second)
	a.Start(ids[0], 0)
	a.Start(ids[1], 0)
	a.Start(ids[1], 0)
	got := 0.0
	for _, id := range ids {
		got += a.PeekBusyAverage(id, 2*sec)
	}
	if math.Abs(got-3.0) > 1e-9 {
		t.Fatalf("node busy average = %v, want 3.0", got)
	}
}

func TestTALPReport(t *testing.T) {
	talp := NewTALP()
	sec := float64(simtime.Second)
	talp.StartApp(0, 0)
	talp.StartApp(1, 0)
	talp.AddExec(talp.Ref(0, 0), 0, simtime.Time(8*simtime.Second), 8*sec, 0, false) // 8 core-seconds useful
	talp.AddMPISpan(0, 0, simtime.Time(simtime.Second))
	talp.AddExec(talp.Ref(1, 0), 0, simtime.Time(2*simtime.Second), 2*sec, 0, false)
	rep := talp.Snapshot(simtime.Time(4*simtime.Second), map[int]float64{0: 4, 1: 4})
	if len(rep.Appranks) != 2 {
		t.Fatalf("report has %d appranks", len(rep.Appranks))
	}
	// Apprank 0: 8 core-s useful over 4s x 4 cores = 50%.
	if math.Abs(rep.Appranks[0].Efficiency-0.5) > 1e-9 {
		t.Fatalf("efficiency = %v, want 0.5", rep.Appranks[0].Efficiency)
	}
	if rep.Appranks[0].MPITime != simtime.Second {
		t.Fatalf("MPI time = %v, want 1s", rep.Appranks[0].MPITime)
	}
	if math.Abs(rep.Appranks[1].Efficiency-0.125) > 1e-9 {
		t.Fatalf("efficiency = %v, want 0.125", rep.Appranks[1].Efficiency)
	}
	s := rep.String()
	if !strings.Contains(s, "50.0%") || !strings.Contains(s, "apprank") {
		t.Fatalf("report rendering wrong:\n%s", s)
	}
}

// Property: under random start/finish/SetOwned storms, invariants hold and
// the busy integral is non-decreasing.
func TestQuickArbiterInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cores := 2 + rng.Intn(7)
		nw := 1 + rng.Intn(4)
		a := NewNodeArbiter(0, cores, rng.Intn(2) == 0)
		ids := make([]WorkerID, nw)
		for i := range ids {
			ids[i] = a.AddWorker()
		}
		owned := make([]int, nw)
		left := cores
		for i := 0; i < nw-1; i++ {
			owned[i] = rng.Intn(left + 1)
			left -= owned[i]
		}
		owned[nw-1] = left
		a.SetOwned(owned)
		now := simtime.Time(0)
		lastIntegral := 0.0
		for step := 0; step < 200; step++ {
			now += simtime.Time(rng.Intn(1000) + 1)
			w := ids[rng.Intn(nw)]
			switch rng.Intn(3) {
			case 0:
				if a.CanStartOwned(w) || a.CanBorrow(w) {
					a.Start(w, now)
				}
			case 1:
				if a.Running(w) > 0 {
					a.Finish(w, now)
				}
			case 2:
				// Random DROM shuffle.
				left := cores
				for i := 0; i < nw-1; i++ {
					owned[i] = rng.Intn(left + 1)
					left -= owned[i]
				}
				owned[nw-1] = left
				a.SetOwned(owned)
			}
			if a.CheckInvariants() != nil {
				return false
			}
			total := 0.0
			for _, id := range ids {
				total += a.BusyIntegral(id, now)
			}
			if total < lastIntegral-1e-6 {
				return false
			}
			lastIntegral = total
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
