package simtime

import "testing"

// The engine's steady-state hot path must not allocate: the heap is a
// value slice, the same-time ring reuses its backing array, and the batch
// buffer is retained between RunUntil calls. This pins the allocs-per-
// event budget so a regression (e.g. reintroducing a pointer heap) fails
// loudly instead of just slowing sweeps down.
func TestAllocsPerEvent(t *testing.T) {
	e := NewEnv()
	fn := func() {}
	const batch = 512
	warm := func() {
		for i := 0; i < batch; i++ {
			if i%4 == 0 {
				e.Schedule(0, fn) // same-time ring
			} else {
				e.Schedule(Duration(i%97+1), fn) // heap
			}
		}
	}
	// Grow the internal buffers once before measuring.
	warm()
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	var runErr error
	allocs := testing.AllocsPerRun(100, func() {
		warm()
		if err := e.Run(); err != nil {
			runErr = err
		}
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	if per := allocs / batch; per > 0.05 {
		t.Errorf("allocs per event = %.3f (%.0f per %d events), want 0", per, allocs, batch)
	}
}

// A goroutine-proc park/wake round trip must not allocate: the resume
// trampoline is bound once at spawn and the wake value is staged in a
// reusable slot, so waking is just two scheduler handoffs. This pins the
// budget at zero so a per-wake closure can never sneak back in.
func TestProcParkWakeAllocs(t *testing.T) {
	e := NewEnv()
	p := e.Spawn("parker", func(p *Proc) {
		for {
			p.Park()
		}
	})
	defer e.KillAll()
	round := func() {
		e.WakeProc(p, nil)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	// Warm the scheduler buffers and reach the steady state.
	for i := 0; i < 16; i++ {
		round()
	}
	if allocs := testing.AllocsPerRun(100, round); allocs > 0 {
		t.Errorf("allocs per park/wake round = %.2f, want 0", allocs)
	}
}

// Events popped from the heap at time T must still precede same-time ring
// entries scheduled later: FIFO order among equal-time events is by
// scheduling sequence, regardless of which structure holds them. Here A
// and B sit in the heap for t=10; A runs first and schedules C at the
// current time (the ring fast path). B was scheduled before C, so the
// order must be A, B, C even though C lives in the "faster" queue.
func TestNowQueueHeapInterleave(t *testing.T) {
	e := NewEnv()
	var got []string
	e.Schedule(10, func() {
		got = append(got, "A")
		e.Schedule(0, func() { got = append(got, "C") })
	})
	e.Schedule(10, func() { got = append(got, "B") })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"A", "B", "C"}
	if len(got) != len(want) {
		t.Fatalf("ran %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ran %v, want %v", got, want)
		}
	}
}

// KillAll terminates processes in spawn order, and processes spawned
// during teardown (here: from a dying process's defer) are killed too
// rather than leaking or hanging the loop.
func TestKillAllSpawnOrder(t *testing.T) {
	e := NewEnv()
	var order []string
	park := func(name string) func(*Proc) {
		return func(p *Proc) {
			defer func() { order = append(order, name) }()
			p.Park()
		}
	}
	e.Spawn("third", park("third"))
	e.Spawn("first", func(p *Proc) {
		defer func() {
			order = append(order, "first")
			// Teardown spawns a straggler; KillAll must reap it too.
			e.Spawn("straggler", park("straggler"))
		}()
		p.Park()
	})
	e.Spawn("second", park("second"))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	e.KillAll()
	if len(e.LiveProcs()) != 0 {
		t.Fatalf("live procs after KillAll: %v", e.LiveProcs())
	}
	// Spawn order, then the straggler (it never parked, so its body never
	// ran and its defer never fired — it must simply be gone).
	want := []string{"third", "first", "second"}
	if len(order) != len(want) {
		t.Fatalf("kill order %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("kill order %v, want %v", order, want)
		}
	}
}
