package simtime

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestScheduleOrder(t *testing.T) {
	e := NewEnv()
	var got []int
	e.Schedule(30, func() { got = append(got, 3) })
	e.Schedule(10, func() { got = append(got, 1) })
	e.Schedule(20, func() { got = append(got, 2) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("Now = %v, want 30", e.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	e := NewEnv()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.Schedule(42, func() { got = append(got, i) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("got[%d] = %d, want %d (same-time events must run FIFO)", i, v, i)
		}
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEnv()
	e.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(5, func() {})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	e := NewEnv()
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	e.Schedule(-1, func() {})
}

func TestRunUntil(t *testing.T) {
	e := NewEnv()
	fired := make(map[Time]bool)
	for _, d := range []Duration{10, 20, 30, 40} {
		d := d
		e.Schedule(d, func() { fired[Time(d)] = true })
	}
	if err := e.RunUntil(25); err != nil {
		t.Fatal(err)
	}
	if !fired[10] || !fired[20] || fired[30] || fired[40] {
		t.Fatalf("fired = %v, want only <=25", fired)
	}
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", e.Pending())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired[30] || !fired[40] {
		t.Fatal("remaining events did not fire on Run")
	}
}

func TestProcSleep(t *testing.T) {
	e := NewEnv()
	var wokeAt Time
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(5 * Second)
		wokeAt = e.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if wokeAt != Time(5*Second) {
		t.Fatalf("woke at %v, want 5s", wokeAt)
	}
	if n := len(e.LiveProcs()); n != 0 {
		t.Fatalf("LiveProcs = %d, want 0", n)
	}
}

func TestProcInterleaving(t *testing.T) {
	e := NewEnv()
	var log []string
	mk := func(name string, step Duration) {
		e.Spawn(name, func(p *Proc) {
			for i := 0; i < 3; i++ {
				p.Sleep(step)
				log = append(log, fmt.Sprintf("%s@%d", name, e.Now()/Time(Millisecond)))
			}
		})
	}
	mk("a", 10*Millisecond)
	mk("b", 15*Millisecond)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// At t=30 both wake; b's wake event was scheduled earlier (at t=15 vs
	// t=20), so b resumes first under (time, seq) ordering.
	want := []string{"a@10", "b@15", "a@20", "b@30", "a@30", "b@45"}
	if len(log) != len(want) {
		t.Fatalf("log = %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("log = %v, want %v", log, want)
		}
	}
}

func TestEventWaitAndTrigger(t *testing.T) {
	e := NewEnv()
	ev := e.NewEvent()
	var got []any
	e.Spawn("w1", func(p *Proc) { got = append(got, p.Wait(ev)) })
	e.Spawn("w2", func(p *Proc) { got = append(got, p.Wait(ev)) })
	e.Schedule(7, func() { ev.Trigger("hello") })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "hello" || got[1] != "hello" {
		t.Fatalf("got = %v", got)
	}
	if !ev.Triggered() || ev.Value() != "hello" {
		t.Fatal("event state wrong after trigger")
	}
}

func TestEventWaitAfterTrigger(t *testing.T) {
	e := NewEnv()
	ev := e.NewEvent()
	ev.Trigger(42)
	var got any
	e.Spawn("late", func(p *Proc) { got = p.Wait(ev) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Fatalf("got = %v, want 42", got)
	}
}

func TestEventDoubleTriggerPanics(t *testing.T) {
	e := NewEnv()
	ev := e.NewEvent()
	ev.Trigger(nil)
	defer func() {
		if recover() == nil {
			t.Error("double trigger did not panic")
		}
	}()
	ev.Trigger(nil)
}

func TestEventSubscribe(t *testing.T) {
	e := NewEnv()
	ev := e.NewEvent()
	var calls []any
	ev.Subscribe(func(v any) { calls = append(calls, v) })
	e.Schedule(3, func() { ev.Trigger("x") })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	ev.Subscribe(func(v any) { calls = append(calls, v) }) // post-trigger subscribe
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(calls) != 2 || calls[0] != "x" || calls[1] != "x" {
		t.Fatalf("calls = %v", calls)
	}
}

// Killing a process parked in Wait must not let the later Trigger panic
// or resurrect it: the stale waiter's wake is a no-op, live waiters still
// wake, and the killed process's Done triggers.
func TestKillInWait(t *testing.T) {
	e := NewEnv()
	ev := e.NewEvent()
	var survivorGot any
	victim := e.Spawn("victim", func(p *Proc) {
		t.Errorf("killed proc woke with %v", p.Wait(ev))
	})
	e.Spawn("survivor", func(p *Proc) { survivorGot = p.Wait(ev) })
	victimDone := false
	victim.Done().Subscribe(func(any) { victimDone = true })
	e.Schedule(5, func() { victim.Kill() })
	e.Schedule(10, func() { ev.Trigger("signal") })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if survivorGot != "signal" {
		t.Fatalf("survivor got %v, want signal", survivorGot)
	}
	if !victimDone {
		t.Fatal("killed proc's Done did not trigger")
	}
	if n := len(e.LiveProcs()); n != 0 {
		t.Fatalf("LiveProcs = %v, want none", e.LiveProcs())
	}
}

// The engine's park/wake counters follow the documented semantics: every
// block is a park, every scheduled resumption a wake.
func TestParkWakeCounters(t *testing.T) {
	e := NewEnv()
	ev := e.NewEvent()
	e.Spawn("p", func(p *Proc) {
		p.Sleep(1) // park + wake (timer)
		p.Wait(ev) // park; the wake comes from Trigger
	})
	e.Schedule(5, func() { ev.Trigger(nil) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	st := e.EngineStats()
	if st.Parks != 2 || st.Wakes != 2 {
		t.Fatalf("parks/wakes = %d/%d, want 2/2", st.Parks, st.Wakes)
	}
}

// Park returns the value passed to WakeProc, and wakes are ordered by
// the same (time, seq) key as every other event: two wakes scheduled for
// one instant resume their procs in scheduling order.
func TestParkWakeValue(t *testing.T) {
	e := NewEnv()
	var got []string
	park := func(p *Proc) { got = append(got, fmt.Sprintf("%s<-%v@%d", p.Name(), p.Park(), e.Now())) }
	a := e.Spawn("a", park)
	b := e.Spawn("b", park)
	e.Schedule(5, func() {
		e.WakeProc(b, "first")
		e.WakeProc(a, "second")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := "b<-first@5,a<-second@5"
	if s := strings.Join(got, ","); s != want {
		t.Fatalf("wakes %q, want %q", s, want)
	}
}

// One proc chains every blocking primitive and sees the expected values
// and times, then finishes with Done triggered and no live procs left.
func TestProcPrimitiveChain(t *testing.T) {
	e := NewEnv()
	ev := e.NewEvent()
	var got []string
	note := func(s string) { got = append(got, fmt.Sprintf("%s@%d", s, e.Now())) }
	p := e.Spawn("chain", func(p *Proc) {
		note("start")
		p.Sleep(10)
		note("slept")
		note("parked:" + p.Park().(string))
		note("waited:" + p.Wait(ev).(string))
	})
	e.Schedule(20, func() { e.WakeProc(p, "item") })
	e.Schedule(30, func() { ev.Trigger("fired") })
	ended := false
	p.Done().Subscribe(func(any) { ended = true })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := "start@0,slept@10,parked:item@20,waited:fired@30"
	if s := strings.Join(got, ","); s != want {
		t.Fatalf("trace %q, want %q", s, want)
	}
	if !ended {
		t.Fatal("Done did not trigger after the body returned")
	}
	if n := len(e.LiveProcs()); n != 0 {
		t.Fatalf("%d live procs after the body returned", n)
	}
}

// The deadlock dump lists every blocked proc in spawn order with its
// block reason; a proc that recorded none shows its name only.
func TestDeadlockDump(t *testing.T) {
	e := NewEnv()
	e.Spawn("rank1", func(p *Proc) {
		p.SetBlockReason("recv", 3, 42)
		p.Park()
	})
	e.Spawn("rank0", func(p *Proc) {
		p.SetBlockReason("barrier", 0, 7)
		p.Wait(e.NewEvent())
	})
	e.Spawn("monitor", func(p *Proc) { p.Park() })
	e.Spawn("finished", func(p *Proc) { p.Sleep(5 * Microsecond) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	d := e.Deadlock()
	if d == nil {
		t.Fatal("no deadlock reported with three procs blocked")
	}
	want := "simtime: deadlock at t=t=0.000005s: 3 process(es) blocked forever:" +
		"\n  - rank1 (recv a=3 b=42)" +
		"\n  - rank0 (barrier a=0 b=7)" +
		"\n  - monitor"
	if got := d.Error(); got != want {
		t.Fatalf("dump:\n%s\nwant:\n%s", got, want)
	}
	e.KillAll()
	if d := e.Deadlock(); d != nil {
		t.Fatalf("deadlock after KillAll: %v", d)
	}
}

// Killing a proc before its start event runs suppresses its body, and
// Done still triggers.
func TestKillBeforeStart(t *testing.T) {
	e := NewEnv()
	var p *Proc
	e.At(e.Now(), func() { p.Kill() }) // scheduled before Spawn: runs first
	started := false
	p = e.Spawn("stillborn", func(*Proc) { started = true })
	done := false
	p.Done().Subscribe(func(any) { done = true })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if started {
		t.Fatal("body ran after a pre-start kill")
	}
	if !done {
		t.Fatal("Done did not trigger for a pre-start kill")
	}
	if n := len(e.LiveProcs()); n != 0 {
		t.Fatalf("LiveProcs = %v, want none", e.LiveProcs())
	}
}

// Kill is idempotent: killing a parked proc a second time, in the same
// event or a later one, neither panics nor triggers Done again.
func TestKillTwiceIsNoOp(t *testing.T) {
	e := NewEnv()
	p := e.Spawn("twice", func(p *Proc) { p.Park() })
	done := 0
	p.Done().Subscribe(func(any) { done++ })
	e.Schedule(1, func() {
		p.Kill()
		p.Kill()
	})
	e.Schedule(2, func() { p.Kill() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if done != 1 {
		t.Fatalf("Done triggered %d times, want 1", done)
	}
	if n := len(e.LiveProcs()); n != 0 {
		t.Fatalf("LiveProcs = %v, want none", e.LiveProcs())
	}
}

// Wait on events that have already fired returns their values at once:
// the proc neither parks nor lets simulated time pass.
func TestWaitOnFiredEventDoesNotPark(t *testing.T) {
	e := NewEnv()
	a, b := e.NewEvent(), e.NewEvent()
	a.Trigger(1)
	b.Trigger("early")
	var got []any
	var at Time
	e.Spawn("sync", func(p *Proc) {
		got = append(got, p.Wait(a), p.Wait(b))
		p.WaitAll(a, b)
		at = e.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 1 || got[1] != "early" {
		t.Fatalf("got %v, want [1 early]", got)
	}
	if at != 0 {
		t.Fatalf("returned at t=%d, want 0", at)
	}
	if st := e.EngineStats(); st.Parks != 0 || st.Wakes != 0 {
		t.Fatalf("parks/wakes = %d/%d, want 0/0", st.Parks, st.Wakes)
	}
}

// KillAll reaps procs blocked in Park and in Wait alike, interleaved, and
// their Done events trigger in spawn order.
func TestKillAllDoneOrderParkAndWait(t *testing.T) {
	e := NewEnv()
	never := e.NewEvent()
	var doneOrder []string
	spawn := func(name string, body func(*Proc)) {
		p := e.Spawn(name, body)
		p.Done().Subscribe(func(any) { doneOrder = append(doneOrder, name) })
	}
	spawn("park1", func(p *Proc) { p.Park() })
	spawn("wait1", func(p *Proc) { p.Wait(never) })
	spawn("park2", func(p *Proc) { p.Park() })
	spawn("wait2", func(p *Proc) { p.Wait(never) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := len(e.LiveProcs()); got != 4 {
		t.Fatalf("%d live procs before KillAll, want 4", got)
	}
	e.KillAll()
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := len(e.LiveProcs()); got != 0 {
		t.Fatalf("live procs after KillAll: %v", e.LiveProcs())
	}
	want := "park1,wait1,park2,wait2"
	if got := strings.Join(doneOrder, ","); got != want {
		t.Fatalf("done order %q, want %q", got, want)
	}
}

func TestProcDoneEvent(t *testing.T) {
	e := NewEnv()
	p1 := e.Spawn("worker", func(p *Proc) { p.Sleep(10) })
	var joinedAt Time
	e.Spawn("joiner", func(p *Proc) {
		p.Wait(p1.Done())
		joinedAt = e.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if joinedAt != 10 {
		t.Fatalf("joined at %v, want 10", joinedAt)
	}
}

func TestWaitAll(t *testing.T) {
	e := NewEnv()
	ev1, ev2 := e.NewEvent(), e.NewEvent()
	var at Time
	e.Spawn("w", func(p *Proc) {
		p.WaitAll(ev1, ev2)
		at = e.Now()
	})
	e.Schedule(5, func() { ev2.Trigger(nil) })
	e.Schedule(9, func() { ev1.Trigger(nil) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 9 {
		t.Fatalf("WaitAll completed at %v, want 9", at)
	}
}

func TestProcPanicPropagates(t *testing.T) {
	e := NewEnv()
	e.Spawn("bad", func(p *Proc) {
		p.Sleep(1)
		panic("boom")
	})
	err := e.Run()
	if err == nil {
		t.Fatal("Run did not report the process panic")
	}
	if e.Err() == nil {
		t.Fatal("Err did not retain the failure")
	}
}

func TestKillAllUnblocksParked(t *testing.T) {
	e := NewEnv()
	never := e.NewEvent()
	cleaned := 0
	for i := 0; i < 5; i++ {
		e.Spawn(fmt.Sprintf("blocked%d", i), func(p *Proc) {
			defer func() { cleaned++ }()
			if i%2 == 0 {
				p.Wait(never) // never triggered
			} else {
				p.Park() // never woken
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if n := len(e.LiveProcs()); n != 5 {
		t.Fatalf("LiveProcs = %d, want 5 blocked", n)
	}
	e.KillAll()
	if n := len(e.LiveProcs()); n != 0 {
		t.Fatalf("LiveProcs after KillAll = %d, want 0", n)
	}
	if cleaned != 5 {
		t.Fatalf("deferred cleanups ran %d times, want 5", cleaned)
	}
}

func TestKillAllUnstartedProc(t *testing.T) {
	e := NewEnv()
	ran := false
	e.Spawn("never", func(p *Proc) { ran = true })
	e.KillAll() // before Run: the start event must be suppressed
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Fatal("killed process body ran")
	}
}

func TestPeriodic(t *testing.T) {
	e := NewEnv()
	var times []Time
	e.Periodic(10, 20, func() bool {
		times = append(times, e.Now())
		return len(times) < 4
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{10, 30, 50, 70}
	if len(times) != len(want) {
		t.Fatalf("times = %v, want %v", times, want)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("times = %v, want %v", times, want)
		}
	}
}

func TestDurationConversions(t *testing.T) {
	if FromSeconds(1.5) != 1500*Millisecond {
		t.Fatalf("FromSeconds(1.5) = %v", FromSeconds(1.5))
	}
	if got := (2500 * Millisecond).Seconds(); got != 2.5 {
		t.Fatalf("Seconds = %v, want 2.5", got)
	}
	if got := Time(3 * Second).Seconds(); got != 3.0 {
		t.Fatalf("Time.Seconds = %v, want 3", got)
	}
}

// TestDeterminism runs a randomized process soup twice with the same seed
// and requires identical execution logs and step counts. Processes sleep,
// trigger a shared event and wait on it, so wake order is part of the log.
func TestDeterminism(t *testing.T) {
	run := func(seed int64) (string, uint64) {
		e := NewEnv()
		rng := rand.New(rand.NewSource(seed))
		var log string
		ev := e.NewEvent()
		for i := 0; i < 10; i++ {
			i := i
			e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				for j := 0; j < 10; j++ {
					p.Sleep(Duration(rng.Intn(100) + 1))
					log += fmt.Sprintf("%d.%d@%d;", i, j, e.Now())
					if j%3 == 0 {
						cur := ev
						ev = e.NewEvent()
						cur.Trigger(i)
					} else if rng.Intn(4) == 0 {
						log += fmt.Sprintf("%d<-%v@%d;", i, p.Wait(ev), e.Now())
					}
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		log += fmt.Sprint(e.LiveProcs())
		e.KillAll()
		return log, e.Steps()
	}
	log1, n1 := run(42)
	log2, n2 := run(42)
	if log1 != log2 || n1 != n2 {
		t.Fatal("two runs with the same seed diverged")
	}
}

// Property: for any sorted set of delays, events fire in non-decreasing
// time order and the clock ends at the max delay.
func TestQuickEventOrdering(t *testing.T) {
	f := func(raw []uint16) bool {
		e := NewEnv()
		var fired []Time
		maxT := Time(0)
		for _, r := range raw {
			d := Duration(r)
			if Time(d) > maxT {
				maxT = Time(d)
			}
			e.Schedule(d, func() { fired = append(fired, e.Now()) })
		}
		if err := e.Run(); err != nil {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(raw) == 0 || e.Now() == maxT
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// LiveProcs reports deadlocked processes in spawn order, not map order,
// so deadlock diagnostics are deterministic run to run.
func TestLiveProcsSpawnOrder(t *testing.T) {
	e := NewEnv()
	// Names chosen so lexical order differs from spawn order.
	for _, name := range []string{"zeta", "alpha", "mid", "beta"} {
		e.Spawn(name, func(p *Proc) { p.Park() }) // parks forever
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"zeta", "alpha", "mid", "beta"}
	for i := 0; i < 10; i++ { // map iteration must never leak through
		got := e.LiveProcs()
		if len(got) != len(want) {
			t.Fatalf("LiveProcs = %v, want %v", got, want)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("LiveProcs = %v, want %v", got, want)
			}
		}
	}
	e.KillAll()
}
