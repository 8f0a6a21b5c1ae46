package simtime

import (
	"testing"
	"time"
)

// BenchmarkEngineHotPath models the engine's dominant workload: task
// completion cascades that schedule follow-up events at the current
// timestamp, mixed with a minority of timer-like events in the future.
// It reports events/sec of host time, the engine's raw throughput; the
// lbbench harness measures it end to end as simtime.events_per_host_s.
func BenchmarkEngineHotPath(b *testing.B) {
	b.ReportAllocs()
	e := NewEnv()
	n := 0
	var cascade func()
	cascade = func() {
		n++
		if n >= b.N {
			return
		}
		// 7 of 8 events fire at the current time (completion cascades);
		// the rest are future timers that go through the heap.
		if n%8 == 0 {
			e.Schedule(Duration(n%97+1), cascade)
		} else {
			e.Schedule(0, cascade)
		}
	}
	// Seed a few independent cascades so the heap is never trivial.
	for i := 0; i < 4 && i < b.N; i++ {
		e.Schedule(Duration(i), cascade)
	}
	b.ResetTimer()
	start := time.Now()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	host := time.Since(start).Seconds()
	if host > 0 {
		b.ReportMetric(float64(n)/host, "events/sec")
	}
}

// BenchmarkScheduleAndRun measures raw callback-event throughput.
func BenchmarkScheduleAndRun(b *testing.B) {
	e := NewEnv()
	for i := 0; i < b.N; i++ {
		e.Schedule(Duration(i%1000), func() {})
	}
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkProcContextSwitch measures the process handshake cost.
func BenchmarkProcContextSwitch(b *testing.B) {
	e := NewEnv()
	e.Spawn("p", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkProcParkWake measures one goroutine-proc park/wake round trip:
// two channel handoffs plus the pre-bound resume event. The CI perf smoke
// fails if this reports any allocations (the resume closure is bound once
// at spawn, not per wake).
func BenchmarkProcParkWake(b *testing.B) {
	b.ReportAllocs()
	e := NewEnv()
	p := e.Spawn("parker", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Park()
		}
	})
	e.Spawn("waker", func(w *Proc) {
		for i := 0; i < b.N; i++ {
			e.WakeProc(p, nil)
			w.Sleep(1)
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkCProcParkWake measures the continuation-proc equivalent: a
// ParkThen/wake cycle that stays on the event-loop goroutine with zero
// channel handoffs. Also pinned to 0 allocs/op by the CI perf smoke.
func BenchmarkCProcParkWake(b *testing.B) {
	b.ReportAllocs()
	e := NewEnv()
	var cp *CProc
	n := 0
	var park func(any)
	park = func(any) {
		if n < b.N {
			cp.ParkThen(park)
			return
		}
		cp.End()
	}
	cp = e.SpawnC("parker", func(cp *CProc) { cp.ParkThen(park) })
	e.Spawn("waker", func(w *Proc) {
		for ; n < b.N; n++ {
			e.WakeCProc(cp, nil)
			w.Sleep(1)
		}
		e.WakeCProc(cp, nil) // release the final park so End runs
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkQueuePingPong measures two processes exchanging items.
func BenchmarkQueuePingPong(b *testing.B) {
	e := NewEnv()
	q1, q2 := e.NewQueue(), e.NewQueue()
	e.Spawn("a", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			q1.Push(i)
			q2.Pop(p)
		}
	})
	e.Spawn("b", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			q1.Pop(p)
			q2.Push(i)
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}
