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

// BenchmarkHeapHold is the classic hold model for the future-event heap:
// 1500 pending timers (the heap size the Figure 8 sweep holds at 64
// nodes), each firing and rescheduling itself a pseudo-random delay
// ahead, so every op is one heap pop plus one push at steady size.
func BenchmarkHeapHold(b *testing.B) {
	b.ReportAllocs()
	e := NewEnv()
	const pending = 1500
	x := uint64(88172645463325252)
	n := 0
	var hold func()
	hold = func() {
		n++
		if n > b.N {
			return
		}
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		e.Schedule(Duration(1+x%100000), hold)
	}
	for i := 0; i < pending; i++ {
		e.Schedule(Duration(1+i*67%100000), hold)
	}
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}
