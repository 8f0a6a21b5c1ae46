package simtime

import (
	"sync/atomic"
	"time"
)

// EngineStats are one environment's event-engine counters. All values are
// deterministic functions of the simulated program: two runs of the same
// program report identical stats.
type EngineStats struct {
	// Events is the number of events executed (same as Steps).
	Events uint64
	// FastPath counts events that ran through the same-timestamp FIFO,
	// bypassing the heap.
	FastPath uint64
	// HeapPushes counts events that went through the future-event heap.
	HeapPushes uint64
	// Parks counts process blocks: Proc.Park, Wait on an untriggered
	// event, and Sleep.
	Parks uint64
	// Wakes counts scheduled process resumptions (WakeProc, Event
	// triggers reaching waiters, sleep timers).
	Wakes uint64
	// PeakGoroutines is the maximum number of process goroutines running
	// at once, a gauge of the Go scheduler pressure a run exerts.
	PeakGoroutines uint64
}

// EngineStats returns the environment's counters so far.
func (e *Env) EngineStats() EngineStats {
	return EngineStats{
		Events:         e.nstep,
		FastPath:       e.nfast,
		HeapPushes:     e.npush,
		Parks:          e.npark,
		Wakes:          e.nwake,
		PeakGoroutines: uint64(e.peakGoro),
	}
}

// RunTotals aggregates engine counters and host execution time over a set
// of simulator runs. The counters are deterministic; Host and the derived
// EventsPerSec depend on the hardware and are reported separately from
// experiment results.
type RunTotals struct {
	Runs       uint64
	Events     uint64
	FastPath   uint64
	HeapPushes uint64
	Parks      uint64
	Wakes      uint64
	// PeakGoroutines is the maximum goroutine-backed process count any
	// single run reached — a monotonic gauge, not a sum.
	PeakGoroutines uint64
	// RegistryHiWater is the maximum dependency-registry interval count
	// observed in any single run — a monotonic gauge, not a sum.
	RegistryHiWater uint64
	Host            time.Duration
}

// EventsPerSec reports engine throughput in events per second of host
// time, or 0 if no host time was recorded.
func (t RunTotals) EventsPerSec() float64 {
	if t.Host <= 0 {
		return 0
	}
	return float64(t.Events) / t.Host.Seconds()
}

// FastPathFraction reports the fraction of events that bypassed the heap.
func (t RunTotals) FastPathFraction() float64 {
	if t.Events == 0 {
		return 0
	}
	return float64(t.FastPath) / float64(t.Events)
}

// Sub returns the totals accumulated since the snapshot prev. The
// high-water gauges are not differenced: the later (larger) snapshot
// values carry over, as gauges only ever grow.
func (t RunTotals) Sub(prev RunTotals) RunTotals {
	return RunTotals{
		Runs:            t.Runs - prev.Runs,
		Events:          t.Events - prev.Events,
		FastPath:        t.FastPath - prev.FastPath,
		HeapPushes:      t.HeapPushes - prev.HeapPushes,
		Parks:           t.Parks - prev.Parks,
		Wakes:           t.Wakes - prev.Wakes,
		PeakGoroutines:  t.PeakGoroutines,
		RegistryHiWater: t.RegistryHiWater,
		Host:            t.Host - prev.Host,
	}
}

// StatsCollector accumulates RunTotals across simulator runs. It is safe
// for concurrent use, so one collector can be shared by every run of a
// parallel sweep.
type StatsCollector struct {
	runs       atomic.Uint64
	events     atomic.Uint64
	fastPath   atomic.Uint64
	heapPushes atomic.Uint64
	parks      atomic.Uint64
	wakes      atomic.Uint64
	peakGoro   atomic.Uint64
	regHiWater atomic.Uint64
	hostNS     atomic.Int64
}

// NewStatsCollector returns an empty collector.
func NewStatsCollector() *StatsCollector { return &StatsCollector{} }

// Record adds one run's engine counters and host execution time. The
// per-run peak-goroutine gauge folds into the collector's maximum.
func (c *StatsCollector) Record(st EngineStats, host time.Duration) {
	if c == nil {
		return
	}
	c.runs.Add(1)
	c.events.Add(st.Events)
	c.fastPath.Add(st.FastPath)
	c.heapPushes.Add(st.HeapPushes)
	c.parks.Add(st.Parks)
	c.wakes.Add(st.Wakes)
	foldMax(&c.peakGoro, st.PeakGoroutines)
	c.hostNS.Add(host.Nanoseconds())
}

// RecordRegistryHiWater folds one run's registry interval high-water
// mark into the collector's maximum.
func (c *StatsCollector) RecordRegistryHiWater(n uint64) {
	if c == nil {
		return
	}
	foldMax(&c.regHiWater, n)
}

// foldMax raises gauge to n if larger (CAS loop; order-independent, so
// parallel sweeps report the same value as sequential ones).
func foldMax(gauge *atomic.Uint64, n uint64) {
	for {
		cur := gauge.Load()
		if n <= cur || gauge.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Totals returns a snapshot of the accumulated totals.
func (c *StatsCollector) Totals() RunTotals {
	if c == nil {
		return RunTotals{}
	}
	return RunTotals{
		Runs:            c.runs.Load(),
		Events:          c.events.Load(),
		FastPath:        c.fastPath.Load(),
		HeapPushes:      c.heapPushes.Load(),
		Parks:           c.parks.Load(),
		Wakes:           c.wakes.Load(),
		PeakGoroutines:  c.peakGoro.Load(),
		RegistryHiWater: c.regHiWater.Load(),
		Host:            time.Duration(c.hostNS.Load()),
	}
}
