// Package simtime implements a deterministic discrete-event simulation
// engine with virtual time.
//
// The engine provides two complementary execution styles:
//
//   - Callback events: functions scheduled at a virtual time with
//     Env.Schedule or Env.At. These are the building block for event-driven
//     state machines such as the task runtime.
//
//   - Goroutine processes: goroutines created with Env.Spawn that block in
//     virtual time (Proc.Sleep, Proc.Wait, Proc.Park). Exactly one process
//     runs at any moment; the engine and the running process hand control
//     back and forth over channels, so no locking is needed on simulation
//     state. Processes make it natural to write SPMD rank programs that
//     call blocking message-passing operations.
//
// Determinism: events are ordered by (time, insertion sequence), so two
// runs of the same program observe identical interleavings.
//
// The scheduler keeps two structures. Events in the future live in a
// value-based binary min-heap ordered by (time, sequence); storing items
// by value means steady-state scheduling performs no per-event
// allocation. Events scheduled at exactly the current time — the dominant
// case, produced by task-completion cascades, process wake-ups and
// message deliveries — go to a FIFO ring (the "now queue") and bypass the
// heap entirely. Because sequence numbers increase monotonically, the
// ring is always sorted and the next event is simply whichever of the
// ring head and heap root has the smaller (time, sequence) key.
package simtime

import (
	"fmt"
	"sort"
)

// Time is an absolute virtual time in nanoseconds since the start of the
// simulation.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Common durations, mirroring package time.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Forever is a sentinel meaning "run until the event queue drains".
const Forever Time = 1<<63 - 1

// Seconds reports d as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Seconds reports t as a floating-point number of seconds since the start
// of the simulation.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// FromSeconds converts a floating-point number of seconds to a Duration.
func FromSeconds(s float64) Duration { return Duration(s * float64(Second)) }

func (d Duration) String() string {
	return fmt.Sprintf("%.6fs", d.Seconds())
}

func (t Time) String() string {
	return fmt.Sprintf("t=%.6fs", t.Seconds())
}

// item is a scheduled callback. Items are stored by value in both the
// heap and the now queue, so scheduling allocates nothing once the
// backing slices have grown to the simulation's working set.
type item struct {
	t   Time
	seq uint64
	fn  func()
}

// before reports whether a precedes b in (time, sequence) order.
func (a item) before(b item) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

// Env is a discrete-event simulation environment. It is not safe for
// concurrent use from multiple goroutines except through the process
// handshake protocol (see Proc).
type Env struct {
	now Time
	seq uint64

	pq []item // future events: value min-heap by (t, seq)

	// nowQ is the same-timestamp FIFO ring: events scheduled at exactly
	// the current time, in sequence order. Time cannot advance while it
	// is non-empty, so every entry satisfies t == now.
	nowQ    []item
	nowHead int

	// batch is a reusable buffer for popping all heap events that share
	// the minimum timestamp in one go.
	batch []item

	yield chan struct{}
	procs map[*Proc]struct{}
	fail  error

	nstep uint64 // events executed
	nfast uint64 // events executed through the now queue
	npush uint64 // events that went through the heap

	npark    uint64 // process blocks (Park, Sleep)
	nwake    uint64 // scheduled process resumptions
	ngoro    int    // goroutine-backed processes currently running
	peakGoro int    // high-water mark of ngoro
}

// NewEnv returns a fresh simulation environment at time zero.
func NewEnv() *Env {
	return &Env{
		yield: make(chan struct{}),
		procs: make(map[*Proc]struct{}),
	}
}

// Now returns the current virtual time.
func (e *Env) Now() Time { return e.now }

// Steps returns the number of events executed so far. Useful for
// determinism tests and run statistics.
func (e *Env) Steps() uint64 { return e.nstep }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: a discrete-event simulation cannot rewind.
func (e *Env) At(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("simtime: scheduling at %v before now %v", t, e.now))
	}
	e.seq++
	if t == e.now {
		e.nowQ = append(e.nowQ, item{t: t, seq: e.seq, fn: fn})
		return
	}
	e.heapPush(item{t: t, seq: e.seq, fn: fn})
}

// Schedule schedules fn to run d after the current time. A negative d
// panics.
func (e *Env) Schedule(d Duration, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("simtime: negative delay %v", d))
	}
	e.At(e.now+Time(d), fn)
}

// Periodic runs fn at now+start and then every period thereafter, for as
// long as fn returns true.
func (e *Env) Periodic(start, period Duration, fn func() bool) {
	if period <= 0 {
		panic("simtime: Periodic requires a positive period")
	}
	var tick func()
	tick = func() {
		if fn() {
			e.Schedule(period, tick)
		}
	}
	e.Schedule(start, tick)
}

// The future-event heap is 4-ary: half the depth of a binary heap, so
// pops touch half as many cache lines, at the price of comparing up to
// four children per level (they sit in adjacent memory, so the extra
// comparisons are nearly free). The ordering key (t, seq) is a strict
// total order — seq is unique — so extraction order, and therefore every
// simulation result, is identical to the binary heap's.

// heapPush inserts it into the future-event heap.
func (e *Env) heapPush(it item) {
	e.npush++
	pq := append(e.pq, it)
	i := len(pq) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !pq[i].before(pq[parent]) {
			break
		}
		pq[i], pq[parent] = pq[parent], pq[i]
		i = parent
	}
	e.pq = pq
}

// heapPop removes and returns the minimum heap item. The heap must be
// non-empty.
func (e *Env) heapPop() item {
	pq := e.pq
	top := pq[0]
	n := len(pq) - 1
	pq[0] = pq[n]
	pq[n] = item{} // release the closure
	pq = pq[:n]
	i := 0
	for {
		l := 4*i + 1
		if l >= n {
			break
		}
		m := l
		hi := l + 4
		if hi > n {
			hi = n
		}
		for c := l + 1; c < hi; c++ {
			if pq[c].before(pq[m]) {
				m = c
			}
		}
		if !pq[m].before(pq[i]) {
			break
		}
		pq[i], pq[m] = pq[m], pq[i]
		i = m
	}
	e.pq = pq
	return top
}

// popNow removes and returns the head of the now queue, which must be
// non-empty.
func (e *Env) popNow() item {
	it := e.nowQ[e.nowHead]
	e.nowQ[e.nowHead] = item{} // release the closure
	e.nowHead++
	if e.nowHead == len(e.nowQ) {
		e.nowQ = e.nowQ[:0]
		e.nowHead = 0
	}
	e.nfast++
	return it
}

// next removes and returns the earliest pending event: the now-queue head
// unless the heap root carries an equal-time event scheduled earlier.
func (e *Env) next() (item, bool) {
	if e.nowHead < len(e.nowQ) {
		if len(e.pq) == 0 || !e.pq[0].before(e.nowQ[e.nowHead]) {
			return e.popNow(), true
		}
	}
	if len(e.pq) > 0 {
		return e.heapPop(), true
	}
	return item{}, false
}

// Step executes the earliest pending event, advancing virtual time to its
// timestamp. It reports whether an event was executed.
func (e *Env) Step() bool {
	if e.fail != nil {
		return false
	}
	it, ok := e.next()
	if !ok {
		return false
	}
	e.now = it.t
	e.nstep++
	it.fn()
	return true
}

// Run executes events until the queue drains or a process panics. It
// returns the first process failure, if any.
func (e *Env) Run() error { return e.RunUntil(Forever) }

// RunUntil executes events with timestamps <= t. The clock does not advance
// past the last executed event. It returns the first process failure, if
// any.
func (e *Env) RunUntil(t Time) error {
	for e.fail == nil {
		// Same-time fast path: the ring head is next unless the heap
		// holds an equal-time event scheduled earlier. Ring entries are
		// at e.now; the explicit bound matters only when the caller
		// passes a limit below the current time.
		if e.nowHead < len(e.nowQ) && e.now <= t {
			if len(e.pq) == 0 || !e.pq[0].before(e.nowQ[e.nowHead]) {
				it := e.popNow()
				e.nstep++
				it.fn()
				continue
			}
			// An equal-time heap event precedes the ring head; pop just
			// that one (batching would overtake ring entries whose
			// sequence numbers fall inside the batch).
			it := e.heapPop()
			e.now = it.t
			e.nstep++
			it.fn()
			continue
		}
		if len(e.pq) == 0 || e.pq[0].t > t {
			break
		}
		// Batch-pop heap events at the minimum timestamp. All of them
		// precede anything scheduled while the batch executes (newer
		// events carry higher sequence numbers), so the whole batch runs
		// before the scheduler looks at the structures again. The batch
		// is capped so a mass of equal-time events (for example a
		// broadcast delivering to every rank at once) cannot balloon the
		// buffer; leftovers drain on the next loop iterations.
		const maxBatch = 64
		it := e.heapPop()
		e.now = it.t
		batch := e.batch[:0]
		for len(e.pq) > 0 && e.pq[0].t == it.t && len(batch) < maxBatch {
			batch = append(batch, e.heapPop())
		}
		e.nstep++
		it.fn()
		for i := range batch {
			if e.fail != nil {
				// Preserve unexecuted events for Pending/post-mortem.
				for _, rest := range batch[i:] {
					e.npush-- // re-push is not a new event
					e.heapPush(rest)
				}
				break
			}
			e.nstep++
			batch[i].fn()
			batch[i] = item{}
		}
		e.batch = batch[:0]
	}
	return e.fail
}

// Pending reports the number of scheduled events not yet executed.
func (e *Env) Pending() int { return len(e.pq) + len(e.nowQ) - e.nowHead }

// LiveProcs returns the names of processes that have been spawned and have
// not yet finished, in spawn order. After Run drains the queue, a
// non-empty result indicates processes blocked forever (a deadlock in the
// simulated program). Spawn order keeps the deadlock report — and thus
// error paths — as deterministic as the package's happy path.
func (e *Env) LiveProcs() []string {
	live := e.liveByID()
	names := make([]string, len(live))
	for i, p := range live {
		names[i] = p.name
	}
	return names
}

// liveByID returns the live processes sorted by spawn id.
func (e *Env) liveByID() []*Proc {
	live := make([]*Proc, 0, len(e.procs))
	for p := range e.procs {
		live = append(live, p)
	}
	sort.Slice(live, func(i, j int) bool { return live[i].id < live[j].id })
	return live
}

// KillAll forcibly terminates all live processes in spawn order. Each
// parked process is unblocked and its goroutine exits; deferred functions
// in process bodies run. Use this to tear down a simulation with blocked
// processes (for example, server loops) once the interesting work is
// done. The outer loop re-collects survivors so processes spawned by
// teardown code are killed too.
func (e *Env) KillAll() {
	for len(e.procs) > 0 {
		for _, p := range e.liveByID() {
			// A kill can run deferred cleanup that retires other
			// processes; skip the ones already gone.
			if _, ok := e.procs[p]; ok {
				p.Kill()
			}
		}
	}
}

// Err returns the first process failure observed, or nil.
func (e *Env) Err() error { return e.fail }
