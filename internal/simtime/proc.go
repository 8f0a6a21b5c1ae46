package simtime

import "fmt"

// Proc is a simulation process: a goroutine that blocks in virtual time.
// Exactly one process executes at a time; the engine resumes a process and
// waits for it to park (block) or finish before executing the next event.
// All simulation state may therefore be accessed without locks from process
// bodies and event callbacks alike.
type Proc struct {
	env    *Env
	id     uint64
	name   string
	resume chan any
	parked bool
	killed bool
	done   *Event

	// wakeFn is the pre-bound resume trampoline: every wake schedules
	// this one closure (with the value staged in wakeVal) instead of
	// allocating a fresh closure per wake. At most one wake is ever
	// pending (waking a running process deadlocks the engine), so the
	// single staging slot cannot be overwritten.
	wakeFn  func()
	wakeVal any

	// Block-reason diagnostics for the deadlock detector: what the
	// process is waiting for (a constant string, so setting it never
	// allocates) plus two free-form operands (e.g. source rank and tag
	// of a pending Recv). Purely informational.
	blockWhat string
	blockA    int64
	blockB    int64
}

// SetBlockReason records why the process is about to block, for the
// deadlock diagnostic dump. what must be a constant string (the hot
// paths rely on this costing nothing); a and b are operation-specific
// operands. Cleared automatically when the process resumes.
func (p *Proc) SetBlockReason(what string, a, b int64) {
	p.blockWhat, p.blockA, p.blockB = what, a, b
}

// killedPanic unwinds a process goroutine when it is forcibly terminated.
type killedPanic struct{}

// Spawn creates a process running fn, starting at the current virtual time.
// The returned Proc may be waited on via its Done event.
func (e *Env) Spawn(name string, fn func(p *Proc)) *Proc {
	e.seq++
	p := &Proc{
		env:    e,
		id:     e.seq,
		name:   name,
		resume: make(chan any),
		done:   e.NewEvent(),
	}
	p.wakeFn = func() {
		if p.killed {
			return
		}
		v := p.wakeVal
		p.wakeVal = nil
		p.resume <- v
		<-e.yield
	}
	e.procs[p] = struct{}{}
	e.At(e.now, func() {
		if p.killed {
			delete(e.procs, p)
			p.done.Trigger(nil)
			return
		}
		e.ngoro++
		if e.ngoro > e.peakGoro {
			e.peakGoro = e.ngoro
		}
		go p.run(fn)
		<-e.yield
	})
	return p
}

// run is the body wrapper executed on the process goroutine.
func (p *Proc) run(fn func(p *Proc)) {
	defer func() {
		r := recover()
		p.env.ngoro--
		delete(p.env.procs, p)
		if _, wasKilled := r.(killedPanic); r != nil && !wasKilled {
			if p.env.fail == nil {
				p.env.fail = fmt.Errorf("simtime: process %q panicked at %v: %v", p.name, p.env.now, r)
			}
		} else {
			p.done.Trigger(nil)
		}
		p.env.yield <- struct{}{}
	}()
	fn(p)
}

// Name returns the name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Env returns the environment the process belongs to.
func (p *Proc) Env() *Env { return p.env }

// Done returns an event triggered when the process finishes.
func (p *Proc) Done() *Event { return p.done }

// Park blocks the process until another event wakes it with Env.WakeProc
// (or an Event trigger). It returns the value passed to the wake. Park is
// a low-level primitive for building synchronization structures; most
// code should use Sleep or Wait.
func (p *Proc) Park() any {
	p.env.npark++
	p.parked = true
	p.env.yield <- struct{}{}
	v, ok := <-p.resume
	if !ok {
		panic(killedPanic{})
	}
	p.parked = false
	p.blockWhat = ""
	return v
}

// WakeProc schedules p to resume at the current virtual time, with v as the
// return value of its pending Park. The wake goes through Env.At, so it is
// ordered by the same (time, seq) key as every other event. The caller
// must guarantee that p is parked (or will be parked before this wake
// event executes); waking a running process deadlocks the engine. The
// wake reuses the proc's pre-bound resume closure, so it performs no
// allocation.
func (e *Env) WakeProc(p *Proc, v any) {
	p.wakeVal = v
	e.nwake++
	e.At(e.now, p.wakeFn)
}

// Sleep blocks the process for d of virtual time.
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		panic(fmt.Sprintf("simtime: negative sleep %v", d))
	}
	e := p.env
	p.wakeVal = nil
	e.nwake++
	e.At(e.now+Time(d), p.wakeFn)
	e.npark++
	p.parked = true
	e.yield <- struct{}{}
	if _, ok := <-p.resume; !ok {
		panic(killedPanic{})
	}
	p.parked = false
}

// Kill forcibly terminates the process (a fault-injection primitive:
// the node running it died). If it is parked, its goroutine is unblocked
// and unwound; if it has not started yet, its start event is suppressed.
// Killing a finished process is a harmless no-op. Like KillAll, it must
// be invoked from an event callback, never from another process.
func (p *Proc) Kill() {
	if p.killed {
		return
	}
	p.killed = true
	p.wakeVal = nil
	if p.parked {
		close(p.resume)
		<-p.env.yield
	}
	delete(p.env.procs, p)
}

// Event is a one-shot occurrence that processes can wait on and callbacks
// can subscribe to. An event carries an arbitrary value set at trigger
// time. Triggering twice panics.
type Event struct {
	env       *Env
	triggered bool
	val       any
	waiters   []*Proc
	callbacks []func(any)
}

// NewEvent returns an untriggered event.
func (e *Env) NewEvent() *Event { return &Event{env: e} }

// Triggered reports whether the event has fired.
func (ev *Event) Triggered() bool { return ev.triggered }

// Value returns the value the event was triggered with (nil if not yet
// triggered).
func (ev *Event) Value() any { return ev.val }

// Trigger fires the event, waking all waiting processes and scheduling all
// subscribed callbacks at the current virtual time.
func (ev *Event) Trigger(v any) {
	if ev.triggered {
		panic("simtime: event triggered twice")
	}
	ev.triggered = true
	ev.val = v
	for _, w := range ev.waiters {
		ev.env.WakeProc(w, v)
	}
	ev.waiters = nil
	for _, cb := range ev.callbacks {
		cb := cb
		ev.env.At(ev.env.now, func() { cb(v) })
	}
	ev.callbacks = nil
}

// Subscribe registers fn to run (as a scheduled callback) when the event
// triggers. If the event already triggered, fn is scheduled immediately.
func (ev *Event) Subscribe(fn func(any)) {
	if ev.triggered {
		v := ev.val
		ev.env.At(ev.env.now, func() { fn(v) })
		return
	}
	ev.callbacks = append(ev.callbacks, fn)
}

// Wait blocks the process until the event triggers and returns the trigger
// value. If the event already triggered, it returns immediately.
func (p *Proc) Wait(ev *Event) any {
	if ev.triggered {
		return ev.val
	}
	ev.waiters = append(ev.waiters, p)
	return p.Park()
}

// WaitAll blocks until every event in evs has triggered.
func (p *Proc) WaitAll(evs ...*Event) {
	for _, ev := range evs {
		p.Wait(ev)
	}
}
