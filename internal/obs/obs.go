// Package obs is the runtime-wide structured observability layer: a
// typed, ring-buffered event recorder stamped with virtual time. The
// simulated runtime (task graph, scheduler, workers, simmpi, DLB
// arbiter) emits flat events describing the causal lifecycle of tasks
// (created → ready → scheduled → exec start/end), messages (post →
// match → deliver), DLB core ownership (set/borrow/return), and
// scheduler decisions.
//
// The recorder is passive: emitting never schedules simulation events,
// so enabling it cannot perturb virtual time. Every emit method is safe
// on a nil *Recorder and returns immediately, so the disabled path costs
// one predicted branch and zero allocations — hot loops keep their
// allocation pins from earlier optimisation passes.
//
// As it emits, the recorder also keeps the step series the paper's
// figures are drawn from: busy and owned cores per (node, apprank) and
// the sampled node imbalance. They live outside the ring, so a wrapped
// ring never drops figure data, and export as CSV, simplified Paraver
// or an ASCII timeline. The retained ring exports as Chrome trace JSON
// (WriteChrome) and aggregate metrics (BuildMetrics).
package obs

import (
	"math"

	"ompsscluster/internal/simtime"
)

// Kind discriminates event types.
type Kind uint8

// Event kinds. The integer payload fields A..D are interpreted per kind;
// see the emitter methods for each kind's field layout.
const (
	KindInvalid Kind = iota
	KindTaskCreated
	KindTaskReady
	KindSchedDecision
	KindTaskScheduled
	KindExecStart
	KindExecEnd
	KindMsgPost
	KindMsgMatch
	KindMsgDeliver
	KindCtlMsg
	KindCollective
	KindOwnSet
	KindCoreBorrow
	KindCoreReturn
	KindImbalance
	KindFaultInject
	KindFaultRecover
	KindReoffload
	KindMsgDrop
	KindChunkGrant
	KindPOPWindow
	numKinds
)

var kindNames = [numKinds]string{
	KindInvalid:       "invalid",
	KindTaskCreated:   "task_created",
	KindTaskReady:     "task_ready",
	KindSchedDecision: "sched_decision",
	KindTaskScheduled: "task_scheduled",
	KindExecStart:     "exec_start",
	KindExecEnd:       "exec_end",
	KindMsgPost:       "msg_post",
	KindMsgMatch:      "msg_match",
	KindMsgDeliver:    "msg_deliver",
	KindCtlMsg:        "ctl_msg",
	KindCollective:    "collective",
	KindOwnSet:        "own_set",
	KindCoreBorrow:    "core_borrow",
	KindCoreReturn:    "core_return",
	KindImbalance:     "imbalance",
	KindFaultInject:   "fault_inject",
	KindFaultRecover:  "fault_recover",
	KindReoffload:     "reoffload",
	KindMsgDrop:       "msg_drop",
	KindChunkGrant:    "chunk_grant",
	KindPOPWindow:     "pop_window",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Scheduling outcomes carried in SchedDecision's D field.
const (
	SchedBest   = 0 // assigned to the locality-best node immediately
	SchedAlt    = 1 // locality-best busy; assigned to an alternative node
	SchedQueued = 2 // no free slot; parked on the central queue
)

// Event is one observation. It is a flat value struct: emitting into the
// ring copies it without touching the heap. Node/Apprank are -1 when the
// dimension does not apply; ID is the task or message identity; A..D are
// per-kind integer payloads and Label an optional task/collective name.
type Event struct {
	T       simtime.Time
	Kind    Kind
	Node    int32
	Apprank int32
	ID      int64
	A       int64
	B       int64
	C       int64
	D       int64
	Label   string
}

// DefaultCapacity is the ring size used when NewRecorder is given a
// negative capacity: ~1M events, comfortably above a quick- or
// default-scale figure run, without preallocating (storage grows one
// chunk at a time and only wraps once the cap is reached).
const DefaultCapacity = 1 << 20

// The ring is stored in fixed chunks of chunkSize events, allocated as
// the ring first fills. Growing never copies or clears retained events,
// and a recorder below one chunk allocates only its capacity.
const (
	chunkShift = 12
	chunkSize  = 1 << chunkShift
	chunkMask  = chunkSize - 1
)

// Recorder collects events. Construct with NewRecorder; a nil *Recorder
// is a valid, free-to-call disabled recorder. Recorders are not
// concurrency-safe — the simulator is single-threaded per run, and each
// run owns its recorder.
type Recorder struct {
	clock   func() simtime.Time
	cap     int
	chunks  [][]Event       // ring slot i lives at chunks[i>>chunkShift][i&chunkMask]
	n       int             // events retained, at most cap
	next    int             // ring slot the next event is written to
	dropped uint64          // events overwritten after the ring wrapped
	workers map[int64]int32 // node<<32|worker -> apprank, for dlb emits
	counts  [numKinds]uint64

	lines     map[int64]*timeline // busy/owned series by lineKey(node, apprank)
	imbalance Series              // sampled node imbalance
	end       simtime.Time        // latest time lines or imbalance recorded
}

// NewRecorder returns a recorder retaining up to capacity events.
// capacity 0 keeps the timelines only, with no ring memory; negative
// capacity selects DefaultCapacity.
func NewRecorder(capacity int) *Recorder {
	if capacity < 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{
		cap:     capacity,
		workers: make(map[int64]int32),
		lines:   make(map[int64]*timeline),
	}
}

// BindClock sets the virtual-time source, normally env.Now of the run's
// simtime.Env. Events emitted with no clock bound are stamped 0.
func (r *Recorder) BindClock(now func() simtime.Time) {
	if r == nil {
		return
	}
	r.clock = now
}

// RegisterWorker maps (node, worker slot) to an apprank so DLB-level
// emits — which see only node-local core indices — can be attributed.
func (r *Recorder) RegisterWorker(node, worker, apprank int) {
	if r == nil {
		return
	}
	r.workers[int64(node)<<32|int64(worker)] = int32(apprank)
}

func (r *Recorder) workerApprank(node, worker int) int32 {
	if a, ok := r.workers[int64(node)<<32|int64(worker)]; ok {
		return a
	}
	return -1
}

func (r *Recorder) now() simtime.Time {
	if r.clock == nil {
		return 0
	}
	return r.clock()
}

// emit stamps, tracks, and retains e. Split so every typed emitter is a
// thin wrapper and the nil check stays at the top of each.
func (r *Recorder) emit(e Event) {
	e.T = r.now()
	r.emitStamped(e)
}

// emitStamped tracks and retains e with its caller-set timestamp. The
// POP window series is computed and emitted after the run ends, so its
// events carry their window times rather than the end-of-run clock.
func (r *Recorder) emitStamped(e Event) {
	r.counts[e.Kind]++
	r.track(&e)
	if r.cap > 0 {
		*r.push() = e
	}
}

// push claims the ring slot for a new event, overwriting the oldest
// once the ring is full.
func (r *Recorder) push() *Event {
	i := r.next
	if i>>chunkShift == len(r.chunks) {
		r.chunks = append(r.chunks, make([]Event, min(chunkSize, r.cap-i)))
	}
	if r.next++; r.next == r.cap {
		r.next = 0
	}
	if r.n < r.cap {
		r.n++
	} else {
		r.dropped++
	}
	return &r.chunks[i>>chunkShift][i&chunkMask]
}

// retained reports how many events the ring holds.
func (r *Recorder) retained() int {
	if r == nil {
		return 0
	}
	return r.n
}

// at returns the i-th retained event in chronological order, in place:
// the pointer is valid until the next emit.
func (r *Recorder) at(i int) *Event {
	if r.n == r.cap {
		// Full ring: the oldest event sits in the slot written next.
		if i += r.next; i >= r.cap {
			i -= r.cap
		}
	}
	return &r.chunks[i>>chunkShift][i&chunkMask]
}

// Events returns the retained events in chronological order (a copy).
func (r *Recorder) Events() []Event {
	n := r.retained()
	if n == 0 {
		return nil
	}
	out := make([]Event, n)
	for i := range out {
		out[i] = *r.at(i)
	}
	return out
}

// Dropped reports how many events were overwritten after the ring
// wrapped. Nonzero means exports are missing the oldest events.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.dropped
}

// Count returns how many events of kind k were emitted (including any
// later dropped from the ring).
func (r *Recorder) Count(k Kind) uint64 {
	if r == nil || k >= numKinds {
		return 0
	}
	return r.counts[k]
}

// --- Task lifecycle -------------------------------------------------

// TaskCreated records task submission. A = total access bytes.
func (r *Recorder) TaskCreated(apprank int, id int64, label string, accessBytes int64) {
	if r == nil {
		return
	}
	r.emit(Event{Kind: KindTaskCreated, Node: -1, Apprank: int32(apprank), ID: id, A: accessBytes, Label: label})
}

// TaskReady records all dependencies of a task being satisfied.
func (r *Recorder) TaskReady(apprank int, id int64) {
	if r == nil {
		return
	}
	r.emit(Event{Kind: KindTaskReady, Node: -1, Apprank: int32(apprank), ID: id})
}

// SchedDecision records the scheduler's placement choice for a ready
// task. A = locality-winner node, B = candidate set size (nodes with a
// free slot), C = bytes already local at the winner, D = outcome
// (SchedBest, SchedAlt, SchedQueued).
func (r *Recorder) SchedDecision(apprank int, id int64, winner, candidates int, winnerBytes int64, outcome int) {
	if r == nil {
		return
	}
	r.emit(Event{Kind: KindSchedDecision, Node: -1, Apprank: int32(apprank), ID: id,
		A: int64(winner), B: int64(candidates), C: winnerBytes, D: int64(outcome)})
}

// TaskScheduled records the commit of a task to a node. A = bytes moved
// to satisfy locality, B = modelled transfer delay in virtual ns.
func (r *Recorder) TaskScheduled(apprank int, id int64, node int, movedBytes int64, delay simtime.Duration) {
	if r == nil {
		return
	}
	r.emit(Event{Kind: KindTaskScheduled, Node: int32(node), Apprank: int32(apprank), ID: id,
		A: movedBytes, B: int64(delay)})
}

// ExecStart records a task starting on a worker core. A = worker slot on
// the node, B = 1 if the core is borrowed (running beyond owned), 0 if
// owned.
func (r *Recorder) ExecStart(node, apprank int, id int64, worker int, borrowed bool, label string) {
	if r == nil {
		return
	}
	b := int64(0)
	if borrowed {
		b = 1
	}
	r.emit(Event{Kind: KindExecStart, Node: int32(node), Apprank: int32(apprank), ID: id,
		A: int64(worker), B: b, Label: label})
}

// ExecEnd records a task finishing. Fields mirror ExecStart.
func (r *Recorder) ExecEnd(node, apprank int, id int64, worker int, label string) {
	if r == nil {
		return
	}
	r.emit(Event{Kind: KindExecEnd, Node: int32(node), Apprank: int32(apprank), ID: id,
		A: int64(worker), Label: label})
}

// --- Messages -------------------------------------------------------

// MsgPost records a point-to-point send entering the network. src/dst
// are global apprank ids, A = src, B = dst, C = tag, D = size bytes.
func (r *Recorder) MsgPost(id int64, src, dst, tag int, size int64) {
	if r == nil {
		return
	}
	r.emit(Event{Kind: KindMsgPost, Node: -1, Apprank: int32(dst), ID: id,
		A: int64(src), B: int64(dst), C: int64(tag), D: size})
}

// MsgDeliver records a message arriving at the destination mailbox.
// Fields mirror MsgPost; C = tag, D = size.
func (r *Recorder) MsgDeliver(id int64, src, dst, tag int, size int64) {
	if r == nil {
		return
	}
	r.emit(Event{Kind: KindMsgDeliver, Node: -1, Apprank: int32(dst), ID: id,
		A: int64(src), B: int64(dst), C: int64(tag), D: size})
}

// MsgMatch records a receiver consuming a message. A = src, B = dst,
// C = queue wait (arrival → match, virtual ns; 0 when a receiver was
// already blocked), D = total in-flight latency (post → match, ns).
func (r *Recorder) MsgMatch(id int64, src, dst int, queueWait, inflight simtime.Duration) {
	if r == nil {
		return
	}
	r.emit(Event{Kind: KindMsgMatch, Node: -1, Apprank: int32(dst), ID: id,
		A: int64(src), B: int64(dst), C: int64(queueWait), D: int64(inflight)})
}

// CtlMsg records a runtime control message between nodes (offload
// commands and completion notifications travel outside simmpi).
// A = source node, B = destination node, C = size bytes; Node is the
// destination.
func (r *Recorder) CtlMsg(fromNode, toNode int, size int64) {
	if r == nil {
		return
	}
	r.emit(Event{Kind: KindCtlMsg, Node: int32(toNode), Apprank: -1, ID: -1,
		A: int64(fromNode), B: int64(toNode), C: size})
}

// Collective records one rank completing a collective operation.
// A = virtual ns when the rank entered the collective, B = size bytes,
// C = communicator size. Label names the operation ("allreduce", ...).
func (r *Recorder) Collective(apprank int, op string, entered simtime.Time, size int64, ranks int) {
	if r == nil {
		return
	}
	r.emit(Event{Kind: KindCollective, Node: -1, Apprank: int32(apprank), ID: -1,
		A: int64(entered), B: size, C: int64(ranks), Label: op})
}

// --- DLB core ownership ---------------------------------------------

// OwnershipSet records a DROM-style ownership change of one core.
// A = worker slot, B = old owned count for that slot's apprank on the
// node, C = new owned count.
func (r *Recorder) OwnershipSet(node, worker, oldOwned, newOwned int) {
	if r == nil {
		return
	}
	r.emit(Event{Kind: KindOwnSet, Node: int32(node), Apprank: r.workerApprank(node, worker), ID: -1,
		A: int64(worker), B: int64(oldOwned), C: int64(newOwned)})
}

// CoreBorrow records a LeWI borrow: a worker starts running beyond its
// owned core count on idle cores lent by others. A = worker slot,
// B = running count after the borrow.
func (r *Recorder) CoreBorrow(node, worker, runningAfter int) {
	if r == nil {
		return
	}
	r.emit(Event{Kind: KindCoreBorrow, Node: int32(node), Apprank: r.workerApprank(node, worker), ID: -1,
		A: int64(worker), B: int64(runningAfter)})
}

// CoreReturn records a borrowed core being handed back at a task
// boundary. A = worker slot, B = running count after the return.
func (r *Recorder) CoreReturn(node, worker, runningAfter int) {
	if r == nil {
		return
	}
	r.emit(Event{Kind: KindCoreReturn, Node: int32(node), Apprank: r.workerApprank(node, worker), ID: -1,
		A: int64(worker), B: int64(runningAfter)})
}

// --- Fault injection and resilience ---------------------------------

// FaultInject records a fault-plan event taking effect. ID = the
// event's index within the bound plan (pairing inject/recover edges),
// Label = the fault kind ("slow", "link", ...). Node is the target node
// (-1 for apprank-scoped faults), Apprank the target apprank (-1 for
// node-scoped faults). A = episode end in virtual ns (0 for permanent
// faults), B/C = kind-specific magnitudes (slow: B = speed in
// math.Float64bits; coreloss: B = cores removed; link: B = peer node,
// C = drop probability in Float64bits).
func (r *Recorder) FaultInject(planIdx int, kind string, node, apprank int, until simtime.Time, b, c int64) {
	if r == nil {
		return
	}
	r.emit(Event{Kind: KindFaultInject, Node: int32(node), Apprank: int32(apprank), ID: int64(planIdx),
		A: int64(until), B: b, C: c, Label: kind})
}

// FaultRecover records the recovery edge of an episodic fault. Fields
// mirror FaultInject.
func (r *Recorder) FaultRecover(planIdx int, kind string, node, apprank int) {
	if r == nil {
		return
	}
	r.emit(Event{Kind: KindFaultRecover, Node: int32(node), Apprank: int32(apprank), ID: int64(planIdx), Label: kind})
}

// Reoffload records the home apprank re-placing an offloaded task after
// a deadline expiry or target death. Node = the new target node,
// A = the old (failed) target node, B = the retry attempt number,
// C = 1 when the task fell back to local execution at home.
func (r *Recorder) Reoffload(apprank int, id int64, oldNode, newNode, attempt int, local bool) {
	if r == nil {
		return
	}
	c := int64(0)
	if local {
		c = 1
	}
	r.emit(Event{Kind: KindReoffload, Node: int32(newNode), Apprank: int32(apprank), ID: id,
		A: int64(oldNode), B: int64(attempt), C: c})
}

// MsgDrop records a link fault dropping one delivery attempt of a
// message. A = src, B = dst (global apprank ids), C = the attempt
// number that was dropped.
func (r *Recorder) MsgDrop(id int64, src, dst, attempt int) {
	if r == nil {
		return
	}
	r.emit(Event{Kind: KindMsgDrop, Node: -1, Apprank: int32(dst), ID: id,
		A: int64(src), B: int64(dst), C: int64(attempt)})
}

// --- Self-scheduling chunk server ------------------------------------

// ChunkGrant records the self-scheduling chunk server handing a chunk of
// centrally held tasks to a worker. Node = the receiving worker's node,
// A = worker slot on the node, B = chunk size in tasks, C = tasks still
// ungranted in the loop after the grant, D = the numeric policy id
// (balance.SelfSched).
func (r *Recorder) ChunkGrant(apprank, node, worker, size, remaining, policy int) {
	if r == nil {
		return
	}
	r.emit(Event{Kind: KindChunkGrant, Node: int32(node), Apprank: int32(apprank), ID: -1,
		A: int64(worker), B: int64(size), C: int64(remaining), D: int64(policy)})
}

// --- Sampled gauges -------------------------------------------------

// Imbalance records a sampled cross-node load-imbalance value (max/mean
// busy cores). The float is carried in A as math.Float64bits.
func (r *Recorder) Imbalance(v float64) {
	if r == nil {
		return
	}
	r.emit(Event{Kind: KindImbalance, Node: -1, Apprank: -1, ID: -1, A: int64(math.Float64bits(v))})
}

// ImbalanceValue decodes the gauge payload of a KindImbalance event.
func (e *Event) ImbalanceValue() float64 { return math.Float64frombits(uint64(e.A)) }

// POPWindowSample records one node's windowed POP utilisation: window
// index, the window's start time t (the event is stamped with t, not
// the emit-time clock — the series is exported at end of run), and the
// node's parallel-efficiency value in A as float bits.
func (r *Recorder) POPWindowSample(node, window int, t simtime.Time, pe float64) {
	if r == nil {
		return
	}
	r.emitStamped(Event{T: t, Kind: KindPOPWindow, Node: int32(node), Apprank: -1, ID: -1,
		A: int64(math.Float64bits(pe)), B: int64(window)})
}

// POPValue decodes the utilisation payload of a KindPOPWindow event.
func (e *Event) POPValue() float64 { return math.Float64frombits(uint64(e.A)) }
