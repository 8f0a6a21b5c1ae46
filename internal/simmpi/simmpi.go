// Package simmpi is an MPI-like message-passing library running inside the
// simtime discrete-event engine. It provides a World of ranks placed on the
// nodes of a cluster.Machine, point-to-point messages with tag matching and
// wildcard receives, the usual collectives (Barrier, Bcast, Reduce,
// Allreduce, Gather, Allgather) and communicator Split.
//
// Rank programs run as simtime processes and use blocking operations
// through their *Comm handle, in the style of MPI. Event-driven code (the
// task runtime) can inject messages with World.Post and subscribe to
// deliveries with World.Handle, without being a process.
//
// Message timing follows the machine's NetModel: latency plus size over
// bandwidth between distinct nodes, a small local cost within a node.
// Collectives charge ceil(log2 P) network hops, mimicking tree algorithms.
package simmpi

import (
	"fmt"
	"math/bits"

	"ompsscluster/internal/cluster"
	"ompsscluster/internal/faults"
	"ompsscluster/internal/obs"
	"ompsscluster/internal/simtime"
)

// Wildcards for Recv.
const (
	AnySource = -1
	AnyTag    = -1
)

// Status describes a received message.
type Status struct {
	Source int // sender rank (within the communicator)
	Tag    int
	Size   int64 // modelled payload size in bytes
}

// message is an in-flight or delivered point-to-point message.
type message struct {
	src  int // global rank
	tag  int
	size int64
	data any
	arr  uint64 // per-mailbox arrival stamp, set when queued as unexpected

	// Observability stamps, populated only when the world's recorder is
	// attached: a world-unique message id plus the post and delivery
	// times, from which match events derive queue-wait and in-flight
	// latency.
	obsID    int64
	postT    simtime.Time
	deliverT simtime.Time

	// linkSeq is the world-unique send sequence number used to hash
	// per-message drop/jitter decisions; assigned only when link fault
	// conditioning is active.
	linkSeq uint64
}

// pendingRecv is a blocked receive posted by a process.
type pendingRecv struct {
	src, tag int // global src or AnySource
	proc     *simtime.Proc
}

// mbKey identifies a wildcard-free message class within one mailbox.
type mbKey struct{ src, tag int }

// msgq is a FIFO of queued messages with O(1) pop: consumed entries
// advance a head index instead of splicing, and the backing array is
// reused once drained.
type msgq struct {
	msgs []*message
	head int
}

func (q *msgq) len() int { return len(q.msgs) - q.head }

func (q *msgq) peek() *message { return q.msgs[q.head] }

func (q *msgq) push(m *message) { q.msgs = append(q.msgs, m) }

func (q *msgq) pop() *message {
	m := q.msgs[q.head]
	q.msgs[q.head] = nil
	q.head++
	if q.head == len(q.msgs) {
		q.msgs = q.msgs[:0]
		q.head = 0
	}
	return m
}

// mailbox holds the per-rank unexpected-message queues, posted blocking
// receives, and an optional event-driven handler.
//
// Unexpected messages are bucketed by (src, tag), so the wildcard-free
// matching the workloads do almost exclusively is one map lookup instead
// of a scan-and-splice over a single arrival list. Wildcard matching
// (AnySource/AnyTag) falls back to comparing the arrival stamps of the
// candidate bucket heads: each message is stamped with a per-mailbox
// arrival sequence number when queued, so the earliest-arrival choice is
// exactly the message the former ordered-list scan would have found,
// independent of map iteration order.
type mailbox struct {
	arrived  map[mbKey]*msgq
	narrived int    // queued messages across all buckets
	arrSeq   uint64 // next arrival stamp
	recvs    []*pendingRecv
	handler  func(src, tag int, data any, size int64)
}

// enqueue stamps msg with its arrival order and queues it as unexpected.
func (mb *mailbox) enqueue(msg *message) {
	msg.arr = mb.arrSeq
	mb.arrSeq++
	k := mbKey{msg.src, msg.tag}
	q := mb.arrived[k]
	if q == nil {
		if mb.arrived == nil {
			mb.arrived = make(map[mbKey]*msgq)
		}
		q = &msgq{}
		mb.arrived[k] = q
	}
	q.push(msg)
	mb.narrived++
}

// takeArrived removes and returns the earliest-arrived queued message
// matching (src, tag), or nil if none is queued. src and tag may be
// wildcards.
func (mb *mailbox) takeArrived(src, tag int) *message {
	if mb.narrived == 0 {
		return nil
	}
	var (
		bq   *msgq
		best *message
	)
	if src != AnySource && tag != AnyTag {
		if q := mb.arrived[mbKey{src, tag}]; q != nil && q.len() > 0 {
			bq, best = q, q.peek()
		}
	} else {
		// Wildcard fallback: earliest arrival among matching bucket
		// heads. Arrival stamps are unique, so the winner is
		// deterministic even though map iteration order is not.
		for k, q := range mb.arrived {
			if q.len() == 0 {
				continue
			}
			if (src == AnySource || src == k.src) && (tag == AnyTag || tag == k.tag) {
				if m := q.peek(); best == nil || m.arr < best.arr {
					bq, best = q, m
				}
			}
		}
	}
	if best == nil {
		return nil
	}
	bq.pop()
	mb.narrived--
	return best
}

// World is a set of ranks placed on machine nodes.
type World struct {
	env       *simtime.Env
	machine   *cluster.Machine
	placement []int // global rank -> node
	mail      []*mailbox
	world     *commState
	commCache map[string]*commState

	obs      *obs.Recorder
	rankBase int   // global apprank id of this world's rank 0
	msgSeq   int64 // next message id for observability stamps

	// links conditions point-to-point deliveries when a fault plan with
	// link episodes is armed; nil (the default) keeps Post on the exact
	// pre-fault code path, preserving byte-identical schedules.
	links   *faults.Links
	linkSeq uint64

	// ops counts blocking MPI operations per global rank (collectives
	// entered and blocking receives). Each slot is written only by its
	// rank's own process and read after the run. They feed the POP
	// efficiency report.
	ops []rankOps
}

// rankOps is one rank's blocking-operation tally.
type rankOps struct {
	colls uint64 // collective operations entered (Barrier, Allreduce, ...)
	recvs uint64 // blocking point-to-point receives
}

// RankOps returns the number of collectives entered and blocking receives
// completed by the given global rank so far.
func (w *World) RankOps(rank int) (colls, recvs uint64) {
	o := w.ops[rank]
	return o.colls, o.recvs
}

// SetLinkFaults attaches a link-fault conditioner. Pass nil to detach.
func (w *World) SetLinkFaults(l *faults.Links) { w.links = l }

// SetObs attaches the structured event recorder. Message events carry
// rankBase + world rank so several worlds (co-scheduled applications)
// report globally unique apprank ids. A nil recorder (the default) keeps
// the messaging paths free of any observability work.
func (w *World) SetObs(rec *obs.Recorder, rankBase int) {
	w.obs = rec
	w.rankBase = rankBase
}

// obsMatch emits the match event for a message being consumed by dst at
// the current time. deliverT equals the match time when a receiver was
// already waiting (queue wait zero).
func (w *World) obsMatch(dst int, msg *message) {
	if w.obs == nil {
		return
	}
	now := w.env.Now()
	w.obs.MsgMatch(msg.obsID, w.rankBase+msg.src, w.rankBase+dst,
		simtime.Duration(now-msg.deliverT), simtime.Duration(now-msg.postT))
}

// NewWorld creates a world with len(placement) ranks; placement[r] is the
// node hosting rank r.
func NewWorld(env *simtime.Env, m *cluster.Machine, placement []int) *World {
	if len(placement) == 0 {
		panic("simmpi: empty placement")
	}
	for r, n := range placement {
		if n < 0 || n >= m.NumNodes() {
			panic(fmt.Sprintf("simmpi: rank %d placed on invalid node %d", r, n))
		}
	}
	w := &World{
		env:       env,
		machine:   m,
		placement: append([]int(nil), placement...),
		mail:      make([]*mailbox, len(placement)),
		ops:       make([]rankOps, len(placement)),
	}
	for i := range w.mail {
		w.mail[i] = &mailbox{}
	}
	group := make([]int, len(placement))
	for i := range group {
		group[i] = i
	}
	w.world = &commState{w: w, group: group, colls: map[int]*collOp{}}
	return w
}

// Env returns the simulation environment.
func (w *World) Env() *simtime.Env { return w.env }

// Machine returns the hardware model.
func (w *World) Machine() *cluster.Machine { return w.machine }

// Size returns the number of ranks in the world.
func (w *World) Size() int { return len(w.placement) }

// NodeOf returns the node hosting the given global rank.
func (w *World) NodeOf(rank int) int { return w.placement[rank] }

// Spawn starts the program for one global rank as a simulation process.
// The program receives a *Comm bound to the world communicator.
func (w *World) Spawn(rank int, main func(c *Comm)) *simtime.Proc {
	return w.env.Spawn(fmt.Sprintf("rank%d", rank), func(p *simtime.Proc) {
		main(&Comm{state: w.world, rank: rank, proc: p})
	})
}

// Handle installs an event-driven delivery handler for a rank. Messages
// arriving for that rank are passed to fn instead of being queued for
// Recv. This is how runtime instances (not processes) receive control
// messages. A rank with a handler must not also call Recv.
func (w *World) Handle(rank int, fn func(src, tag int, data any, size int64)) {
	mb := w.mail[rank]
	if mb.narrived > 0 {
		panic("simmpi: Handle installed after messages were queued")
	}
	mb.handler = fn
}

// Post sends a message from src to dst (global ranks) without blocking any
// process. It may be called from event callbacks. Delivery happens after
// the modelled transfer time.
func (w *World) Post(src, dst, tag int, data any, size int64) {
	if src < 0 || src >= len(w.placement) || dst < 0 || dst >= len(w.placement) {
		panic(fmt.Sprintf("simmpi: Post with invalid ranks %d->%d", src, dst))
	}
	msg := &message{src: src, tag: tag, size: size, data: data}
	if w.obs != nil {
		msg.obsID = w.msgSeq
		w.msgSeq++
		msg.postT = w.env.Now()
		w.obs.MsgPost(msg.obsID, w.rankBase+src, w.rankBase+dst, tag, size)
	}
	if w.links != nil {
		msg.linkSeq = w.linkSeq
		w.linkSeq++
		w.send(msg, dst, 0)
		return
	}
	d := w.machine.Net.TransferTime(w.placement[src], w.placement[dst], size)
	w.env.Schedule(d, func() { w.deliver(dst, msg) })
}

// send models one delivery attempt of msg under link-fault conditioning:
// the nominal transfer time plus any episode delay and jitter, or — if
// the hashed drop decision fires — a sender-side timeout of one transfer
// time followed by an exponential-backoff resend. After MaxAttempts
// failed attempts the message is abandoned; a receiver blocked on it is
// then surfaced by the deadlock detector rather than hanging silently.
func (w *World) send(msg *message, dst, attempt int) {
	a, b := w.placement[msg.src], w.placement[dst]
	d := w.machine.Net.TransferTime(a, b, msg.size)
	extra, drop := w.links.Condition(w.env.Now(), a, b, msg.linkSeq, attempt)
	if drop {
		if w.obs != nil {
			w.obs.MsgDrop(msg.obsID, w.rankBase+msg.src, w.rankBase+dst, attempt)
		}
		if attempt+1 >= w.links.MaxAttempts() {
			return // abandoned
		}
		w.env.Schedule(d+extra+w.links.BackoffDelay(attempt+1), func() {
			w.send(msg, dst, attempt+1)
		})
		return
	}
	w.env.Schedule(d+extra, func() { w.deliver(dst, msg) })
}

// deliver places a message in dst's mailbox: it invokes the rank's
// handler, else completes the earliest matching posted receive, else
// queues the message as unexpected.
func (w *World) deliver(dst int, msg *message) {
	mb := w.mail[dst]
	if w.obs != nil {
		msg.deliverT = w.env.Now()
		w.obs.MsgDeliver(msg.obsID, w.rankBase+msg.src, w.rankBase+dst, msg.tag, msg.size)
	}
	if mb.handler != nil {
		w.obsMatch(dst, msg)
		mb.handler(msg.src, msg.tag, msg.data, msg.size)
		return
	}
	for i, pr := range mb.recvs {
		if matches(pr.src, pr.tag, msg) {
			mb.recvs = append(mb.recvs[:i], mb.recvs[i+1:]...)
			w.obsMatch(dst, msg)
			w.env.WakeProc(pr.proc, msg)
			return
		}
	}
	mb.enqueue(msg)
}

func matches(src, tag int, msg *message) bool {
	return (src == AnySource || src == msg.src) && (tag == AnyTag || tag == msg.tag)
}

// recv blocks proc until a message matching (src, tag) arrives at rank.
func (w *World) recv(p *simtime.Proc, rank, src, tag int) *message {
	w.ops[rank].recvs++
	mb := w.mail[rank]
	if mb.handler != nil {
		panic("simmpi: Recv on a rank with an event handler installed")
	}
	if msg := mb.takeArrived(src, tag); msg != nil {
		w.obsMatch(rank, msg)
		return msg
	}
	mb.recvs = append(mb.recvs, &pendingRecv{src: src, tag: tag, proc: p})
	p.SetBlockReason("recv", int64(src), int64(tag))
	return p.Park().(*message)
}

// hopCost returns the modelled completion cost of a tree-structured
// collective over p participants moving size bytes per hop.
func (w *World) hopCost(p int, size int64) simtime.Duration {
	if p <= 1 {
		return 0
	}
	hops := bits.Len(uint(p - 1)) // ceil(log2 p)
	per := w.machine.Net.Latency
	if w.machine.Net.BytesPerSecond > 0 && size > 0 {
		per += simtime.FromSeconds(float64(size) / w.machine.Net.BytesPerSecond)
	}
	return simtime.Duration(hops) * per
}
