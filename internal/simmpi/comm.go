package simmpi

import (
	"fmt"
	"sort"

	"ompsscluster/internal/simtime"
)

// Op selects the combining operator for Reduce/Allreduce. Values may be
// float64 or int; all ranks must contribute the same type.
type Op int

// Reduction operators.
const (
	Sum Op = iota
	Max
	Min
)

func (op Op) apply(a, b any) any {
	switch x := a.(type) {
	case float64:
		y := b.(float64)
		switch op {
		case Sum:
			return x + y
		case Max:
			if x > y {
				return x
			}
			return y
		case Min:
			if x < y {
				return x
			}
			return y
		}
	case int:
		y := b.(int)
		switch op {
		case Sum:
			return x + y
		case Max:
			if x > y {
				return x
			}
			return y
		case Min:
			if x < y {
				return x
			}
			return y
		}
	}
	panic(fmt.Sprintf("simmpi: unsupported reduction operand %T", a))
}

// commState is the shared state of one communicator.
type commState struct {
	w      *World
	group  []int       // comm rank -> global rank
	rankOf map[int]int // global rank -> comm rank (lazy)
	colls  map[int]*collOp
}

func (cs *commState) commRankOf(global int) int {
	if cs.rankOf == nil {
		cs.rankOf = make(map[int]int, len(cs.group))
		for cr, g := range cs.group {
			cs.rankOf[g] = cr
		}
	}
	cr, ok := cs.rankOf[global]
	if !ok {
		// Returning a sentinel here would alias the AnySource wildcard
		// and silently corrupt matching; a rank outside the group is a
		// program bug, so fail loudly.
		panic(fmt.Sprintf("simmpi: global rank %d is not a member of this communicator (group %v)",
			global, cs.group))
	}
	return cr
}

// Comm is one rank's handle on a communicator. Each rank process owns its
// own handle; operations are called without passing the process explicitly.
type Comm struct {
	state *commState
	rank  int // global rank
	proc  *simtime.Proc
	opSeq int // number of collectives this rank has entered on this comm
}

// Rank returns the caller's rank within the communicator.
func (c *Comm) Rank() int { return c.state.commRankOf(c.rank) }

// GlobalRank returns the caller's rank in the world.
func (c *Comm) GlobalRank() int { return c.rank }

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return len(c.state.group) }

// World returns the world this communicator belongs to.
func (c *Comm) World() *World { return c.state.w }

// Proc returns the simulation process bound to this handle.
func (c *Comm) Proc() *simtime.Proc { return c.proc }

// Send transmits data of the given modelled size to dst (a comm rank) with
// a tag. It is a buffered send: the caller does not block; the message is
// delivered after the modelled transfer time.
func (c *Comm) Send(dst, tag int, data any, size int64) {
	c.state.w.Post(c.rank, c.state.group[dst], tag, data, size)
}

// Recv blocks until a message matching (src, tag) arrives. src may be
// AnySource and tag may be AnyTag. It returns the payload and a status
// whose Source is a comm rank.
func (c *Comm) Recv(src, tag int) (any, Status) {
	gsrc := src
	if src != AnySource {
		gsrc = c.state.group[src]
	}
	msg := c.state.w.recv(c.proc, c.rank, gsrc, tag)
	return msg.data, Status{Source: c.state.commRankOf(msg.src), Tag: msg.tag, Size: msg.size}
}

// collOp accumulates one in-flight collective operation.
type collOp struct {
	kind    string
	arrived int
	vals    []any // by comm rank
	waiters []*simtime.Proc
	widx    []int // comm rank of each waiter
	size    int64
	entered []simtime.Time // by comm rank, only when observability is on

}

// collective runs one collective step: all ranks of the communicator must
// call it in the same order with the same kind. The finish function maps
// the contributed values to each rank's result.
func (c *Comm) collective(kind string, contrib any, size int64, finish func(vals []any, commRank int) any) any {
	cs := c.state
	cs.w.ops[c.rank].colls++
	seq := c.opSeq
	c.opSeq++
	op, ok := cs.colls[seq]
	if !ok {
		op = &collOp{kind: kind, vals: make([]any, len(cs.group)), size: size}
		if cs.w.obs != nil {
			op.entered = make([]simtime.Time, len(cs.group))
		}
		cs.colls[seq] = op
	}
	if op.kind != kind {
		panic(fmt.Sprintf("simmpi: collective mismatch: rank %d called %s, others called %s",
			c.rank, kind, op.kind))
	}
	cr := c.Rank()
	op.vals[cr] = contrib
	if op.entered != nil {
		op.entered[cr] = cs.w.env.Now()
	}
	op.arrived++
	if size > op.size {
		op.size = size
	}
	if op.arrived < len(cs.group) {
		op.waiters = append(op.waiters, c.proc)
		op.widx = append(op.widx, cr)
		c.proc.SetBlockReason(kind, int64(cr), int64(seq))
		return c.proc.Park()
	}
	// Last participant: complete after the modelled collective cost. Every
	// entrant — this one included — resumes through the same two-hop wake:
	// the completion trigger schedules one callback per rank in entry
	// order, and each callback schedules the real resume at the queue
	// tail. This shape fixes the same-instant order of everything the
	// resumed ranks do at the completion timestamp (events a resumed rank
	// schedules land after every entrant's wake callback but before later
	// entrants' resumes), and every golden output depends on that order:
	// changing the wake path reorders same-time events and with them the
	// traces, metrics and figure bytes.
	delete(cs.colls, seq)
	w := cs.w
	cost := w.hopCost(len(cs.group), op.size)
	done := w.env.NewEvent()
	w.env.Schedule(cost, func() {
		if op.entered != nil {
			// One event per participating rank, spanning its entry to the
			// shared completion instant.
			for cri, g := range cs.group {
				w.obs.Collective(w.rankBase+g, kind, op.entered[cri], op.size, len(cs.group))
			}
		}
		done.Trigger(nil)
	})
	op.waiters = append(op.waiters, c.proc)
	op.widx = append(op.widx, cr)
	for i, p := range op.waiters {
		p := p
		cri := op.widx[i]
		done.Subscribe(func(any) { w.env.WakeProc(p, finish(op.vals, cri)) })
	}
	c.proc.SetBlockReason(kind, int64(cr), int64(seq))
	return c.proc.Park()
}

// Barrier blocks until all ranks of the communicator have entered it.
func (c *Comm) Barrier() {
	c.collective("barrier", nil, 8, func([]any, int) any { return nil })
}

// Bcast distributes root's value (of the given modelled size) to all
// ranks and returns it.
func (c *Comm) Bcast(root int, v any, size int64) any {
	return c.collective("bcast", v, size, func(vals []any, _ int) any { return vals[root] })
}

// Reduce combines all contributions with op; the result is returned on
// root and nil elsewhere.
func (c *Comm) Reduce(root int, v any, op Op) any {
	return c.collective("reduce", v, 8, func(vals []any, cr int) any {
		if cr != root {
			return nil
		}
		return reduceVals(vals, op)
	})
}

// Allreduce combines all contributions with op and returns the result on
// every rank.
func (c *Comm) Allreduce(v any, op Op) any {
	return c.collective("allreduce", v, 8, func(vals []any, _ int) any {
		return reduceVals(vals, op)
	})
}

func reduceVals(vals []any, op Op) any {
	acc := vals[0]
	for _, v := range vals[1:] {
		acc = op.apply(acc, v)
	}
	return acc
}

// Gather collects every rank's value on root (indexed by comm rank); other
// ranks receive nil.
func (c *Comm) Gather(root int, v any, size int64) []any {
	r := c.collective("gather", v, size, func(vals []any, cr int) any {
		if cr != root {
			return nil
		}
		return append([]any(nil), vals...)
	})
	if r == nil {
		return nil
	}
	return r.([]any)
}

// Allgather collects every rank's value on all ranks, indexed by comm rank.
func (c *Comm) Allgather(v any, size int64) []any {
	r := c.collective("allgather", v, size, func(vals []any, _ int) any {
		return append([]any(nil), vals...)
	})
	return r.([]any)
}

// splitKey is the per-rank contribution to Split.
type splitKey struct {
	color, key, global int
}

// Split partitions the communicator: ranks with the same color form a new
// communicator, ordered by (key, current rank). Ranks passing a negative
// color receive nil.
func (c *Comm) Split(color, key int) *Comm {
	r := c.collective("split", splitKey{color, key, c.rank}, 16, func(vals []any, cr int) any {
		me := vals[cr].(splitKey)
		if me.color < 0 {
			return nil
		}
		var members []splitKey
		for _, v := range vals {
			sk := v.(splitKey)
			if sk.color == me.color {
				members = append(members, sk)
			}
		}
		sort.Slice(members, func(i, j int) bool {
			if members[i].key != members[j].key {
				return members[i].key < members[j].key
			}
			return members[i].global < members[j].global
		})
		group := make([]int, len(members))
		for i, m := range members {
			group[i] = m.global
		}
		return group
	})
	if r == nil {
		return nil
	}
	group := r.([]int)
	// Each rank builds an identical commState; sharing is unnecessary
	// because collectives coordinate through the world mailboxes... but
	// collOp state *must* be shared. Deduplicate via a registry keyed by
	// the group signature.
	return &Comm{state: c.state.w.internComm(group), rank: c.rank, proc: c.proc}
}

// internComm returns a shared commState for the given group, creating it
// on first use.
func (w *World) internComm(group []int) *commState {
	key := fmt.Sprint(group)
	if w.commCache == nil {
		w.commCache = map[string]*commState{}
	}
	if cs, ok := w.commCache[key]; ok {
		return cs
	}
	cs := &commState{w: w, group: append([]int(nil), group...), colls: map[int]*collOp{}}
	w.commCache[key] = cs
	return cs
}
