// Dynamic loop self-scheduling policies (the "policy family" extension):
// instead of the paper's reactive two-tasks-per-owned-core scheduler, an
// apprank can hold its ready offloadable tasks centrally and hand them to
// workers in chunks sized by a classic self-scheduling rule. The family
// follows the loop-scheduling literature the two-level MPI+MPI designs
// build on (arXiv 1903.09510, 1911.06714):
//
//   - static chunking: one pre-planned block per worker, proportional to
//     the worker's weight (equal weights give the textbook N/P blocks);
//   - guided self-scheduling (GSS): each request takes ceil(R/P) of the
//     R remaining iterations, so chunks decay geometrically;
//   - factoring (FAC): iterations are released in batches of P equal
//     chunks sized ceil(R/2P), halving the outstanding work per batch;
//   - weighted factoring (WF): each batch releases ceil(R/2) iterations
//     split across workers proportionally to their weights, so faster
//     (or better-provisioned) workers receive larger chunks;
//   - two-level: the inter-node tier grants WF-style weighted chunks
//     while the runtime keeps LeWI enabled below, so a node's idle cores
//     absorb a granted chunk beyond the receiving worker's ownership.
//
// GSS and FAC deliberately ignore the weights — they assume homogeneous
// workers, and their degradation on heterogeneous core ownership is one
// of the comparisons the policies experiment makes.
package balance

import (
	"fmt"
	"math"
	"strings"
)

// SelfSched selects a dynamic loop self-scheduling policy.
type SelfSched int

// Self-scheduling policy kinds.
const (
	// SelfSchedOff disables self-scheduling (the default §5.5 scheduler).
	SelfSchedOff SelfSched = iota
	// SelfSchedStatic pre-plans one weighted block per worker.
	SelfSchedStatic
	// SelfSchedGuided grants ceil(R/P) per request (GSS).
	SelfSchedGuided
	// SelfSchedFactoring grants batches of P chunks of ceil(R/2P) (FAC).
	SelfSchedFactoring
	// SelfSchedWeighted grants weighted shares of ceil(R/2) batches (WF).
	SelfSchedWeighted
	// SelfSchedTwoLevel pairs WF-style inter-node chunks with LeWI below.
	SelfSchedTwoLevel
)

var selfSchedNames = map[SelfSched]string{
	SelfSchedOff:       "off",
	SelfSchedStatic:    "static",
	SelfSchedGuided:    "guided",
	SelfSchedFactoring: "factoring",
	SelfSchedWeighted:  "wfactoring",
	SelfSchedTwoLevel:  "twolevel",
}

func (s SelfSched) String() string {
	if n, ok := selfSchedNames[s]; ok {
		return n
	}
	return fmt.Sprintf("SelfSched(%d)", int(s))
}

// Valid reports whether s names a member of the policy family (including
// SelfSchedOff).
func (s SelfSched) Valid() bool {
	_, ok := selfSchedNames[s]
	return ok
}

// SelfSchedNames lists the parseable policy names, excluding "off", in
// family order (for flag help and error messages).
func SelfSchedNames() []string {
	return []string{"static", "guided", "factoring", "wfactoring", "twolevel"}
}

// ParseSelfSched maps a policy name to its SelfSched value.
func ParseSelfSched(name string) (SelfSched, error) {
	for s, n := range selfSchedNames {
		if n == name {
			return s, nil
		}
	}
	return SelfSchedOff, fmt.Errorf("balance: unknown self-scheduling policy %q (have off, %s)",
		name, strings.Join(SelfSchedNames(), ", "))
}

// ChunkServer issues self-scheduling chunks for one loop (one batch of
// ready tasks) at a time. BeginLoop resets it for a loop of n tasks;
// Grant hands the calling worker its next chunk. The grant sequence for
// any request order sums exactly to n with no zero-size chunks: Grant
// returns a positive size while tasks remain and 0 once the loop is
// drained. All per-request state lives in buffers sized at construction,
// so both BeginLoop and Grant are allocation-free.
type ChunkServer struct {
	kind    SelfSched
	weights []float64

	remaining  int
	plan       []int // static: per-worker planned block for this loop
	batchChunk int   // factoring: chunk size of the open batch
	batchLeft  int   // factoring: chunks left in the open batch
	batchPlan  []int // weighted/two-level: per-worker share of the open batch

	frac  []float64 // apportioning scratch
	order []int     // apportioning scratch
}

// NewChunkServer builds a server for len(weights) workers. Weights are
// the workers' relative capacities (cores x speed); static, weighted
// factoring, and two-level use them, guided and factoring ignore them.
// Weights must be non-negative and not all zero.
func NewChunkServer(kind SelfSched, weights []float64) *ChunkServer {
	if kind == SelfSchedOff || !kind.Valid() {
		panic(fmt.Sprintf("balance: chunk server needs an active policy, got %v", kind))
	}
	if len(weights) == 0 {
		panic("balance: chunk server needs at least one worker")
	}
	sum := 0.0
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			panic(fmt.Sprintf("balance: worker %d has invalid weight %v", i, w))
		}
		sum += w
	}
	if sum == 0 {
		panic("balance: all chunk-server weights are zero")
	}
	p := len(weights)
	return &ChunkServer{
		kind:      kind,
		weights:   append([]float64(nil), weights...),
		plan:      make([]int, p),
		batchPlan: make([]int, p),
		frac:      make([]float64, p),
		order:     make([]int, p),
	}
}

// Kind returns the server's policy.
func (cs *ChunkServer) Kind() SelfSched { return cs.kind }

// Workers returns the number of workers the server grants to.
func (cs *ChunkServer) Workers() int { return len(cs.weights) }

// Remaining returns the ungranted tasks of the current loop.
func (cs *ChunkServer) Remaining() int { return cs.remaining }

// BeginLoop resets the server for a loop of n tasks, discarding any
// ungranted remainder of the previous loop (callers begin a new loop
// only over the full set of currently parked tasks).
func (cs *ChunkServer) BeginLoop(n int) {
	if n < 0 {
		panic(fmt.Sprintf("balance: negative loop size %d", n))
	}
	cs.remaining = n
	cs.batchChunk, cs.batchLeft = 0, 0
	for i := range cs.batchPlan {
		cs.batchPlan[i] = 0
	}
	if cs.kind == SelfSchedStatic {
		apportionInto(cs.plan, cs.weights, n, cs.frac, cs.order)
	}
}

// Grant returns the chunk size for the given worker's request: positive
// while the loop has ungranted tasks, 0 once it is drained. The policy
// math never yields a zero-size chunk mid-loop — even static falls back
// to a guided-style share when the requester's planned block is spent
// (a re-request under jitter, or blocks stranded by dead workers), so a
// loop always drains through whichever workers keep requesting.
func (cs *ChunkServer) Grant(worker int) int {
	if cs.remaining <= 0 {
		return 0
	}
	p := len(cs.weights)
	var k int
	switch cs.kind {
	case SelfSchedStatic:
		k = cs.plan[worker]
		cs.plan[worker] = 0
		if k == 0 {
			k = ceilDiv(cs.remaining, p)
		}
	case SelfSchedGuided:
		k = ceilDiv(cs.remaining, p)
	case SelfSchedFactoring:
		if cs.batchLeft == 0 {
			cs.batchChunk = ceilDiv(cs.remaining, 2*p)
			cs.batchLeft = p
		}
		k = cs.batchChunk
		cs.batchLeft--
	case SelfSchedWeighted, SelfSchedTwoLevel:
		if cs.batchPlan[worker] == 0 {
			// Open a new batch over half the remainder. Recomputing on a
			// spent entry (rather than once per batch) keeps the halving
			// self-consistent however requests interleave.
			apportionInto(cs.batchPlan, cs.weights, cs.remaining-cs.remaining/2, cs.frac, cs.order)
		}
		k = cs.batchPlan[worker]
		cs.batchPlan[worker] = 0
	}
	if k < 1 {
		k = 1
	}
	if k > cs.remaining {
		k = cs.remaining
	}
	cs.remaining -= k
	return k
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// apportionInto is apportion (largest-remainder, no floor) into caller
// buffers: dst receives the integer shares, frac and order are scratch.
// All four slices have the same length; nothing is allocated.
func apportionInto(dst []int, raw []float64, total int, frac []float64, order []int) {
	n := len(raw)
	for i := range dst {
		dst[i] = 0
	}
	if n == 0 || total <= 0 {
		return
	}
	sum := 0.0
	for _, r := range raw {
		sum += r
	}
	used := 0
	for i, r := range raw {
		share := float64(total) / float64(n)
		if sum > 0 {
			share = float64(total) * r / sum
		}
		fl := math.Floor(share + 1e-12)
		dst[i] = int(fl)
		frac[i] = share - fl
		order[i] = i
		used += int(fl)
	}
	sortByFracDesc(order, frac)
	for i := 0; i < total-used; i++ {
		dst[order[i%n]]++
	}
}
