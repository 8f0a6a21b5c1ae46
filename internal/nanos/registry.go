package nanos

import "sort"

// interval is a maximal byte range with homogeneous access history: the
// last writing task (nil if it already completed or never existed) and the
// readers since that write. writerNode remembers where the last writer
// executed even after the task itself is released, for data-locality
// queries.
type interval struct {
	start, end  uint64
	lastWriter  *Task
	writerNode  int
	readers     []*Task
	concurrents []*Task // current concurrent-clause group
}

// registry is a sorted list of disjoint intervals covering every byte
// range accessed so far. Lookups go through a last-hit cursor (workloads
// sweep regions in address order) with a binary-search fallback; each
// access rebuilds the affected span with a single splice; adjacent
// intervals left with identical history are coalesced, so the structure
// shrinks back as regions are rewritten. Completed tasks are dropped
// lazily whenever an interval is touched, so memory tracks the live task
// set, not history.
type registry struct {
	ivs     []interval
	scratch []interval // reusable span-rebuild buffer for addAccess
	cursor  int        // last findFirst hit, a hint only
	hiwater int        // maximum len(ivs) ever reached
	qgen    int64      // writers() query generation for O(n) dedup
}

// findFirst returns the index of the first interval with end > addr. The
// cursor exploits spatial locality: sweeps in address order hit the same
// or the next interval, skipping the binary search.
func (r *registry) findFirst(addr uint64) int {
	n := len(r.ivs)
	if c := r.cursor; c < n {
		if r.ivs[c].end > addr {
			if c == 0 || r.ivs[c-1].end <= addr {
				return c
			}
		} else if c+1 < n && r.ivs[c+1].end > addr {
			r.cursor = c + 1
			return c + 1
		}
	}
	i := sort.Search(n, func(i int) bool { return r.ivs[i].end > addr })
	r.cursor = i
	return i
}

// scrub drops completed tasks from an interval's history, preserving the
// writer's execution node.
func (iv *interval) scrub() {
	if iv.lastWriter != nil && iv.lastWriter.state == Completed {
		iv.writerNode = iv.lastWriter.ExecNode
		iv.lastWriter = nil
	}
	live := iv.readers[:0]
	for _, t := range iv.readers {
		if t.state != Completed {
			live = append(live, t)
		}
	}
	iv.readers = live
	if len(iv.readers) == 0 {
		iv.readers = nil
	}
	liveC := iv.concurrents[:0]
	for _, t := range iv.concurrents {
		if t.state != Completed {
			liveC = append(liveC, t)
		}
	}
	iv.concurrents = liveC
	if len(iv.concurrents) == 0 {
		iv.concurrents = nil
	}
}

// liveNode resolves the node currently holding an interval's bytes: the
// writer's execution node once it started (or the recorded node if the
// writer was already released), -1 while the location is unknown.
func (iv *interval) liveNode() int {
	if iv.lastWriter != nil {
		if s := iv.lastWriter.state; s == Completed || s == Running {
			return iv.lastWriter.ExecNode
		}
		return -1
	}
	return iv.writerNode
}

// sameHistory reports whether two intervals carry identical access
// history, so that adjacent ones may merge without changing semantics.
func sameHistory(a, b *interval) bool {
	if a.lastWriter != b.lastWriter || a.writerNode != b.writerNode ||
		len(a.readers) != len(b.readers) || len(a.concurrents) != len(b.concurrents) {
		return false
	}
	for i := range a.readers {
		if a.readers[i] != b.readers[i] {
			return false
		}
	}
	for i := range a.concurrents {
		if a.concurrents[i] != b.concurrents[i] {
			return false
		}
	}
	return true
}

// appendMerged appends iv to span, extending the previous element instead
// when it is adjacent with identical history. This is what keeps the
// registry from growing monotonically: a write access leaves every piece
// it touched with the same fresh history, so the whole span collapses
// back into one interval.
func appendMerged(span []interval, iv interval) []interval {
	if n := len(span); n > 0 && span[n-1].end == iv.start && sameHistory(&span[n-1], &iv) {
		span[n-1].end = iv.end
		return span
	}
	return append(span, iv)
}

func copyTasks(ts []*Task) []*Task {
	if len(ts) == 0 {
		return nil
	}
	return append([]*Task(nil), ts...)
}

// addAccess records task t's access a, adding dependency edges against the
// current interval history and updating it. The affected span of the
// interval list is rebuilt in a scratch buffer — partial head/tail
// overlaps split, gaps filled, touched intervals scrubbed and updated,
// identical-history neighbours coalesced — and spliced back with one
// copy, instead of one O(n) memmove per created interval.
func (r *registry) addAccess(t *Task, a Access) {
	start, end := a.Region.Start, a.Region.End
	if start >= end {
		return // empty access
	}
	lo := r.findFirst(start)
	span := r.scratch[:0]
	pos := start
	i := lo
	// An interval straddling start keeps its head piece unchanged; the
	// remainder re-enters the walk with a private copy of the history.
	if i < len(r.ivs) && r.ivs[i].start < start {
		head := r.ivs[i]
		rest := head
		head.end = start
		rest.start = start
		rest.readers = copyTasks(head.readers)
		rest.concurrents = copyTasks(head.concurrents)
		span = append(span, head)
		span = r.applyOverlapped(span, rest, t, a.Mode, end)
		pos = min64(rest.end, end)
		i++
	}
	for pos < end {
		if i == len(r.ivs) || r.ivs[i].start >= end {
			// Trailing gap: cover it.
			iv := interval{start: pos, end: end, writerNode: -1}
			r.applyAccess(&iv, t, a.Mode)
			span = appendMerged(span, iv)
			pos = end
			break
		}
		next := r.ivs[i]
		if next.start > pos {
			// Gap before the next interval: cover it.
			gap := interval{start: pos, end: next.start, writerNode: -1}
			r.applyAccess(&gap, t, a.Mode)
			span = appendMerged(span, gap)
			pos = next.start
		}
		span = r.applyOverlapped(span, next, t, a.Mode, end)
		pos = min64(next.end, end)
		i++
	}
	r.splice(lo, i, span)
}

// applyOverlapped scrubs and applies the access to an existing interval
// known to start inside [_, end); an interval extending past end is split,
// its tail keeping a private, untouched copy of the history.
func (r *registry) applyOverlapped(span []interval, iv interval, t *Task, mode AccessMode, end uint64) []interval {
	if iv.end > end {
		tail := iv
		tail.start = end
		tail.readers = copyTasks(iv.readers)
		tail.concurrents = copyTasks(iv.concurrents)
		iv.end = end
		iv.scrub()
		r.applyAccess(&iv, t, mode)
		span = appendMerged(span, iv)
		return append(span, tail)
	}
	iv.scrub()
	r.applyAccess(&iv, t, mode)
	return appendMerged(span, iv)
}

// splice replaces r.ivs[lo:hi] with span in a single copy, after widening
// the window to absorb boundary neighbours that coalesce with the span's
// edges. The scratch buffer is recycled for the next access.
func (r *registry) splice(lo, hi int, span []interval) {
	if len(span) > 0 {
		if lo > 0 && r.ivs[lo-1].end == span[0].start && sameHistory(&r.ivs[lo-1], &span[0]) {
			lo--
			span[0].start = r.ivs[lo].start
		}
		if last := &span[len(span)-1]; hi < len(r.ivs) && r.ivs[hi].start == last.end && sameHistory(&r.ivs[hi], last) {
			last.end = r.ivs[hi].end
			hi++
		}
	}
	old := hi - lo
	switch {
	case len(span) == old:
		copy(r.ivs[lo:hi], span)
	case len(span) < old:
		copy(r.ivs[lo:], span)
		n := lo + len(span) + copy(r.ivs[lo+len(span):], r.ivs[hi:])
		clear(r.ivs[n:]) // release task pointers past the new end
		r.ivs = r.ivs[:n]
	default:
		grow := len(span) - old
		for k := 0; k < grow; k++ {
			r.ivs = append(r.ivs, interval{})
		}
		copy(r.ivs[hi+grow:], r.ivs[hi:len(r.ivs)-grow])
		copy(r.ivs[lo:], span)
	}
	if len(r.ivs) > r.hiwater {
		r.hiwater = len(r.ivs)
	}
	// Point the cursor at the span's tail: the next access or locality
	// query usually continues right after this one.
	if c := lo + len(span) - 1; c >= 0 {
		r.cursor = c
	}
	clear(span) // drop stale task pointers held by the scratch buffer
	r.scratch = span[:0]
}

// applyAccess adds dependency edges from the interval's history to t and
// updates the history for t's access mode.
//
// The concurrent clause forms a group ordered against readers and
// writers on both sides but unordered internally: a concurrent access
// depends on the last writer and the readers so far; subsequent readers
// and writers depend on every member of the group.
func (r *registry) applyAccess(iv *interval, t *Task, mode AccessMode) {
	switch mode {
	case In:
		if len(iv.concurrents) > 0 {
			for _, c := range iv.concurrents {
				addEdge(c, t)
			}
		} else if iv.lastWriter != nil {
			addEdge(iv.lastWriter, t)
		}
		if n := len(iv.readers); n == 0 || iv.readers[n-1] != t {
			iv.readers = append(iv.readers, t)
		}
	case Concurrent:
		if iv.lastWriter != nil {
			addEdge(iv.lastWriter, t)
		}
		for _, rd := range iv.readers {
			addEdge(rd, t)
		}
		if n := len(iv.concurrents); n == 0 || iv.concurrents[n-1] != t {
			iv.concurrents = append(iv.concurrents, t)
		}
	case Out, InOut:
		if iv.lastWriter != nil {
			addEdge(iv.lastWriter, t)
		}
		for _, rd := range iv.readers {
			addEdge(rd, t)
		}
		for _, c := range iv.concurrents {
			addEdge(c, t)
		}
		iv.lastWriter = t
		iv.writerNode = -1
		iv.readers = nil
		iv.concurrents = nil
	}
}

// locationVec accumulates, into dst, the bytes of region reg residing on
// each node according to the last writers, and the bytes of unknown
// location. The walk allocates nothing.
func (r *registry) locationVec(reg Region, dst *LocVec) {
	if reg.Start >= reg.End {
		return
	}
	pos := reg.Start
	i := r.findFirst(pos)
	for pos < reg.End {
		if i == len(r.ivs) || r.ivs[i].start >= reg.End {
			dst.unknown += int64(reg.End - pos)
			return
		}
		iv := &r.ivs[i]
		if iv.start > pos {
			dst.unknown += int64(iv.start - pos)
			pos = iv.start
		}
		end := min64(iv.end, reg.End)
		dst.add(iv.liveNode(), int64(end-pos))
		pos = end
		r.cursor = i
		i++
	}
}

// location accumulates, into dst, the bytes of region reg residing on each
// node according to the last writers, keyed by node id. Bytes with unknown
// location count under node -1. This is the map-shaped convenience used by
// DataLocation; the scheduler's hot path uses locationVec.
func (r *registry) location(reg Region, dst map[int]int64) {
	if reg.Start >= reg.End {
		return
	}
	pos := reg.Start
	i := r.findFirst(pos)
	for pos < reg.End {
		if i == len(r.ivs) || r.ivs[i].start >= reg.End {
			dst[-1] += int64(reg.End - pos)
			return
		}
		iv := &r.ivs[i]
		if iv.start > pos {
			dst[-1] += int64(iv.start - pos)
			pos = iv.start
		}
		end := min64(iv.end, reg.End)
		dst[iv.liveNode()] += int64(end - pos)
		pos = end
		r.cursor = i
		i++
	}
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

// numIntervals reports the interval count (for tests).
func (r *registry) numIntervals() int { return len(r.ivs) }

// highWater reports the maximum interval count the registry ever held.
func (r *registry) highWater() int { return r.hiwater }

// writers returns the distinct live last-writer tasks overlapping reg.
// Dedup is O(1) per interval via a per-query generation mark on the task.
func (r *registry) writers(reg Region) []*Task {
	r.qgen++
	var out []*Task
	for i := r.findFirst(reg.Start); i < len(r.ivs) && r.ivs[i].start < reg.End; i++ {
		w := r.ivs[i].lastWriter
		if w == nil || w.queryMark == r.qgen {
			continue
		}
		w.queryMark = r.qgen
		out = append(out, w)
	}
	return out
}
