package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Chrome Trace Format export: one JSON document loadable in Perfetto
// (https://ui.perfetto.dev) or chrome://tracing. Track layout, per
// recorder i with pid base i*10000:
//
//   - pid base+node        — execution on that node. One thread lane per
//     concurrently running task slot ("core N"), assigned greedily so a
//     lane never holds two overlapping slices; task executions are B/E
//     duration slices. tid 999 is the DLB ownership track (own_set /
//     core_borrow / core_return instants), tid 997 the runtime
//     control-message track, and tid 993 the self-scheduling
//     chunk-server track (chunk-grant instants).
//   - pid base+5000+rank   — per-apprank causality. tid 0: task
//     lifecycle instants (created, ready, scheduled); tid 1: scheduler
//     decisions; tid 2: message events (matched sends as async b/e
//     spans named by tag, deliveries as instants); tid 3: collectives
//     as complete "X" slices spanning entry to exit.
//   - pid base+9000        — sampled gauges as "C" counter events
//     (imbalance).
//
// Timestamps are virtual nanoseconds divided by 1000 (the format wants
// microseconds) with three decimals, so nothing is rounded away.
//
// The export streams in two passes over each recorder's ring, read in
// place. The first collects the set of named tracks (running the lane
// assignment, since lanes name the "core N" threads) and which span
// halves are retained; the second writes the sorted track metadata and
// then every event straight into one reused buffer that is flushed to
// the destination as it fills. Memory beyond the rings is O(tracks),
// the span tables (O(retained messages and faults)) and the buffer.

const (
	chromeApprankPid = 5000
	chromeCounterPid = 9000
	chromeDlbTid     = 999
	chromeCtlTid     = 997
	chromeFaultTid   = 995
	chromeChunkTid   = 993
	pidStride        = 10000
)

// chromeBufSize is the size at which the write buffer is flushed.
const chromeBufSize = 64 << 10

// maxExactTs bounds |ns| for which appendTs formats with integers: below
// 1000·2^43 ns the rounding error of float64(ns)/1e3 stays under 2^-11
// µs, so rounding to three decimals recovers the exact quotient.
const maxExactTs = 1000 << 43

// appendTs renders virtual nanoseconds as microseconds with nanosecond
// precision preserved, byte-identical to
// strconv.FormatFloat(float64(ns)/1e3, 'f', 3, 64).
func appendTs(b []byte, ns int64) []byte {
	if ns <= -maxExactTs || ns >= maxExactTs {
		return strconv.AppendFloat(b, float64(ns)/1e3, 'f', 3, 64)
	}
	if ns < 0 {
		b = append(b, '-')
		ns = -ns
	}
	b = strconv.AppendInt(b, ns/1000, 10)
	f := ns % 1000
	return append(b, '.', byte('0'+f/100), byte('0'+f/10%10), byte('0'+f%10))
}

// appendG renders v as fmt's %g does.
func appendG(b []byte, v float64) []byte { return strconv.AppendFloat(b, v, 'g', -1, 64) }

// laneTable assigns overlapping task executions on one node to stable
// "core" lanes: ExecStart takes the lowest free lane, ExecEnd frees it.
type laneTable struct {
	busy  []bool
	byKey map[int64]int // (apprank<<32|taskID-ish) -> lane
}

func laneKey(e *Event) int64 { return int64(e.Apprank)<<40 ^ e.ID }

func (lt *laneTable) start(e *Event) int {
	for i, b := range lt.busy {
		if !b {
			lt.busy[i] = true
			lt.byKey[laneKey(e)] = i
			return i
		}
	}
	lt.busy = append(lt.busy, true)
	i := len(lt.busy) - 1
	lt.byKey[laneKey(e)] = i
	return i
}

func (lt *laneTable) end(e *Event) (int, bool) {
	i, ok := lt.byKey[laneKey(e)]
	if !ok {
		return 0, false
	}
	delete(lt.byKey, laneKey(e))
	lt.busy[i] = false
	return i, true
}

// laneTables holds one lane table per node.
type laneTables map[int32]*laneTable

func (ls laneTables) of(node int32) *laneTable {
	lt, ok := ls[node]
	if !ok {
		lt = &laneTable{byKey: make(map[int64]int)}
		ls[node] = lt
	}
	return lt
}

// trackKey names one track's metadata line. tid < 0 marks a process:
// name is "node", "apprank" or "metrics", rendered after the recorder's
// label prefix with the node or apprank number the pid encodes.
// Otherwise name is the thread's, "" standing for a "core <tid>" lane.
type trackKey struct {
	ri, pid, tid int
	name         string
}

// line renders k's metadata line; prefix is its recorder's label prefix.
func (k trackKey) line(prefix string) string {
	if k.tid >= 0 {
		name := k.name
		if name == "" {
			name = "core " + strconv.Itoa(k.tid)
		}
		return fmt.Sprintf(`{"ph":"M","pid":%d,"tid":%d,"name":"thread_name","args":{"name":%s}}`, k.pid, k.tid, strconv.Quote(name))
	}
	name := prefix + k.name
	switch n := k.pid - k.ri*pidStride; k.name {
	case "node":
		name += strconv.Itoa(n)
	case "apprank":
		name += strconv.Itoa(n - chromeApprankPid)
	}
	return fmt.Sprintf(`{"ph":"M","pid":%d,"tid":0,"name":"process_name","args":{"name":%s}}`, k.pid, strconv.Quote(name))
}

// Span-half flags, per message id or fault plan index.
const (
	spanClosed uint8 = 1 << iota // the closing half is retained
	spanOpened                   // the opening half was written as a span
)

// chromeRec is one recorder's export state between the two passes.
type chromeRec struct {
	r       *Recorder
	ri      int
	pidBase int
	msgs    map[int64]uint8 // message id -> span flags
	faults  map[int64]uint8 // fault plan index -> span flags
	maxT    int64
}

func (x *chromeRec) nodePid(node int32) int { return x.pidBase + int(node) }
func (x *chromeRec) rankPid(rank int32) int { return x.pidBase + chromeApprankPid + int(rank) }

// WriteChrome exports the recorders' retained events as one Chrome
// trace. labels (one per recorder, optional) prefix the process names so
// multi-configuration bundles — e.g. fig9's baseline/LeWI/DROM runs —
// stay distinguishable in a single Perfetto view. The first error
// returned by w ends the export, and is returned.
func WriteChrome(w io.Writer, recs []*Recorder, labels []string) error {
	tracks := make(map[trackKey]struct{})
	prefixes := make([]string, len(recs))
	xs := make([]*chromeRec, 0, len(recs))
	for ri, r := range recs {
		if r == nil {
			continue
		}
		if ri < len(labels) && labels[ri] != "" {
			prefixes[ri] = labels[ri] + "/"
		}
		x := &chromeRec{r: r, ri: ri, pidBase: ri * pidStride,
			msgs: make(map[int64]uint8), faults: make(map[int64]uint8)}
		x.scan(tracks)
		xs = append(xs, x)
	}
	meta := make([]string, 0, len(tracks))
	for k := range tracks {
		meta = append(meta, k.line(prefixes[k.ri]))
	}
	sort.Strings(meta)
	// Recorders share a pid only past pidStride nodes, but then their
	// keys can render alike; the trace names each track once.
	meta = slices.Compact(meta)

	c := &chromeEnc{w: w, b: make([]byte, 0, chromeBufSize+4<<10)}
	c.raw("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")
	for _, m := range meta {
		c.line()
		c.raw(m)
	}
	for _, x := range xs {
		c.writeRecorder(x)
	}
	c.raw("\n]}\n")
	c.flush()
	return c.err
}

// scan is the first pass: it adds x's named tracks to tracks, marks
// which span halves are retained and finds the last timestamp.
func (x *chromeRec) scan(tracks map[trackKey]struct{}) {
	node := func(node int32, tid int, name string) {
		pid := x.nodePid(node)
		tracks[trackKey{x.ri, pid, -1, "node"}] = struct{}{}
		tracks[trackKey{x.ri, pid, tid, name}] = struct{}{}
	}
	rank := func(rank int32, tid int, name string) {
		pid := x.rankPid(rank)
		tracks[trackKey{x.ri, pid, -1, "apprank"}] = struct{}{}
		tracks[trackKey{x.ri, pid, tid, name}] = struct{}{}
	}
	lanes := laneTables{}
	for i, n := 0, x.r.retained(); i < n; i++ {
		e := x.r.at(i)
		x.maxT = max(x.maxT, int64(e.T))
		switch e.Kind {
		case KindExecStart:
			node(e.Node, lanes.of(e.Node).start(e), "")
		case KindExecEnd:
			lanes.of(e.Node).end(e)
		case KindOwnSet, KindCoreBorrow, KindCoreReturn:
			node(e.Node, chromeDlbTid, "dlb ownership")
		case KindTaskCreated, KindTaskReady, KindTaskScheduled:
			rank(e.Apprank, 0, "task lifecycle")
		case KindSchedDecision, KindReoffload:
			rank(e.Apprank, 1, "scheduler")
		case KindMsgPost, KindMsgDeliver, KindMsgDrop:
			rank(int32(e.B), 2, "messages")
		case KindMsgMatch:
			x.msgs[e.ID] |= spanClosed
		case KindCtlMsg:
			node(e.Node, chromeCtlTid, "ctl messages")
		case KindCollective:
			rank(e.Apprank, 3, "collectives")
		case KindFaultInject, KindFaultRecover:
			// Node-scoped faults land on the node's "faults" track;
			// apprank-scoped ones (stall) on the apprank's.
			if e.Node >= 0 {
				node(e.Node, chromeFaultTid, "faults")
			} else {
				rank(e.Apprank, 4, "faults")
			}
			if e.Kind == KindFaultRecover {
				x.faults[e.ID] |= spanClosed
			}
		case KindChunkGrant:
			node(e.Node, chromeChunkTid, "chunk server")
		case KindImbalance, KindPOPWindow:
			tracks[trackKey{x.ri, x.pidBase + chromeCounterPid, -1, "metrics"}] = struct{}{}
		}
	}
}

// chromeEnc streams trace lines through one reused buffer. The first
// write error is kept; nothing is written after it.
type chromeEnc struct {
	w   io.Writer
	b   []byte
	err error
	sep bool // a line was written: the next one needs a separator
}

func (c *chromeEnc) flush() {
	if c.err == nil && len(c.b) > 0 {
		_, c.err = c.w.Write(c.b)
	}
	c.b = c.b[:0]
}

// line starts a trace line, flushing the buffer first once it is full.
func (c *chromeEnc) line() {
	if len(c.b) >= chromeBufSize {
		c.flush()
	}
	if c.sep {
		c.b = append(c.b, ",\n"...)
	}
	c.sep = true
}

func (c *chromeEnc) raw(s string)   { c.b = append(c.b, s...) }
func (c *chromeEnc) quote(s string) { c.b = strconv.AppendQuote(c.b, s) }

// put appends tmpl with each '%' replaced by the next value in decimal.
func (c *chromeEnc) put(tmpl string, vals ...int64) {
	b := c.b
	for _, v := range vals {
		i := strings.IndexByte(tmpl, '%')
		b = strconv.AppendInt(append(b, tmpl[:i]...), v, 10)
		tmpl = tmpl[i+1:]
	}
	c.b = append(b, tmpl...)
}

// head starts a line with its phase, track and timestamp.
func (c *chromeEnc) head(ph string, pid, tid int, ns int64) {
	c.line()
	c.raw(`{"ph":"`)
	c.raw(ph)
	c.put(`","pid":%,"tid":%,"ts":`, int64(pid), int64(tid))
	c.b = appendTs(c.b, ns)
}

// instant starts a thread-scoped instant, up to its name's value.
func (c *chromeEnc) instant(pid, tid int, ns int64) {
	c.head("i", pid, tid, ns)
	c.raw(`,"s":"t","name":`)
}

// writeRecorder is the second pass over one recorder. Async-span ids
// carry the recorder index so they stay unique across the file.
func (c *chromeEnc) writeRecorder(x *chromeRec) {
	ri := int64(x.ri)
	lanes := laneTables{}
	for i, n := 0, x.r.retained(); i < n && c.err == nil; i++ {
		e := x.r.at(i)
		t := int64(e.T)
		switch e.Kind {
		case KindExecStart:
			c.head("B", x.nodePid(e.Node), lanes.of(e.Node).start(e), t)
			c.raw(`,"name":`)
			if e.Label != "" {
				c.quote(e.Label)
			} else {
				c.put(`"task %"`, e.ID)
			}
			c.put(`,"cat":"task","args":{"apprank":%,"task":%,"worker":%,"borrowed":`, int64(e.Apprank), e.ID, e.A)
			c.raw(strconv.FormatBool(e.B != 0))
			c.raw("}}")
		case KindExecEnd:
			tid, ok := lanes.of(e.Node).end(e)
			if !ok {
				continue // end without a recorded start (ring wrapped)
			}
			c.head("E", x.nodePid(e.Node), tid, t)
			c.raw("}")
		case KindOwnSet:
			c.instant(x.nodePid(e.Node), chromeDlbTid, t)
			c.put(`"own core%: %->%","cat":"dlb","args":{"apprank":%,"worker":%,"old_owned":%,"new_owned":%}}`,
				e.A, e.B, e.C, int64(e.Apprank), e.A, e.B, e.C)
		case KindCoreBorrow:
			c.instant(x.nodePid(e.Node), chromeDlbTid, t)
			c.put(`"borrow core%","cat":"dlb","args":{"apprank":%,"worker":%,"running":%}}`, e.A, int64(e.Apprank), e.A, e.B)
		case KindCoreReturn:
			c.instant(x.nodePid(e.Node), chromeDlbTid, t)
			c.put(`"return core%","cat":"dlb","args":{"apprank":%,"worker":%,"running":%}}`, e.A, int64(e.Apprank), e.A, e.B)
		case KindTaskCreated:
			c.instant(x.rankPid(e.Apprank), 0, t)
			c.put(`"created %","cat":"lifecycle","args":{"task":%,"access_bytes":%}}`, e.ID, e.ID, e.A)
		case KindTaskReady:
			c.instant(x.rankPid(e.Apprank), 0, t)
			c.put(`"ready %","cat":"lifecycle","args":{"task":%}}`, e.ID, e.ID)
		case KindTaskScheduled:
			c.instant(x.rankPid(e.Apprank), 0, t)
			c.put(`"scheduled % -> node%","cat":"lifecycle","args":{"task":%,"node":%,"moved_bytes":%,"transfer_ns":%}}`,
				e.ID, int64(e.Node), e.ID, int64(e.Node), e.A, e.B)
		case KindSchedDecision:
			outcome := [...]string{"best", "alt", "queued"}[e.D]
			c.instant(x.rankPid(e.Apprank), 1, t)
			c.raw(`"sched `)
			c.raw(outcome)
			c.put(`","cat":"sched","args":{"task":%,"winner_node":%,"candidates":%,"local_bytes":%,"outcome":"`, e.ID, e.A, e.B, e.C)
			c.raw(outcome)
			c.raw(`"}}`)
		case KindMsgPost:
			pid := x.rankPid(int32(e.B))
			if f := x.msgs[e.ID]; f&spanClosed != 0 {
				x.msgs[e.ID] = f | spanOpened
				c.head("b", pid, 2, t)
				c.put(`,"cat":"msg","id":"%.%","name":"msg tag%","args":{"src":%,"dst":%,"tag":%,"bytes":%}}`,
					ri, e.ID, e.C, e.A, e.B, e.C, e.D)
			} else {
				c.instant(pid, 2, t)
				c.put(`"post tag%","cat":"msg","args":{"src":%,"dst":%,"tag":%,"bytes":%}}`, e.C, e.A, e.B, e.C, e.D)
			}
		case KindMsgDeliver:
			c.instant(x.rankPid(int32(e.B)), 2, t)
			c.put(`"deliver tag%","cat":"msg","args":{"src":%,"dst":%,"tag":%,"bytes":%}}`, e.C, e.A, e.B, e.C, e.D)
		case KindMsgMatch:
			if x.msgs[e.ID]&spanOpened == 0 {
				continue // the post fell off the ring; no span to close
			}
			c.head("e", x.rankPid(int32(e.B)), 2, t)
			c.put(`,"cat":"msg","id":"%.%","args":{"queue_wait_ns":%,"inflight_ns":%}}`, ri, e.ID, e.C, e.D)
		case KindCtlMsg:
			c.instant(x.nodePid(e.Node), chromeCtlTid, t)
			c.put(`"ctl","cat":"msg","args":{"from_node":%,"to_node":%,"bytes":%}}`, e.A, e.B, e.C)
		case KindCollective:
			c.head("X", x.rankPid(e.Apprank), 3, e.A)
			c.raw(`,"dur":`)
			c.b = appendTs(c.b, max(t-e.A, 0))
			c.raw(`,"name":`)
			c.quote(e.Label)
			c.put(`,"cat":"coll","args":{"bytes":%,"ranks":%}}`, e.B, e.C)
		case KindFaultInject, KindFaultRecover:
			pid, tid := x.nodePid(e.Node), chromeFaultTid
			if e.Node < 0 {
				pid, tid = x.rankPid(e.Apprank), 4
			}
			f := x.faults[e.ID]
			if e.Kind == KindFaultRecover {
				if f&spanOpened == 0 {
					continue // the inject fell off the ring; no span to close
				}
				c.head("e", pid, tid, t)
				c.put(`,"cat":"fault","id":"f%.%","args":{}}`, ri, e.ID)
				continue
			}
			if f&spanClosed != 0 {
				x.faults[e.ID] = f | spanOpened
				c.head("b", pid, tid, t)
				c.put(`,"cat":"fault","id":"f%.%","name":`, ri, e.ID)
				c.quote("fault " + e.Label)
			} else {
				c.instant(pid, tid, t)
				c.quote("fault " + e.Label)
				c.raw(`,"cat":"fault"`)
			}
			c.raw(`,"args":{"kind":`)
			c.quote(e.Label)
			c.put(`,"plan_event":%,"until_ns":%,"b":%,"c":%}}`, e.ID, e.A, e.B, e.C)
		case KindReoffload:
			c.instant(x.rankPid(e.Apprank), 1, t)
			c.put(`"reoffload %","cat":"sched","args":{"task":%,"old_node":%,"new_node":%,"attempt":%,"local":%}}`,
				e.ID, e.ID, e.A, int64(e.Node), e.B, e.C)
		case KindMsgDrop:
			c.instant(x.rankPid(int32(e.B)), 2, t)
			c.put(`"drop","cat":"msg","args":{"src":%,"dst":%,"attempt":%}}`, e.A, e.B, e.C)
		case KindChunkGrant:
			c.instant(x.nodePid(e.Node), chromeChunkTid, t)
			c.put(`"chunk %","cat":"sched","args":{"apprank":%,"worker":%,"tasks":%,"remaining":%}}`,
				e.B, int64(e.Apprank), e.A, e.B, e.C)
		case KindImbalance:
			c.head("C", x.pidBase+chromeCounterPid, 0, t)
			c.raw(`,"name":"imbalance","args":{"imbalance":`)
			c.b = appendG(c.b, e.ImbalanceValue())
			c.raw("}}")
		case KindPOPWindow:
			// Windowed POP series: one counter track per node in the
			// metrics process (tid 1+node keeps each node's samples
			// time-ordered within its own track; the events are stamped
			// with their window start, not the end-of-run emit time).
			c.head("C", x.pidBase+chromeCounterPid, 1+int(e.Node), t)
			c.put(`,"name":"PE node%","args":{"pe":`, int64(e.Node))
			c.b = appendG(c.b, e.POPValue())
			c.raw("}}")
		}
	}

	// Close any slice still open at trace end so B/E stay balanced: the
	// busy lanes, in (pid, tid) order.
	nodes := make([]int32, 0, len(lanes))
	for node := range lanes {
		nodes = append(nodes, node)
	}
	slices.Sort(nodes)
	for _, node := range nodes {
		for tid, busy := range lanes[node].busy {
			if busy {
				c.head("E", x.nodePid(node), tid, x.maxT)
				c.raw("}")
			}
		}
	}
}

// chromeEvent is the subset of fields ValidateChrome inspects.
type chromeEvent struct {
	Ph   string  `json:"ph"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	Cat  string  `json:"cat"`
	ID   string  `json:"id"`
	Name string  `json:"name"`
}

// ValidateChrome checks structural invariants of a Chrome trace produced
// by WriteChrome: every event has a known phase, timestamps are
// non-decreasing within each (pid, tid) track, B/E duration slices are
// balanced per track, and async b/e spans are balanced per (cat, id).
func ValidateChrome(data []byte) error {
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("chrome trace: not valid JSON: %w", err)
	}
	if len(doc.TraceEvents) == 0 {
		return fmt.Errorf("chrome trace: no events")
	}
	type track struct{ pid, tid int }
	lastTs := make(map[track]float64)
	depth := make(map[track]int)
	asyncOpen := make(map[string]int)
	for i, e := range doc.TraceEvents {
		switch e.Ph {
		case "M":
			continue
		case "B", "E", "X", "i", "b", "e", "C":
		default:
			return fmt.Errorf("chrome trace: event %d: unknown phase %q", i, e.Ph)
		}
		k := track{e.Pid, e.Tid}
		if last, ok := lastTs[k]; ok && e.Ts < last {
			return fmt.Errorf("chrome trace: event %d: ts %v before %v on pid=%d tid=%d",
				i, e.Ts, last, e.Pid, e.Tid)
		}
		lastTs[k] = e.Ts
		switch e.Ph {
		case "B":
			depth[k]++
		case "E":
			depth[k]--
			if depth[k] < 0 {
				return fmt.Errorf("chrome trace: event %d: E without B on pid=%d tid=%d", i, e.Pid, e.Tid)
			}
		case "b":
			asyncOpen[e.Cat+"/"+e.ID]++
		case "e":
			key := e.Cat + "/" + e.ID
			asyncOpen[key]--
			if asyncOpen[key] < 0 {
				return fmt.Errorf("chrome trace: event %d: async e without b for %s", i, key)
			}
		case "X":
			if e.Dur < 0 {
				return fmt.Errorf("chrome trace: event %d: negative duration %v", i, e.Dur)
			}
		}
	}
	for k, d := range depth {
		if d != 0 {
			return fmt.Errorf("chrome trace: unbalanced B/E (depth %d) on pid=%d tid=%d", d, k.pid, k.tid)
		}
	}
	for id, d := range asyncOpen {
		if d != 0 {
			return fmt.Errorf("chrome trace: unbalanced async span %s (depth %d)", id, d)
		}
	}
	return nil
}
