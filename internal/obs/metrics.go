package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"

	"ompsscluster/internal/metrics"
	"ompsscluster/internal/simtime"
)

// Metrics is the aggregate view of one (or several merged) event
// streams: monotonic counters, last-value gauges, and fixed-bucket
// latency/size histograms, all derived by replaying retained events.
type Metrics struct {
	Counters   map[string]uint64
	Gauges     map[string]float64
	Histograms map[string]*metrics.Histogram
}

// Histogram bucket ladders. Durations are in seconds (virtual), sizes in
// bytes; ladders are fixed so registries from different runs merge.
func newMetrics() *Metrics {
	secs := func() *metrics.Histogram { return metrics.NewHistogram(metrics.ExpBuckets(1e-6, 2, 24)) }
	return &Metrics{
		Counters: make(map[string]uint64),
		Gauges:   make(map[string]float64),
		Histograms: map[string]*metrics.Histogram{
			"task_exec_seconds":       secs(),
			"task_ready_wait_seconds": secs(),
			"msg_queue_wait_seconds":  secs(),
			"msg_inflight_seconds":    secs(),
			"collective_seconds":      secs(),
			"transfer_bytes":          metrics.NewHistogram(metrics.ExpBuckets(64, 4, 16)),
			"msg_bytes":               metrics.NewHistogram(metrics.ExpBuckets(64, 4, 16)),
			"sched_candidates":        metrics.NewHistogram(metrics.LinearBuckets(1, 1, 16)),
			"chunk_size_tasks":        metrics.NewHistogram(metrics.ExpBuckets(1, 2, 16)),
			"imbalance":               metrics.NewHistogram(metrics.LinearBuckets(1, 0.25, 20)),
		},
	}
}

// BuildMetrics replays r's retained events into a fresh registry in one
// pass over the ring, in place. Events dropped from the ring are
// reported in the events_dropped counter; lifecycle pairs whose opening
// half was dropped are skipped.
func BuildMetrics(r *Recorder) *Metrics {
	m := newMetrics()
	if r == nil {
		return m
	}
	type taskKey struct {
		apprank int32
		id      int64
	}
	readyAt := make(map[taskKey]int64)
	startAt := make(map[taskKey]int64)
	var kinds [numKinds]uint64
	var last simtime.Time
	hTransfer := m.Histograms["transfer_bytes"]
	hCandidates := m.Histograms["sched_candidates"]
	hReadyWait := m.Histograms["task_ready_wait_seconds"]
	hExec := m.Histograms["task_exec_seconds"]
	hMsgBytes := m.Histograms["msg_bytes"]
	hQueueWait := m.Histograms["msg_queue_wait_seconds"]
	hInflight := m.Histograms["msg_inflight_seconds"]
	hCollective := m.Histograms["collective_seconds"]
	hChunk := m.Histograms["chunk_size_tasks"]
	hImbalance := m.Histograms["imbalance"]
	for i, n := 0, r.retained(); i < n; i++ {
		e := r.at(i)
		kinds[e.Kind]++
		last = max(last, e.T)
		switch e.Kind {
		case KindTaskReady:
			readyAt[taskKey{e.Apprank, e.ID}] = int64(e.T)
		case KindTaskScheduled:
			m.Counters["transfer_bytes_total"] += uint64(e.A)
			if e.A > 0 {
				hTransfer.Observe(float64(e.A))
			}
		case KindSchedDecision:
			hCandidates.Observe(float64(e.B))
			switch e.D {
			case SchedBest:
				m.Counters["sched_locality_best"]++
			case SchedAlt:
				m.Counters["sched_locality_alt"]++
			case SchedQueued:
				m.Counters["sched_queued"]++
			}
		case KindExecStart:
			k := taskKey{e.Apprank, e.ID}
			startAt[k] = int64(e.T)
			if readyT, ok := readyAt[k]; ok {
				hReadyWait.Observe(float64(int64(e.T)-readyT) / 1e9)
				delete(readyAt, k)
			}
			if e.B != 0 {
				m.Counters["exec_on_borrowed_core"]++
			}
		case KindExecEnd:
			k := taskKey{e.Apprank, e.ID}
			if startT, ok := startAt[k]; ok {
				hExec.Observe(float64(int64(e.T)-startT) / 1e9)
				delete(startAt, k)
			}
		case KindMsgPost:
			m.Counters["msg_bytes_total"] += uint64(e.D)
			if e.D > 0 {
				hMsgBytes.Observe(float64(e.D))
			}
		case KindMsgMatch:
			hQueueWait.Observe(float64(e.C) / 1e9)
			hInflight.Observe(float64(e.D) / 1e9)
		case KindCtlMsg:
			m.Counters["ctl_bytes_total"] += uint64(e.C)
		case KindCollective:
			hCollective.Observe(float64(int64(e.T)-e.A) / 1e9)
		case KindOwnSet:
			if e.B != e.C {
				m.Counters["ownership_changes"]++
			}
		case KindCoreBorrow:
			m.Counters["core_borrows"]++
		case KindCoreReturn:
			m.Counters["core_returns"]++
		case KindFaultInject:
			m.Counters["faults_injected"]++
		case KindFaultRecover:
			m.Counters["faults_recovered"]++
		case KindReoffload:
			m.Counters["reoffloads"]++
			if e.C != 0 {
				m.Counters["reoffload_local_fallbacks"]++
			}
		case KindMsgDrop:
			m.Counters["msg_drops"]++
		case KindChunkGrant:
			m.Counters["chunk_grants"]++
			m.Counters["chunk_tasks_granted"] += uint64(e.B)
			hChunk.Observe(float64(e.B))
		case KindImbalance:
			v := e.ImbalanceValue()
			hImbalance.Observe(v)
			m.Gauges["imbalance_last"] = v
		}
	}
	for k, n := range kinds {
		if n > 0 {
			m.Counters["events_"+Kind(k).String()] = n
		}
	}
	m.Counters["events_dropped"] = r.Dropped()
	m.Gauges["trace_end_seconds"] = last.Seconds()
	return m
}

// Merge folds o into m: counters add, gauges take o's value (last run
// wins), histograms merge bucket-wise.
func (m *Metrics) Merge(o *Metrics) error {
	for k, v := range o.Counters {
		m.Counters[k] += v
	}
	for k, v := range o.Gauges {
		m.Gauges[k] = v
	}
	for k, h := range o.Histograms {
		mine, ok := m.Histograms[k]
		if !ok {
			m.Histograms[k] = h
			continue
		}
		if err := mine.Merge(h); err != nil {
			return fmt.Errorf("metric %s: %w", k, err)
		}
	}
	return nil
}

// WriteJSON serialises the registry deterministically: map keys sorted,
// histograms rendered with bounds, bucket counts, and summary stats
// including interpolated p50/p90/p99.
func (m *Metrics) WriteJSON(w io.Writer) error {
	var b []byte
	b = append(b, "{\n  \"counters\": {"...)
	b = appendSortedU64(b, m.Counters)
	b = append(b, "},\n  \"gauges\": {"...)
	b = appendSortedF64(b, m.Gauges)
	b = append(b, "},\n  \"histograms\": {"...)
	names := make([]string, 0, len(m.Histograms))
	for k := range m.Histograms {
		names = append(names, k)
	}
	sort.Strings(names)
	for i, name := range names {
		if i > 0 {
			b = append(b, ',')
		}
		h := m.Histograms[name]
		b = append(b, "\n    "...)
		b = strconv.AppendQuote(b, name)
		b = append(b, ": {\"count\": "...)
		b = strconv.AppendUint(b, h.Count(), 10)
		b = appendF64Field(b, "sum", h.Sum())
		b = appendF64Field(b, "min", h.Min())
		b = appendF64Field(b, "max", h.Max())
		b = appendF64Field(b, "mean", h.Mean())
		b = appendF64Field(b, "p50", h.Quantile(0.5))
		b = appendF64Field(b, "p90", h.Quantile(0.9))
		b = appendF64Field(b, "p99", h.Quantile(0.99))
		b = append(b, ", \"bounds\": ["...)
		for j, v := range h.Bounds() {
			if j > 0 {
				b = append(b, ',')
			}
			b = appendF64(b, v)
		}
		b = append(b, "], \"buckets\": ["...)
		for j, c := range h.BucketCounts() {
			if j > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendUint(b, c, 10)
		}
		b = append(b, "]}"...)
	}
	if len(names) > 0 {
		b = append(b, "\n  "...)
	}
	b = append(b, "}\n}\n"...)
	_, err := w.Write(b)
	return err
}

func appendSortedU64(b []byte, m map[string]uint64) []byte {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for i, k := range keys {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, "\n    "...)
		b = strconv.AppendQuote(b, k)
		b = append(b, ": "...)
		b = strconv.AppendUint(b, m[k], 10)
	}
	if len(keys) > 0 {
		b = append(b, "\n  "...)
	}
	return b
}

func appendSortedF64(b []byte, m map[string]float64) []byte {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for i, k := range keys {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, "\n    "...)
		b = strconv.AppendQuote(b, k)
		b = append(b, ": "...)
		b = appendF64(b, m[k])
	}
	if len(keys) > 0 {
		b = append(b, "\n  "...)
	}
	return b
}

func appendF64Field(b []byte, name string, v float64) []byte {
	b = append(b, ", \""...)
	b = append(b, name...)
	b = append(b, "\": "...)
	return appendF64(b, v)
}

func appendF64(b []byte, v float64) []byte {
	return strconv.AppendFloat(b, v, 'g', 12, 64)
}
