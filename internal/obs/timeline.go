package obs

import (
	"fmt"
	"sort"

	"ompsscluster/internal/simtime"
)

// Key identifies one timeline: apprank's activity on a node.
type Key struct {
	Node, Apprank int
}

func (k Key) String() string { return fmt.Sprintf("node%d/apprank%d", k.Node, k.Apprank) }

// Series is a right-continuous step function of time: a recorded value
// holds until the next record.
type Series struct {
	times  []simtime.Time
	values []float64
}

// Record appends a sample at time t. Times must be non-decreasing; a
// sample at an existing last time overwrites it.
func (s *Series) Record(t simtime.Time, v float64) {
	if n := len(s.times); n > 0 {
		if t < s.times[n-1] {
			panic(fmt.Sprintf("obs: time went backwards: %v after %v", t, s.times[n-1]))
		}
		if t == s.times[n-1] {
			s.values[n-1] = v
			return
		}
		if s.values[n-1] == v {
			return // no change; keep the series compact
		}
	}
	s.times = append(s.times, t)
	s.values = append(s.values, v)
}

// Len returns the number of stored samples.
func (s *Series) Len() int { return len(s.times) }

// ValueAt returns the value of the step function at time t (0 before the
// first sample).
func (s *Series) ValueAt(t simtime.Time) float64 {
	i := sort.Search(len(s.times), func(i int) bool { return s.times[i] > t })
	if i == 0 {
		return 0
	}
	return s.values[i-1]
}

// Integral returns the integral of the step function over [t0, t1].
func (s *Series) Integral(t0, t1 simtime.Time) float64 {
	if t1 <= t0 || len(s.times) == 0 {
		return 0
	}
	total := 0.0
	// Iterate segments overlapping [t0, t1].
	i := sort.Search(len(s.times), func(i int) bool { return s.times[i] > t0 })
	if i > 0 {
		i--
	}
	for ; i < len(s.times); i++ {
		segStart := s.times[i]
		if segStart < t0 {
			segStart = t0
		}
		segEnd := t1
		if i+1 < len(s.times) && s.times[i+1] < t1 {
			segEnd = s.times[i+1]
		}
		if segEnd > segStart {
			total += s.values[i] * float64(segEnd-segStart)
		}
		if i+1 < len(s.times) && s.times[i+1] >= t1 {
			break
		}
	}
	return total
}

// Average returns the time-average over [t0, t1].
func (s *Series) Average(t0, t1 simtime.Time) float64 {
	if t1 <= t0 {
		return 0
	}
	return s.Integral(t0, t1) / float64(t1-t0)
}

// Max returns the maximum recorded value.
func (s *Series) Max() float64 {
	m := 0.0
	for _, v := range s.values {
		if v > m {
			m = v
		}
	}
	return m
}

// Samples returns copies of the stored (time, value) pairs.
func (s *Series) Samples() ([]simtime.Time, []float64) {
	return append([]simtime.Time(nil), s.times...), append([]float64(nil), s.values...)
}

// timeline is one (node, apprank) pair's step series: the cores busy
// running the apprank's tasks on the node (Figures 5 and 9) and the
// cores its worker there owns.
type timeline struct {
	running     float64 // tasks executing, moved by ExecStart/ExecEnd
	busy, owned Series
}

// track folds a timeline event into the recorder's step series. Each
// (node, apprank) hosts exactly one worker, so the running count kept
// from ExecStart/ExecEnd equals that worker's running counter at the
// same emit sites; OwnershipSet attributed to an apprank sets its owned
// cores; Imbalance samples extend the node-imbalance series.
func (r *Recorder) track(e *Event) {
	switch e.Kind {
	case KindExecStart, KindExecEnd:
		tl := r.line(int(e.Node), int(e.Apprank))
		if e.Kind == KindExecStart {
			tl.running++
		} else {
			tl.running--
		}
		tl.busy.Record(e.T, tl.running)
	case KindOwnSet:
		if e.Apprank < 0 {
			return
		}
		r.line(int(e.Node), int(e.Apprank)).owned.Record(e.T, float64(e.C))
	case KindImbalance:
		r.imbalance.Record(e.T, e.ImbalanceValue())
	default:
		return
	}
	r.end = max(r.end, e.T)
}

// lineKey packs (node, apprank) into the timeline map's key.
func lineKey(node, apprank int) int64 { return int64(node)<<32 | int64(uint32(apprank)) }

func (r *Recorder) line(node, apprank int) *timeline {
	k := lineKey(node, apprank)
	tl, ok := r.lines[k]
	if !ok {
		tl = &timeline{}
		r.lines[k] = tl
	}
	return tl
}

// Busy returns the busy-cores series for (node, apprank), or an empty
// series.
func (r *Recorder) Busy(node, apprank int) *Series {
	if tl, ok := r.lines[lineKey(node, apprank)]; ok {
		return &tl.busy
	}
	return &Series{}
}

// Owned returns the owned-cores series for (node, apprank), or an empty
// series.
func (r *Recorder) Owned(node, apprank int) *Series {
	if tl, ok := r.lines[lineKey(node, apprank)]; ok {
		return &tl.owned
	}
	return &Series{}
}

// ImbalanceSeries returns the sampled node-imbalance series (Figure 11).
func (r *Recorder) ImbalanceSeries() *Series { return &r.imbalance }

// End returns the latest time any timeline or the imbalance series was
// recorded at.
func (r *Recorder) End() simtime.Time { return r.end }

// Keys returns the keys of the non-empty busy series, sorted by node
// then apprank.
func (r *Recorder) Keys() []Key { return r.keys(func(tl *timeline) bool { return tl.busy.Len() > 0 }) }

func (r *Recorder) keys(keep func(*timeline) bool) []Key {
	var keys []Key
	for k, tl := range r.lines {
		if keep(tl) {
			keys = append(keys, Key{int(k >> 32), int(int32(k))})
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Node != keys[j].Node {
			return keys[i].Node < keys[j].Node
		}
		return keys[i].Apprank < keys[j].Apprank
	})
	return keys
}
