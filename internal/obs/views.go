package obs

import (
	"fmt"
	"sort"
	"strings"

	"ompsscluster/internal/simtime"
)

// CSV renders every busy/owned series as long-format CSV:
// kind,node,apprank,time_s,value.
func (r *Recorder) CSV() string {
	var b strings.Builder
	b.WriteString("kind,node,apprank,time_s,value\n")
	keys := r.keys(func(*timeline) bool { return true })
	for _, kind := range []string{"busy", "owned"} {
		for _, k := range keys {
			s := r.Busy(k.Node, k.Apprank)
			if kind == "owned" {
				s = r.Owned(k.Node, k.Apprank)
			}
			for i := range s.times {
				fmt.Fprintf(&b, "%s,%d,%d,%.6f,%.3f\n", kind, k.Node, k.Apprank, s.times[i].Seconds(), s.values[i])
			}
		}
	}
	return b.String()
}

// Render draws an ASCII timeline of the busy series, one row per
// (node, apprank), width columns wide, scaled to maxVal cores (0 means
// autoscale per row). It is the textual analogue of the paper's traces.
func (r *Recorder) Render(width int, maxVal float64) string {
	if width <= 0 {
		width = 80
	}
	ramp := []rune(" .:-=+*#%@")
	var b strings.Builder
	end := r.end
	if end == 0 {
		return "(empty trace)\n"
	}
	for _, k := range r.Keys() {
		s := r.Busy(k.Node, k.Apprank)
		scale := maxVal
		if scale <= 0 {
			scale = s.Max()
		}
		if scale <= 0 {
			scale = 1
		}
		fmt.Fprintf(&b, "%-22s |", k.String())
		for c := 0; c < width; c++ {
			t0 := simtime.Time(float64(end) * float64(c) / float64(width))
			t1 := simtime.Time(float64(end) * float64(c+1) / float64(width))
			avg := s.Average(t0, t1)
			idx := int(avg / scale * float64(len(ramp)-1))
			if idx < 0 {
				idx = 0
			}
			if idx >= len(ramp) {
				idx = len(ramp) - 1
			}
			b.WriteRune(ramp[idx])
		}
		b.WriteString("|\n")
	}
	return b.String()
}

// Paraver renders the busy timelines in a simplified Paraver (.prv)
// format, the trace format of the BSC tool chain the paper's figures
// were produced with. The header names one application with one task
// per (node, apprank) timeline; each state change becomes a state
// record:
//
//	#Paraver (dd/mm/yy at hh:mm):<endtime>_ns:<nnodes>(<cpus>):1:<ntasks>(...)
//	1:<cpu>:1:<task>:1:<begin>:<end>:<value>
//
// where value is the number of busy cores during [begin, end). It is a
// faithful enough subset for paramedir-style post-processing and for
// regression-testing the timeline content.
func (r *Recorder) Paraver() string {
	keys := r.Keys()
	var b strings.Builder
	nodes := map[int]bool{}
	for _, k := range keys {
		nodes[k.Node] = true
	}
	fmt.Fprintf(&b, "#Paraver (01/01/00 at 00:00):%d_ns:%d(%d):1:%d(",
		int64(r.end), len(nodes), len(keys), len(keys))
	for i := range keys {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, "1:%d", keys[i].Node+1)
	}
	b.WriteString(")\n")
	// Emit state records in global time order for determinism.
	type rec struct {
		begin, end simtime.Time
		task       int
		value      float64
	}
	var recs []rec
	for ti, k := range keys {
		s := r.Busy(k.Node, k.Apprank)
		for i, t := range s.times {
			end := r.end
			if i+1 < len(s.times) {
				end = s.times[i+1]
			}
			if end > t {
				recs = append(recs, rec{t, end, ti + 1, s.values[i]})
			}
		}
	}
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].begin != recs[j].begin {
			return recs[i].begin < recs[j].begin
		}
		return recs[i].task < recs[j].task
	})
	for _, rc := range recs {
		fmt.Fprintf(&b, "1:%d:1:%d:1:%d:%d:%d\n",
			rc.task, rc.task, int64(rc.begin), int64(rc.end), int64(rc.value))
	}
	return b.String()
}
