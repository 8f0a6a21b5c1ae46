package obs

import (
	"strings"
	"testing"

	"ompsscluster/internal/simtime"
)

const sec = simtime.Time(simtime.Second)

// clocked returns a timelines-only recorder whose clock reads *now.
func clocked() (*Recorder, *simtime.Time) {
	r, now := NewRecorder(0), new(simtime.Time)
	r.BindClock(func() simtime.Time { return *now })
	return r, now
}

// setBusy emits ExecStart/ExecEnd events at t until apprank runs v tasks
// on node, emitting at least one so the series gets a sample at t.
func setBusy(r *Recorder, now *simtime.Time, t simtime.Time, node, apprank int, v float64) {
	*now = t
	tl := r.line(node, apprank)
	if tl.running == v {
		r.ExecStart(node, apprank, 0, 0, false, "")
	}
	for tl.running < v {
		r.ExecStart(node, apprank, 0, 0, false, "")
	}
	for tl.running > v {
		r.ExecEnd(node, apprank, 0, 0, "")
	}
}

// setOwned emits an OwnershipSet at t giving apprank's worker on node v
// cores (worker slot = apprank).
func setOwned(r *Recorder, now *simtime.Time, t simtime.Time, node, apprank, v int) {
	*now = t
	r.RegisterWorker(node, apprank, apprank)
	r.OwnershipSet(node, apprank, 0, v)
}

func TestSeriesStepFunction(t *testing.T) {
	var s Series
	s.Record(0, 1)
	s.Record(2*sec, 3)
	s.Record(5*sec, 0)
	if got := s.ValueAt(-1); got != 0 {
		t.Fatalf("ValueAt(-1) = %v", got)
	}
	if got := s.ValueAt(sec); got != 1 {
		t.Fatalf("ValueAt(1s) = %v, want 1", got)
	}
	if got := s.ValueAt(2 * sec); got != 3 {
		t.Fatalf("ValueAt(2s) = %v, want 3 (right-continuous)", got)
	}
	if got := s.ValueAt(10 * sec); got != 0 {
		t.Fatalf("ValueAt(10s) = %v, want 0", got)
	}
}

func TestSeriesOverwriteSameTime(t *testing.T) {
	var s Series
	s.Record(sec, 1)
	s.Record(sec, 5)
	if s.Len() != 1 || s.ValueAt(sec) != 5 {
		t.Fatalf("overwrite failed: len=%d val=%v", s.Len(), s.ValueAt(sec))
	}
}

func TestSeriesCompaction(t *testing.T) {
	var s Series
	s.Record(0, 2)
	s.Record(sec, 2) // unchanged value should not grow the series
	if s.Len() != 1 {
		t.Fatalf("len = %d, want 1 (compaction)", s.Len())
	}
}

func TestSeriesBackwardsTimePanics(t *testing.T) {
	var s Series
	s.Record(2*sec, 1)
	defer func() {
		if recover() == nil {
			t.Error("backwards time did not panic")
		}
	}()
	s.Record(sec, 2)
}

func TestSeriesIntegralAndAverage(t *testing.T) {
	var s Series
	s.Record(0, 1)
	s.Record(2*sec, 3)
	// Integral over [0, 4s]: 1*2 + 3*2 = 8 core-seconds.
	got := s.Integral(0, 4*sec) / float64(simtime.Second)
	if got != 8 {
		t.Fatalf("integral = %v, want 8", got)
	}
	if avg := s.Average(0, 4*sec); avg != 2 {
		t.Fatalf("average = %v, want 2", avg)
	}
	// Partial segment: [1s, 3s] = 1*1 + 3*1 = 4.
	got = s.Integral(sec, 3*sec) / float64(simtime.Second)
	if got != 4 {
		t.Fatalf("partial integral = %v, want 4", got)
	}
	if s.Integral(3*sec, 3*sec) != 0 {
		t.Fatal("empty interval integral must be 0")
	}
}

func TestSeriesMax(t *testing.T) {
	var s Series
	s.Record(0, 1)
	s.Record(sec, 7)
	s.Record(2*sec, 2)
	if s.Max() != 7 {
		t.Fatalf("max = %v", s.Max())
	}
}

func TestRecorderSeries(t *testing.T) {
	r, now := clocked()
	setBusy(r, now, 0, 0, 0, 4)
	setBusy(r, now, sec, 0, 0, 2)
	setBusy(r, now, 0, 1, 0, 1)
	setOwned(r, now, 0, 0, 0, 4)
	setOwned(r, now, 0, 2, 1, 3) // owned only: no busy key
	if got := r.Busy(0, 0).ValueAt(sec); got != 2 {
		t.Fatalf("busy = %v", got)
	}
	if got := r.Owned(0, 0).ValueAt(0); got != 4 {
		t.Fatalf("owned = %v", got)
	}
	if r.Busy(9, 9).Len() != 0 {
		t.Fatal("missing series should be empty, not nil panic")
	}
	keys := r.Keys()
	if len(keys) != 2 || keys[0] != (Key{0, 0}) || keys[1] != (Key{1, 0}) {
		t.Fatalf("keys = %v", keys)
	}
	if r.End() != sec {
		t.Fatalf("end = %v", r.End())
	}
}

func TestImbalanceSeries(t *testing.T) {
	r, now := clocked()
	if r.ImbalanceSeries().Len() != 0 {
		t.Fatal("fresh imbalance series not empty")
	}
	r.Imbalance(2.0)
	*now = sec
	r.Imbalance(1.5)
	if got := r.ImbalanceSeries().ValueAt(sec); got != 1.5 {
		t.Fatalf("imbalance = %v", got)
	}
	if r.End() != sec {
		t.Fatalf("end = %v, want the last imbalance sample", r.End())
	}
}

func TestCSV(t *testing.T) {
	r, now := clocked()
	setBusy(r, now, 0, 0, 1, 3)
	setOwned(r, now, sec, 1, 0, 2)
	csv := r.CSV()
	if !strings.HasPrefix(csv, "kind,node,apprank,time_s,value\n") {
		t.Fatalf("csv header wrong:\n%s", csv)
	}
	if !strings.Contains(csv, "busy,0,1,0.000000,3.000") {
		t.Fatalf("csv missing busy row:\n%s", csv)
	}
	if !strings.Contains(csv, "owned,1,0,1.000000,2.000") {
		t.Fatalf("csv missing owned row:\n%s", csv)
	}
}

func TestRender(t *testing.T) {
	r, now := clocked()
	setBusy(r, now, 0, 0, 0, 4)
	setBusy(r, now, 2*sec, 0, 0, 0)
	setBusy(r, now, 0, 1, 0, 0)
	setBusy(r, now, 2*sec, 1, 0, 4)
	setBusy(r, now, 4*sec, 1, 0, 0)
	out := r.Render(40, 4)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("render rows = %d:\n%s", len(lines), out)
	}
	// Row 0 is busy in the first half, idle in the second; row 1 the
	// opposite. Check the dense/space pattern at the quarters.
	row0 := lines[0][strings.Index(lines[0], "|")+1:]
	row1 := lines[1][strings.Index(lines[1], "|")+1:]
	if row0[5] == ' ' || row0[35] != ' ' {
		t.Fatalf("row0 pattern wrong: %q", row0)
	}
	if row1[5] != ' ' || row1[25] == ' ' {
		t.Fatalf("row1 pattern wrong: %q", row1)
	}
}

func TestRenderEmpty(t *testing.T) {
	r := NewRecorder(0)
	if !strings.Contains(r.Render(10, 0), "empty") {
		t.Fatal("empty render")
	}
}

func TestParaverExport(t *testing.T) {
	r, now := clocked()
	setBusy(r, now, 0, 0, 0, 4)
	setBusy(r, now, sec, 0, 0, 2)
	setBusy(r, now, 2*sec, 0, 0, 0)
	setBusy(r, now, 0, 1, 1, 1)
	setBusy(r, now, 2*sec, 1, 1, 0)
	prv := r.Paraver()
	lines := strings.Split(strings.TrimRight(prv, "\n"), "\n")
	if !strings.HasPrefix(lines[0], "#Paraver") {
		t.Fatalf("missing header: %q", lines[0])
	}
	if !strings.Contains(lines[0], "2000000000_ns:2(2):1:2(") {
		t.Fatalf("header fields wrong: %q", lines[0])
	}
	// State records: task 1 has [0,1s)=4, [1s,2s)=2; task 2 [0,2s)=1.
	want := []string{
		"1:1:1:1:1:0:1000000000:4",
		"1:2:1:2:1:0:2000000000:1",
		"1:1:1:1:1:1000000000:2000000000:2",
	}
	for i, w := range want {
		if lines[i+1] != w {
			t.Fatalf("record %d = %q, want %q", i, lines[i+1], w)
		}
	}
}
