package obs_test

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"ompsscluster/internal/cluster"
	"ompsscluster/internal/core"
	"ompsscluster/internal/nanos"
	"ompsscluster/internal/obs"
	"ompsscluster/internal/simmpi"
	"ompsscluster/internal/simtime"
)

var update = flag.Bool("update", false, "rewrite golden files")

// tinyRun executes a small, fully deterministic cluster run with a
// recorder attached: two nodes, two appranks, an imbalanced task load,
// point-to-point messages, collectives, and the local DROM policy, so
// every event kind the runtime emits shows up in the stream.
func tinyRun(t testing.TB) *obs.Recorder {
	t.Helper()
	ob := obs.NewRecorder(-1)
	m := cluster.New(2, 4, cluster.DefaultNet())
	rt := core.MustNew(core.Config{
		Machine:     m,
		Degree:      2,
		LeWI:        true,
		DROM:        core.DROMLocal,
		LocalPeriod: 20 * simtime.Millisecond,
		Seed:        7,
		Obs:         ob,
	})
	err := rt.Run(func(app *core.App) {
		regions := make([]nanos.Region, 8)
		for i := range regions {
			regions[i] = app.Alloc(1 << 16)
		}
		for iter := 0; iter < 3; iter++ {
			n := 8
			if app.Rank() == 0 {
				n = 24
			}
			for k := 0; k < n; k++ {
				app.Submit(core.TaskSpec{
					Label:       "work",
					Work:        4 * simtime.Millisecond,
					Accesses:    []nanos.Access{{Region: regions[k%len(regions)], Mode: nanos.InOut}},
					Offloadable: true,
				})
			}
			app.TaskWait()
			// A point-to-point exchange and a collective per iteration so
			// message post/match/deliver and collective events appear.
			if app.Rank() == 0 {
				app.Comm().Send(1, 3, iter, 4096)
			} else {
				app.Comm().Recv(0, 3)
			}
			app.AllreduceFloat(float64(iter), simmpi.Sum)
			app.Barrier()
		}
	})
	if err != nil {
		t.Fatalf("tiny run failed: %v", err)
	}
	return ob
}

func chromeBytes(t testing.TB, ob *obs.Recorder) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := obs.WriteChrome(&buf, []*obs.Recorder{ob}, []string{"tiny"}); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	return buf.Bytes()
}

// TestChromeGolden pins the exact Chrome trace bytes of the tiny run.
// Refresh with `go test ./internal/obs -run Golden -update` after an
// intentional format or runtime-behaviour change.
func TestChromeGolden(t *testing.T) {
	ob := tinyRun(t)
	got := chromeBytes(t, ob)
	golden := filepath.Join("testdata", "tiny_chrome.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Chrome trace differs from golden (%d vs %d bytes); run with -update if intentional",
			len(got), len(want))
	}
}

func TestChromeValid(t *testing.T) {
	ob := tinyRun(t)
	if err := obs.ValidateChrome(chromeBytes(t, ob)); err != nil {
		t.Fatalf("ValidateChrome: %v", err)
	}
}

// TestChromeDeterministic runs the identical simulation twice and
// demands byte-identical exports.
func TestChromeDeterministic(t *testing.T) {
	ob1 := tinyRun(t)
	ob2 := tinyRun(t)
	if !bytes.Equal(chromeBytes(t, ob1), chromeBytes(t, ob2)) {
		t.Fatal("identical runs produced different Chrome traces")
	}
}

// TestTimelineReplayAgreement replays the retained event ring through
// the timeline update into a fresh recorder and checks the busy, owned
// and imbalance series match the ones built live, sample for sample:
// the ring and the timelines are views of one stream.
func TestTimelineReplayAgreement(t *testing.T) {
	live := tinyRun(t)
	if live.Dropped() != 0 {
		t.Fatalf("tiny run dropped %d events", live.Dropped())
	}
	replayed := obs.ReplayTimelines(live)
	type view struct {
		name      string
		live, rep *obs.Series
	}
	views := []view{{"imbalance", live.ImbalanceSeries(), replayed.ImbalanceSeries()}}
	for node := 0; node < 2; node++ {
		for a := 0; a < 2; a++ {
			views = append(views,
				view{fmt.Sprintf("busy n%d/a%d", node, a), live.Busy(node, a), replayed.Busy(node, a)},
				view{fmt.Sprintf("owned n%d/a%d", node, a), live.Owned(node, a), replayed.Owned(node, a)})
		}
	}
	for _, v := range views {
		lt, lv := v.live.Samples()
		rt, rv := v.rep.Samples()
		if len(lt) == 0 || len(lt) != len(rt) {
			t.Fatalf("%s: live %d samples, replayed %d", v.name, len(lt), len(rt))
		}
		for i := range lt {
			if lt[i] != rt[i] || lv[i] != rv[i] {
				t.Fatalf("%s sample %d: live (%v,%v) replayed (%v,%v)", v.name, i, lt[i], lv[i], rt[i], rv[i])
			}
		}
	}
	if live.End() != replayed.End() || live.CSV() != replayed.CSV() {
		t.Fatalf("replay differs: end %v vs %v, CSV equal %v", live.End(), replayed.End(), live.CSV() == replayed.CSV())
	}
}

// TestTimelinesSurviveRingWrap checks that the timelines are independent
// of the ring: a wrapped ring and a timelines-only recorder keep the
// same figure data as a full ring.
func TestTimelinesSurviveRingWrap(t *testing.T) {
	full := allKindsRun(t, -1)
	for _, capacity := range []int{0, 94} {
		ob := allKindsRun(t, capacity)
		if capacity > 0 && ob.Dropped() == 0 {
			t.Fatalf("capacity %d: ring did not wrap", capacity)
		}
		if ob.CSV() != full.CSV() || ob.Paraver() != full.Paraver() || ob.End() != full.End() {
			t.Fatalf("capacity %d: timelines differ from the full ring's", capacity)
		}
		ft, fv := full.ImbalanceSeries().Samples()
		gt, gv := ob.ImbalanceSeries().Samples()
		if len(ft) == 0 || fmt.Sprint(ft, fv) != fmt.Sprint(gt, gv) {
			t.Fatalf("capacity %d: imbalance series differs (%d vs %d samples)", capacity, len(gt), len(ft))
		}
	}
}

// TestBuildMetricsConsistency checks the replay-derived registry against
// invariants of the event stream itself.
func TestBuildMetricsConsistency(t *testing.T) {
	ob := tinyRun(t)
	m := obs.BuildMetrics(ob)
	execs := ob.Count(obs.KindExecStart)
	if execs == 0 {
		t.Fatal("no exec events recorded")
	}
	if got := m.Counters["events_exec_start"]; got != execs {
		t.Fatalf("events_exec_start %d, Count %d", got, execs)
	}
	if got := m.Histograms["task_exec_seconds"].Count(); got != execs {
		t.Fatalf("task_exec_seconds count %d, execs %d", got, execs)
	}
	if m.Counters["events_dropped"] != 0 {
		t.Fatalf("tiny run dropped %d events", m.Counters["events_dropped"])
	}
	if m.Gauges["trace_end_seconds"] <= 0 {
		t.Fatal("trace_end_seconds not positive")
	}
	if ob.Count(obs.KindMsgPost) == 0 || ob.Count(obs.KindMsgMatch) == 0 {
		t.Fatal("expected point-to-point message events")
	}
	if ob.Count(obs.KindCollective) == 0 {
		t.Fatal("expected collective events")
	}
	if ob.Count(obs.KindOwnSet) == 0 {
		t.Fatal("expected ownership events")
	}
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if !bytes.HasPrefix(buf.Bytes(), []byte("{")) || !bytes.HasSuffix(buf.Bytes(), []byte("}\n")) {
		t.Fatal("metrics JSON malformed at the edges")
	}
}

// TestRingWrap exercises the bounded ring: a capacity-3 recorder keeps
// the newest three events and counts the overwritten ones.
func TestRingWrap(t *testing.T) {
	r := obs.NewRecorder(3)
	for i := 0; i < 5; i++ {
		r.TaskReady(0, int64(i))
	}
	evs := r.Events()
	if len(evs) != 3 {
		t.Fatalf("retained %d events, want 3", len(evs))
	}
	for i, e := range evs {
		if e.ID != int64(i+2) {
			t.Fatalf("event %d has ID %d, want %d (oldest dropped first)", i, e.ID, i+2)
		}
	}
	if r.Dropped() != 2 {
		t.Fatalf("Dropped %d, want 2", r.Dropped())
	}
	if r.Count(obs.KindTaskReady) != 5 {
		t.Fatalf("Count %d, want 5 (counts survive drops)", r.Count(obs.KindTaskReady))
	}
}

// TestNilRecorderAllocs pins the disabled path: every emitter on a nil
// recorder must be a single branch, never an allocation.
func TestNilRecorderAllocs(t *testing.T) {
	var r *obs.Recorder
	allocs := testing.AllocsPerRun(1000, func() {
		r.TaskCreated(1, 2, "w", 64)
		r.TaskReady(1, 2)
		r.SchedDecision(1, 2, 0, 3, 64, obs.SchedBest)
		r.TaskScheduled(1, 2, 0, 64, 10)
		r.ExecStart(0, 1, 2, 0, false, "w")
		r.ExecEnd(0, 1, 2, 0, "w")
		r.MsgPost(1, 0, 1, 9, 128)
		r.MsgDeliver(1, 0, 1, 9, 128)
		r.MsgMatch(1, 0, 1, 5, 7)
		r.CtlMsg(0, 1, 256)
		r.Collective(1, "allreduce", 3, 8, 2)
		r.OwnershipSet(0, 0, 2, 3)
		r.CoreBorrow(0, 0, 2)
		r.CoreReturn(0, 0, 1)
		r.Imbalance(1.25)
		r.RegisterWorker(0, 0, 1)
		r.BindClock(nil)
	})
	if allocs != 0 {
		t.Fatalf("nil-recorder emit path allocates (%v allocs/run)", allocs)
	}
}

// TestWriteChromeAllocs pins the exporter's allocations on the tiny run
// to O(tracks): a few per metadata line, the lane and span tables, and
// one write buffer, never a string per event (the run has ~28 events
// per track, so one allocation per event would break the bound).
func TestWriteChromeAllocs(t *testing.T) {
	ob := tinyRun(t)
	events := len(ob.Events())
	tracks := bytes.Count(chromeBytes(t, ob), []byte(`"ph":"M"`))
	allocs := testing.AllocsPerRun(20, func() {
		if err := obs.WriteChrome(io.Discard, []*obs.Recorder{ob}, []string{"tiny"}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%d events, %d tracks, %v allocs per export", events, tracks, allocs)
	if limit := 8*tracks + 16; allocs > float64(limit) {
		t.Fatalf("WriteChrome made %v allocations for %d events on %d tracks; want at most %d",
			allocs, events, tracks, limit)
	}
}
