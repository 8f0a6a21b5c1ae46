package obs_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"ompsscluster/internal/balance"
	"ompsscluster/internal/cluster"
	"ompsscluster/internal/core"
	"ompsscluster/internal/faults"
	"ompsscluster/internal/nanos"
	"ompsscluster/internal/obs"
	"ompsscluster/internal/simmpi"
	"ompsscluster/internal/simtime"
)

// allKindsRun executes a small deterministic run that emits every event
// kind: the storm fault preset (slowdown, flaky link with drops, core
// loss, helper drain forcing re-offloads) plus an apprank stall, a
// self-scheduling chunk server, windowed POP counters, the imbalance
// sampler, point-to-point traffic across the flaky link and
// collectives. capacity bounds the recorder's ring.
func allKindsRun(t testing.TB, capacity int) *obs.Recorder {
	t.Helper()
	const ms = simtime.Millisecond
	plan, ok := faults.Preset("storm")
	if !ok {
		t.Fatal("storm preset missing")
	}
	plan.Events = append(plan.Events, faults.Event{Kind: faults.Stall, At: 30 * ms, Until: 50 * ms, Apprank: 1})
	ob := obs.NewRecorder(capacity)
	rt := core.MustNew(core.Config{
		Machine:     cluster.New(4, 4, cluster.DefaultNet()),
		Degree:      4,
		LeWI:        true,
		DROM:        core.DROMLocal,
		LocalPeriod: 20 * ms,
		Seed:        11,
		SelfSched:   balance.SelfSchedGuided,
		POP:         true,
		POPWindow:   25 * ms,
		Faults:      plan,
		Obs:         ob,
	})
	err := rt.Run(func(app *core.App) {
		regions := make([]nanos.Region, 4)
		for i := range regions {
			regions[i] = app.Alloc(1 << 14)
		}
		for iter := 0; iter < 6; iter++ {
			n := 6
			if app.Rank() == 0 {
				n = 18
			}
			for k := 0; k < n; k++ {
				app.Submit(core.TaskSpec{
					Label:       "work",
					Work:        3 * ms,
					Accesses:    []nanos.Access{{Region: regions[k%len(regions)], Mode: nanos.InOut}},
					Offloadable: true,
				})
			}
			app.TaskWait()
			// Ranks 0 and 2 live on the two ends of the storm's flaky
			// link, so some of these deliveries are dropped and retried.
			for m := 0; m < 8; m++ {
				switch app.Rank() {
				case 0:
					app.Comm().Send(2, 5, iter*8+m, 2048)
				case 2:
					app.Comm().Recv(0, 5)
				}
			}
			app.AllreduceFloat(float64(iter), simmpi.Sum)
		}
		// A final phase whose message is posted before its tasks run and
		// matched after, so a wrapped ring can cut between the two.
		if app.Rank() == 0 {
			app.Comm().Send(2, 6, 0, 2048)
		}
		for k := 0; k < 4; k++ {
			app.Submit(core.TaskSpec{Label: "tail", Work: 2 * ms, Offloadable: true})
		}
		app.TaskWait()
		if app.Rank() == 2 {
			app.Comm().Recv(0, 6)
		}
	})
	if err != nil {
		t.Fatalf("all-kinds run failed: %v", err)
	}
	return ob
}

// allKindsCases are the golden cases: the full ring, and a ring small
// enough to wrap many times and to start inside the final phase, so
// exports see ends whose starts were dropped.
var allKindsCases = []struct {
	name     string
	capacity int
	wraps    bool
}{
	{"all_kinds", -1, false},
	{"all_kinds_wrapped", 94, true},
}

// TestAllKindsGolden pins the Chrome trace and metrics JSON of a run
// that emits every event kind, once with every event retained and once
// with a wrapped ring. Refresh with
// `go test ./internal/obs -run Golden -update` after an intentional
// format or runtime-behaviour change.
func TestAllKindsGolden(t *testing.T) {
	for _, tc := range allKindsCases {
		t.Run(tc.name, func(t *testing.T) {
			ob := allKindsRun(t, tc.capacity)
			for k := obs.KindTaskCreated; k <= obs.KindPOPWindow; k++ {
				if ob.Count(k) == 0 {
					t.Errorf("no %s events emitted", k)
				}
			}
			if wrapped := ob.Dropped() > 0; wrapped != tc.wraps {
				t.Fatalf("ring dropped %d events; want wrapping %v", ob.Dropped(), tc.wraps)
			}
			if tc.wraps {
				checkDanglingHalves(t, ob.Events())
			}
			trace := chromeBytes(t, ob)
			if err := obs.ValidateChrome(trace); err != nil {
				t.Fatalf("ValidateChrome: %v", err)
			}
			var metrics bytes.Buffer
			if err := obs.BuildMetrics(ob).WriteJSON(&metrics); err != nil {
				t.Fatalf("WriteJSON: %v", err)
			}
			checkGolden(t, tc.name+"_chrome.json", trace)
			checkGolden(t, tc.name+"_metrics.json", metrics.Bytes())
		})
	}
}

// checkDanglingHalves demands that a wrapped ring retains a closing
// half of each paired kind whose opening half was dropped, so the
// exporter's skip branches run.
func checkDanglingHalves(t *testing.T, events []obs.Event) {
	t.Helper()
	type key struct {
		apprank int32
		id      int64
	}
	starts, posts, injects := map[key]bool{}, map[int64]bool{}, map[int64]bool{}
	var execEnds, matches, recovers int
	for _, e := range events {
		switch e.Kind {
		case obs.KindExecStart:
			starts[key{e.Apprank, e.ID}] = true
		case obs.KindExecEnd:
			if !starts[key{e.Apprank, e.ID}] {
				execEnds++
			}
		case obs.KindMsgPost:
			posts[e.ID] = true
		case obs.KindMsgMatch:
			if !posts[e.ID] {
				matches++
			}
		case obs.KindFaultInject:
			injects[e.ID] = true
		case obs.KindFaultRecover:
			if !injects[e.ID] {
				recovers++
			}
		}
	}
	if execEnds == 0 || matches == 0 || recovers == 0 {
		t.Fatalf("wrapped ring has %d orphan exec ends, %d orphan matches, %d orphan recovers; want each > 0",
			execEnds, matches, recovers)
	}
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s differs from golden (%d vs %d bytes); run with -update if intentional",
			name, len(got), len(want))
	}
}
