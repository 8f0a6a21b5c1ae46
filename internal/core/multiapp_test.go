package core

import (
	"testing"

	"ompsscluster/internal/cluster"
	"ompsscluster/internal/obs"
	"ompsscluster/internal/simtime"
)

// multiSpecs builds a heavy app and a light app sharing the machine.
func multiSpecs(heavyTasks, lightTasks int, done *[2]simtime.Time) []AppSpec {
	mk := func(idx, tasks int) func(app *App) {
		return func(app *App) {
			submitBatch(app, tasks, 10*ms)
			app.TaskWait()
			app.Barrier()
			if app.Rank() == 0 {
				done[idx] = app.Now()
			}
		}
	}
	return []AppSpec{
		{Name: "heavy", RanksPerNode: 1, Degree: 2, Main: mk(0, heavyTasks)},
		{Name: "light", RanksPerNode: 1, Degree: 2, Main: mk(1, lightTasks)},
	}
}

func TestMultiAppCoScheduling(t *testing.T) {
	var done [2]simtime.Time
	rt, err := NewMulti(Config{
		Machine:      cluster.New(2, 8, cluster.DefaultNet()),
		LeWI:         true,
		DROM:         DROMGlobal,
		GlobalPeriod: 30 * ms,
	}, multiSpecs(160, 16, &done))
	if err != nil {
		t.Fatal(err)
	}
	if rt.NumApps() != 2 {
		t.Fatalf("NumApps = %d", rt.NumApps())
	}
	if err := rt.RunAll(); err != nil {
		t.Fatal(err)
	}
	// 2 apps x 2 ranks x tasks.
	if got := rt.TotalTasks(); got != 2*160+2*16 {
		t.Fatalf("tasks = %d, want %d", got, 2*160+2*16)
	}
	if done[1] >= done[0] {
		t.Fatalf("light app (%v) should finish before heavy (%v)", done[1], done[0])
	}
}

func TestMultiAppDLBSharesCoresAcrossApplications(t *testing.T) {
	// The heavy application should run faster when co-scheduled with a
	// light one under LeWI+DROM than under static equal ownership,
	// because DLB shifts the light app's idle cores to the heavy app —
	// DLB's defining multi-application capability (§3.3).
	run := func(lewi bool, drom DROMMode) simtime.Duration {
		var done [2]simtime.Time
		rt, err := NewMulti(Config{
			Machine:      cluster.New(2, 8, cluster.DefaultNet()),
			LeWI:         lewi,
			DROM:         drom,
			GlobalPeriod: 30 * ms,
			LocalPeriod:  20 * ms,
		}, multiSpecs(160, 16, &done))
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.RunAll(); err != nil {
			t.Fatal(err)
		}
		return simtime.Duration(done[0])
	}
	static := run(false, DROMOff)
	balanced := run(true, DROMGlobal)
	// Static: heavy app's home worker owns ~(8-2)/2 = 3 cores per node.
	// Balanced: it can grow toward ~7 per node once the light app ends.
	if balanced >= static {
		t.Fatalf("DLB did not help across applications: %v >= %v", balanced, static)
	}
	if float64(balanced) > 0.7*float64(static) {
		t.Logf("note: balanced %v vs static %v", balanced, static)
	}
}

func TestMultiAppIsolatedWorlds(t *testing.T) {
	// The two applications have separate MPI worlds: identical (rank,
	// tag) messages never cross.
	var got [2]any
	specs := []AppSpec{
		{Name: "a", RanksPerNode: 1, Main: func(app *App) {
			if app.Rank() == 0 {
				app.Comm().Send(1, 5, "from-a", 8)
			} else {
				got[0], _ = app.Comm().Recv(0, 5)
			}
		}},
		{Name: "b", RanksPerNode: 1, Main: func(app *App) {
			if app.Rank() == 0 {
				app.Comm().Send(1, 5, "from-b", 8)
			} else {
				got[1], _ = app.Comm().Recv(0, 5)
			}
		}},
	}
	rt, err := NewMulti(Config{Machine: cluster.New(2, 4, cluster.DefaultNet())}, specs)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.RunAll(); err != nil {
		t.Fatal(err)
	}
	if got[0] != "from-a" || got[1] != "from-b" {
		t.Fatalf("cross-application message leak: %v", got)
	}
}

func TestMultiAppTraceKeys(t *testing.T) {
	rec := obs.NewRecorder(0)
	var done [2]simtime.Time
	rt, err := NewMulti(Config{
		Machine: cluster.New(2, 8, cluster.DefaultNet()),
		LeWI:    true,
		Obs:     rec,
	}, multiSpecs(40, 40, &done))
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.RunAll(); err != nil {
		t.Fatal(err)
	}
	// Global apprank ids 0..1 belong to app 0, 2..3 to app 1.
	if idx, local := rt.AppOf(2); idx != 1 || local != 0 {
		t.Fatalf("AppOf(2) = (%d, %d), want (1, 0)", idx, local)
	}
	if rec.Busy(0, 0).Max() < 1 || rec.Busy(0, 2).Max() < 1 {
		t.Fatal("traces missing for one of the applications")
	}
}

func TestMultiAppValidation(t *testing.T) {
	if _, err := NewMulti(Config{Machine: cluster.New(2, 4, cluster.DefaultNet())}, nil); err == nil {
		t.Fatal("empty spec list accepted")
	}
	// 2 apps x 2 ranks/node x degree 2 = 8 workers on 4-core nodes.
	specs := []AppSpec{
		{RanksPerNode: 2, Degree: 2, Main: func(*App) {}},
		{RanksPerNode: 2, Degree: 2, Main: func(*App) {}},
	}
	if _, err := NewMulti(Config{Machine: cluster.New(2, 4, cluster.DefaultNet())}, specs); err == nil {
		t.Fatal("over-committed node accepted")
	}
	if _, err := NewMulti(Config{Machine: cluster.New(2, 4, cluster.DefaultNet())},
		[]AppSpec{{RanksPerNode: 1}}); err == nil {
		t.Fatal("spec without Main accepted")
	}
	// Run on a multi-app runtime must be rejected.
	rt, err := NewMulti(Config{Machine: cluster.New(2, 8, cluster.DefaultNet())},
		[]AppSpec{
			{RanksPerNode: 1, Main: func(*App) {}},
			{RanksPerNode: 1, Main: func(*App) {}},
		})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Run(func(*App) {}); err == nil {
		t.Fatal("Run accepted on a multi-application runtime")
	}
}
