package ompsscluster_test

import (
	"testing"

	"ompsscluster"
)

// TestFacadeQuickstart exercises the public API end to end: machine
// construction, runtime config, task submission with dependencies, MPI
// collectives, taskwait, and result accessors.
func TestFacadeQuickstart(t *testing.T) {
	machine := ompsscluster.NewMachine(2, 4)
	machine.SetSpeed(1, 0.5)
	rt, err := ompsscluster.New(ompsscluster.Config{
		Machine:      machine,
		Degree:       2,
		LeWI:         true,
		DROM:         ompsscluster.DROMGlobal,
		GlobalPeriod: 50 * ompsscluster.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	sums := make([]float64, 2)
	err = rt.Run(func(app *ompsscluster.App) {
		data := app.Alloc(1 << 16)
		app.Submit(ompsscluster.TaskSpec{
			Label:       "produce",
			Work:        10 * ompsscluster.Millisecond,
			Accesses:    []ompsscluster.Access{{Region: data, Mode: ompsscluster.Out}},
			Offloadable: true,
		})
		app.Submit(ompsscluster.TaskSpec{
			Label:       "consume",
			Work:        10 * ompsscluster.Millisecond,
			Accesses:    []ompsscluster.Access{{Region: data, Mode: ompsscluster.In}},
			Offloadable: true,
		})
		app.TaskWait()
		sums[app.Rank()] = app.AllreduceFloat(1, ompsscluster.Sum)
	})
	if err != nil {
		t.Fatal(err)
	}
	if sums[0] != 2 || sums[1] != 2 {
		t.Fatalf("allreduce = %v, want [2 2]", sums)
	}
	if rt.Elapsed() < 20*ompsscluster.Millisecond {
		t.Fatalf("elapsed %v ignores the dependency chain", rt.Elapsed())
	}
	if rt.TotalTasks() != 4 {
		t.Fatalf("tasks = %d, want 4", rt.TotalTasks())
	}
}

// TestFacadeTraceRecorder checks the recorder wiring through the facade.
func TestFacadeTraceRecorder(t *testing.T) {
	rec := ompsscluster.NewTraceRecorder()
	rt := ompsscluster.MustNew(ompsscluster.Config{
		Machine: ompsscluster.NewMachine(1, 2),
		Obs:     rec,
	})
	err := rt.Run(func(app *ompsscluster.App) {
		r := app.Alloc(64)
		app.Submit(ompsscluster.TaskSpec{
			Label:    "t",
			Work:     5 * ompsscluster.Millisecond,
			Accesses: []ompsscluster.Access{{Region: r, Mode: ompsscluster.InOut}},
		})
		app.TaskWait()
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Busy(0, 0).Max() < 1 {
		t.Fatal("trace recorder captured nothing")
	}
}

// TestFacadeDeadlockDetection: a rank blocking on a message that never
// comes must surface as an error, not a hang.
func TestFacadeDeadlockDetection(t *testing.T) {
	rt := ompsscluster.MustNew(ompsscluster.Config{
		Machine: ompsscluster.NewMachine(2, 2),
	})
	err := rt.Run(func(app *ompsscluster.App) {
		if app.Rank() == 0 {
			app.Comm().Recv(1, 42) // rank 1 never sends
		}
	})
	if err == nil {
		t.Fatal("deadlocked run reported success")
	}
}

// TestFacadeDynamicSpreading checks the dynamic extension through the
// facade types.
func TestFacadeDynamicSpreading(t *testing.T) {
	rt := ompsscluster.MustNew(ompsscluster.Config{
		Machine:      ompsscluster.NewMachine(3, 4),
		Degree:       1,
		LeWI:         true,
		DROM:         ompsscluster.DROMGlobal,
		GlobalPeriod: 20 * ompsscluster.Millisecond,
		Dynamic: ompsscluster.DynamicConfig{
			Enabled:    true,
			GrowPeriod: 10 * ompsscluster.Millisecond,
		},
	})
	err := rt.Run(func(app *ompsscluster.App) {
		if app.Rank() != 0 {
			return
		}
		for i := 0; i < 120; i++ {
			r := app.Alloc(256)
			app.Submit(ompsscluster.TaskSpec{
				Label:       "heavy",
				Work:        5 * ompsscluster.Millisecond,
				Accesses:    []ompsscluster.Access{{Region: r, Mode: ompsscluster.InOut}},
				Offloadable: true,
			})
		}
		app.TaskWait()
	})
	if err != nil {
		t.Fatal(err)
	}
	if rt.HelpersGrown() == 0 {
		t.Fatal("dynamic spreading inactive through the facade")
	}
}
