package core

import (
	"runtime"
	"testing"

	"ompsscluster/internal/cluster"
	"ompsscluster/internal/nanos"
)

// submitAllocsPerTask measures the amortized heap allocations of one
// App.Submit in steady state: a warm-up batch grows the registry, the
// ready queues and the event heap to their working size, then a second
// batch over the same regions is counted. Accesses are built up front so
// only the submission path is measured.
func submitAllocsPerTask(t testing.TB, batch int) float64 {
	rt := MustNew(Config{Machine: cluster.New(2, 4, cluster.DefaultNet()), Degree: 2})
	var perTask float64
	err := rt.Run(func(app *App) {
		if app.Rank() != 0 {
			return
		}
		region := app.Alloc(int64(batch) * 64)
		acc := make([][]nanos.Access, batch)
		for i := range acc {
			s := region.Start + uint64(i)*64
			acc[i] = []nanos.Access{{Region: nanos.Region{Start: s, End: s + 64}, Mode: nanos.InOut}}
		}
		submit := func() {
			for i := range acc {
				app.Submit(TaskSpec{Label: "t", Work: ms, Accesses: acc[i], Offloadable: true})
			}
		}
		submit()
		app.TaskWait()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		submit()
		runtime.ReadMemStats(&after)
		app.TaskWait()
		perTask = float64(after.Mallocs-before.Mallocs) / float64(batch)
	})
	if err != nil {
		t.Fatal(err)
	}
	return perTask
}

// TestSubmitAllocsPerTask pins the amortized allocations per submitted
// task. Task records are carved from per-apprank chunks, so one
// allocation serves taskChunkSize submissions; a record allocated per
// task costs at least one allocation each and fails the pin.
func TestSubmitAllocsPerTask(t *testing.T) {
	per := submitAllocsPerTask(t, 4096)
	t.Logf("%.4f allocs per task", per)
	if per > 0.25 {
		t.Fatalf("App.Submit allocates %.3f times per task, want at most 0.25", per)
	}
}
