package core

import (
	"testing"

	"ompsscluster/internal/cluster"
	"ompsscluster/internal/nanos"
	"ompsscluster/internal/obs"
	"ompsscluster/internal/simtime"
)

// TestLocalitySchedulesNearData: a consumer task should execute on the
// node where its producer wrote the data, when that worker has room.
func TestLocalitySchedulesNearData(t *testing.T) {
	rec := obs.NewRecorder(0)
	rt := MustNew(Config{
		Machine: cluster.New(2, 4, cluster.DefaultNet()),
		Degree:  2,
		LeWI:    true,
		Obs:     rec,
	})
	err := rt.Run(func(app *App) {
		if app.Rank() != 0 {
			return
		}
		// Saturate home with filler so producers offload to node 1.
		filler := app.Alloc(1 << 20)
		for i := 0; i < 8; i++ {
			r := nanos.Region{Start: filler.Start + uint64(i*1024), End: filler.Start + uint64(i*1024+512)}
			app.Submit(TaskSpec{Label: "filler", Work: 50 * ms,
				Accesses: []nanos.Access{{Region: r, Mode: nanos.InOut}}, Offloadable: false})
		}
		data := app.Alloc(1 << 20) // 1 MB: meaningful transfer
		app.Submit(TaskSpec{Label: "producer", Work: 10 * ms,
			Accesses: []nanos.Access{{Region: data, Mode: nanos.Out}}, Offloadable: true})
		// The consumer reads the 1MB and should follow it to node 1.
		app.Submit(TaskSpec{Label: "consumer", Work: 10 * ms,
			Accesses: []nanos.Access{{Region: data, Mode: nanos.In}}, Offloadable: true})
		app.TaskWait()
	})
	if err != nil {
		t.Fatal(err)
	}
	// Producer and consumer both run on node 1 (home is full of
	// non-offloadable fillers): apprank 0 busy on node 1 must have been
	// non-zero.
	if rec.Busy(1, 0).Max() < 1 {
		t.Fatal("producer/consumer never executed on node 1")
	}
	if rt.TotalOffloadedTasks() < 2 {
		t.Fatalf("offloaded %d tasks, want producer and consumer", rt.TotalOffloadedTasks())
	}
}

// TestTransferCostDelaysOffload: offloading a task with a large input
// charges the interconnect transfer time before it can run.
func TestTransferCostDelaysOffload(t *testing.T) {
	run := func(bytes int64) simtime.Duration {
		net := cluster.NetModel{
			Latency:        simtime.Microsecond,
			BytesPerSecond: 1e9, // 1 GB/s: 1 MB costs 1ms
			LocalLatency:   100 * simtime.Nanosecond,
		}
		rt := MustNew(Config{
			Machine: cluster.New(2, 2, net),
			Degree:  2,
			LeWI:    true,
		})
		err := rt.Run(func(app *App) {
			if app.Rank() != 0 {
				return
			}
			data := app.Alloc(bytes)
			app.Submit(TaskSpec{Label: "producer", Work: ms,
				Accesses: []nanos.Access{{Region: data, Mode: nanos.Out}}, Offloadable: false})
			// Two consumers: one must offload; it pays the transfer.
			for i := 0; i < 4; i++ {
				app.Submit(TaskSpec{Label: "consumer", Work: 5 * ms,
					Accesses: []nanos.Access{{Region: data, Mode: nanos.In}}, Offloadable: true})
			}
			app.TaskWait()
		})
		if err != nil {
			t.Fatal(err)
		}
		return rt.Elapsed()
	}
	small := run(1 << 10)  // 1 KB: ~1us transfer
	large := run(64 << 20) // 64 MB: ~64ms per transfer
	if large <= small+50*ms {
		t.Fatalf("large transfers not charged: small=%v large=%v", small, large)
	}
}

// TestRemoteCompletionLatency: successors of an offloaded task are
// released only after the completion notification returns home.
func TestRemoteCompletionLatency(t *testing.T) {
	slowNet := cluster.NetModel{
		Latency:      10 * ms, // extreme latency makes the effect visible
		LocalLatency: 100 * simtime.Nanosecond,
	}
	rt := MustNew(Config{
		Machine: cluster.New(2, 2, slowNet),
		Degree:  2,
		LeWI:    true,
	})
	err := rt.Run(func(app *App) {
		if app.Rank() != 0 {
			return
		}
		data := app.Alloc(64)
		// Chain of 4 dependent offloadable tasks on a single-core home:
		// some run remotely, each hop paying 10ms each way.
		for i := 0; i < 4; i++ {
			app.Submit(TaskSpec{Label: "chain", Work: ms,
				Accesses: []nanos.Access{{Region: data, Mode: nanos.InOut}}, Offloadable: true})
		}
		app.TaskWait()
	})
	if err != nil {
		t.Fatal(err)
	}
	// 4 x 1ms of work; any remote execution adds >= 20ms round trips.
	// With a 1-core home and filler-free run everything may stay home;
	// at minimum the run must respect the serial chain.
	if rt.Elapsed() < 4*ms {
		t.Fatalf("chain finished too fast: %v", rt.Elapsed())
	}
}

// TestBusyIntegralMatchesTaskTime: the sum of busy integrals across all
// nodes equals the summed execution time of all tasks.
func TestBusyIntegralMatchesTaskTime(t *testing.T) {
	rec := obs.NewRecorder(0)
	rt := MustNew(Config{
		Machine:       cluster.New(2, 4, cluster.DefaultNet()),
		Degree:        2,
		LeWI:          true,
		Obs:           rec,
		OverheadFixed: simtime.Nanosecond, // negligible, non-zero to avoid default
		OverheadFrac:  1e-12,
	})
	const n = 32
	err := rt.Run(func(app *App) {
		submitBatch(app, n, 10*ms)
		app.TaskWait()
	})
	if err != nil {
		t.Fatal(err)
	}
	end := rec.End()
	total := 0.0
	for node := 0; node < 2; node++ {
		for a := 0; a < 2; a++ {
			total += rec.Busy(node, a).Integral(0, end)
		}
	}
	want := float64(2*n) * float64(10*ms)
	if diff := total - want; diff < -float64(ms) || diff > float64(2*n)*1000 {
		t.Fatalf("busy integral = %v, want ~%v", total, want)
	}
}
