package core

import (
	"fmt"

	"ompsscluster/internal/nanos"
	"ompsscluster/internal/simmpi"
	"ompsscluster/internal/simtime"
)

// App is the programmer's model handle (§4): each apprank's main function
// receives one. It exposes the application communicator
// (nanos6_app_communicator), task submission with OmpSs-2-style region
// accesses, taskwait, and a per-apprank virtual address allocator.
//
// As in the paper, each apprank has an isolated virtual address space:
// regions allocated by different appranks may coincide numerically and
// never alias, because dependencies and data location are tracked per
// apprank.
type App struct {
	rt      *ClusterRuntime
	apprank *Apprank
	comm    *simmpi.Comm
}

// Rank returns the apprank's rank within its application (its rank in
// the app communicator).
func (app *App) Rank() int { return app.apprank.localRank }

// GlobalID returns the apprank's global id across all co-scheduled
// applications (the key used by TALP and the trace recorder).
func (app *App) GlobalID() int { return app.apprank.id }

// AppName returns the owning application's name ("app0" for single-app
// runtimes).
func (app *App) AppName() string { return app.rt.apps[app.apprank.appIdx].spec.Name }

// NumRanks returns the number of appranks in this application.
func (app *App) NumRanks() int { return len(app.rt.apps[app.apprank.appIdx].ranks) }

// Comm returns the application communicator, the analogue of
// nanos6_app_communicator(): MPI collectives and point-to-point messages
// among appranks. MPI calls are valid from the main function only (tasks
// must not communicate), consistent with §4.
func (app *App) Comm() *simmpi.Comm { return app.comm }

// Now returns the current virtual time.
func (app *App) Now() simtime.Time { return app.apprank.env.Now() }

// HomeNode returns the node the apprank is homed on.
func (app *App) HomeNode() int { return app.apprank.home }

// Cores returns the number of cores of the apprank's home node.
func (app *App) Cores() int { return app.rt.cfg.Machine.Node(app.apprank.home).Cores }

// NodeSpeed returns the relative speed of the apprank's home node (1.0 =
// nominal). Applications can use it the way real codes use per-rank
// timing measurements.
func (app *App) NodeSpeed() float64 { return app.rt.cfg.Machine.Node(app.apprank.home).Speed }

// Alloc reserves size bytes in the apprank's address space and returns
// the region. The align parameter of real allocators is irrelevant here.
func (app *App) Alloc(size int64) nanos.Region {
	if size < 0 {
		panic(fmt.Sprintf("core: Alloc(%d)", size))
	}
	r := nanos.Region{Start: app.apprank.allocNext, End: app.apprank.allocNext + uint64(size)}
	app.apprank.allocNext = r.End
	return r
}

// TaskSpec describes one task submission.
type TaskSpec struct {
	// Label names the task kind (for traces).
	Label string
	// Work is the nominal compute time at node speed 1.0.
	Work simtime.Duration
	// Accesses declares the data regions (drives dependencies, locality,
	// and transfer costs).
	Accesses []nanos.Access
	// Offloadable marks the task as executable on helper nodes.
	Offloadable bool
}

// Submit creates and submits a task. If its dependencies are already
// satisfied it is scheduled immediately per §5.5.
func (app *App) Submit(spec TaskSpec) {
	if spec.Work < 0 {
		panic(fmt.Sprintf("core: negative work %v", spec.Work))
	}
	t := app.apprank.newTask()
	t.Label = spec.Label
	t.Work = spec.Work
	t.Accesses = spec.Accesses
	t.Offloadable = spec.Offloadable
	app.apprank.graph.Submit(t)
}

// TaskWait blocks the main function until every task submitted so far by
// this apprank (including offloaded ones) has completed.
func (app *App) TaskWait() {
	ev := app.apprank.env.NewEvent()
	app.apprank.graph.OnQuiescent(func() { ev.Trigger(nil) })
	app.comm.Proc().SetBlockReason("taskwait", int64(app.apprank.id), 0)
	app.comm.Proc().Wait(ev)
}

// TaskWaitOn blocks until every earlier task touching the given accesses
// has completed — OmpSs-2's dependency-scoped taskwait ("taskwait on").
// Unrelated tasks keep running. It is implemented, as in Nanos6, as an
// empty task with the given accesses whose completion is awaited.
func (app *App) TaskWaitOn(accesses []nanos.Access) {
	ev := app.apprank.env.NewEvent()
	sentinel := &nanos.Task{Label: "taskwait-on", Accesses: accesses}
	app.apprank.waitOn(sentinel, func() { ev.Trigger(nil) })
	app.comm.Proc().SetBlockReason("taskwait", int64(app.apprank.id), 1)
	app.comm.Proc().Wait(ev)
}

// Barrier synchronizes all appranks, accounting the wait as MPI time for
// TALP.
func (app *App) Barrier() {
	t0 := app.apprank.env.Now()
	app.comm.Barrier()
	app.rt.talp.AddMPISpan(app.apprank.id, t0, app.apprank.env.Now())
}

// AllreduceFloat combines a float64 across appranks with TALP accounting.
func (app *App) AllreduceFloat(v float64, op simmpi.Op) float64 {
	t0 := app.apprank.env.Now()
	out := app.comm.Allreduce(v, op).(float64)
	app.rt.talp.AddMPISpan(app.apprank.id, t0, app.apprank.env.Now())
	return out
}
