// Package ompsscluster is a Go reproduction of "Transparent load
// balancing of MPI programs using OmpSs-2@Cluster and DLB" (Aguilar Mena
// et al., ICPP 2022).
//
// It provides a deterministic discrete-event simulation of an MPI +
// OmpSs-2@Cluster application running on a cluster with DLB core
// arbitration: appranks offload tasks to helper workers laid out by a
// bipartite expander graph, LeWI lends idle cores at fine grain, and the
// DROM policies (local convergence or global solver) reassign core
// ownership at coarse grain.
//
// This package is a facade re-exporting the library's primary types; the
// implementation lives under internal/. A minimal program:
//
//	machine := ompsscluster.NewMachine(4, 8) // 4 nodes x 8 cores
//	rt, err := ompsscluster.New(ompsscluster.Config{
//		Machine: machine,
//		Degree:  3,
//		LeWI:    true,
//		DROM:    ompsscluster.DROMGlobal,
//	})
//	...
//	err = rt.Run(func(app *ompsscluster.App) {
//		data := app.Alloc(1 << 20)
//		app.Submit(ompsscluster.TaskSpec{
//			Label:       "kernel",
//			Work:        50 * ompsscluster.Millisecond,
//			Accesses:    []ompsscluster.Access{{Region: data, Mode: ompsscluster.InOut}},
//			Offloadable: true,
//		})
//		app.TaskWait()
//	})
//
// A rank main talks MPI through App.Comm, whose Comm offers Send, Recv,
// Barrier, Bcast, Reduce, Allreduce, Gather, Allgather and Split.
package ompsscluster

import (
	"ompsscluster/internal/cluster"
	"ompsscluster/internal/core"
	"ompsscluster/internal/nanos"
	"ompsscluster/internal/obs"
	"ompsscluster/internal/simmpi"
	"ompsscluster/internal/simtime"
)

// Core runtime types (see internal/core).
type (
	// Config describes a runtime instance.
	Config = core.Config
	// ClusterRuntime is one simulated execution.
	ClusterRuntime = core.ClusterRuntime
	// App is the per-apprank programmer's-model handle.
	App = core.App
	// TaskSpec describes one task submission.
	TaskSpec = core.TaskSpec
	// DROMMode selects the ownership policy.
	DROMMode = core.DROMMode
	// DynamicConfig tunes dynamic work spreading (Config.Dynamic).
	DynamicConfig = core.DynamicConfig
	// AppSpec describes one application for multi-application
	// co-scheduling (NewMulti / RunAll).
	AppSpec = core.AppSpec
)

// DROM policy modes.
const (
	DROMOff    = core.DROMOff
	DROMLocal  = core.DROMLocal
	DROMGlobal = core.DROMGlobal
)

// Machine model types (see internal/cluster).
type (
	// Machine is the hardware model: nodes x cores with speeds.
	Machine = cluster.Machine
	// NetModel is the interconnect cost model.
	NetModel = cluster.NetModel
)

// Task access types (see internal/nanos).
type (
	// Region is a byte range in an apprank's address space.
	Region = nanos.Region
	// Access declares how a task uses a region.
	Access = nanos.Access
	// AccessMode is in/out/inout.
	AccessMode = nanos.AccessMode
)

// Access modes.
const (
	In    = nanos.In
	Out   = nanos.Out
	InOut = nanos.InOut
)

// Virtual time types (see internal/simtime).
type (
	// Time is absolute virtual time.
	Time = simtime.Time
	// Duration is a virtual time span.
	Duration = simtime.Duration
)

// Common durations.
const (
	Nanosecond  = simtime.Nanosecond
	Microsecond = simtime.Microsecond
	Millisecond = simtime.Millisecond
	Second      = simtime.Second
)

// MPI types (see internal/simmpi).
type (
	// Comm is a communicator handle (returned by App.Comm).
	Comm = simmpi.Comm
	// Op is a reduction operator.
	Op = simmpi.Op
)

// Reduction operators and wildcards.
const (
	Sum       = simmpi.Sum
	Max       = simmpi.Max
	Min       = simmpi.Min
	AnySource = simmpi.AnySource
	AnyTag    = simmpi.AnyTag
)

// TraceRecorder captures busy/owned timelines per (node, apprank) and
// the sampled node imbalance (see internal/obs); pass it as Config.Obs.
type TraceRecorder = obs.Recorder

// New builds a runtime from the configuration.
func New(cfg Config) (*ClusterRuntime, error) { return core.New(cfg) }

// NewMulti builds a runtime co-scheduling several independent
// applications whose workers share the per-node DLB arbiters — cores
// flow between applications via LeWI and DROM (§3.3 of the paper).
// Execute with ClusterRuntime.RunAll.
func NewMulti(cfg Config, specs []AppSpec) (*ClusterRuntime, error) {
	return core.NewMulti(cfg, specs)
}

// MustNew is New, panicking on error.
func MustNew(cfg Config) *ClusterRuntime { return core.MustNew(cfg) }

// NewMachine builds a homogeneous machine with n nodes of coresPerNode
// cores and a default Omni-Path-like interconnect.
func NewMachine(n, coresPerNode int) *Machine {
	return cluster.New(n, coresPerNode, cluster.DefaultNet())
}

// NewTraceRecorder returns an empty recorder that keeps the timelines
// only, to pass as Config.Obs.
func NewTraceRecorder() *TraceRecorder { return obs.NewRecorder(0) }
