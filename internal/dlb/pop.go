package dlb

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"ompsscluster/internal/simtime"
)

// POP efficiency model. The POP centre of excellence decomposes Parallel
// Efficiency multiplicatively:
//
//	PE = LB x CommE
//
// Here each entity i (an apprank or a node) gets a utilisation
//
//	u_i = useful_i / capacity_i
//
// where capacity is the entity's allotted core-time over the run: owned
// plus LeWI-borrowed for appranks (so utilisation stays bounded by 1
// when DLB runs an apprank far above its static allocation), physical
// for nodes. Then
//
//	PE    = mean_i(u_i)         (parallel efficiency)
//	CommE = max_i(u_i)          (communication efficiency: the best
//	                             entity's losses to MPI/runtime/idle)
//	LB    = PE / CommE          (load balance: mean over max)
//
// LB is defined as the quotient, so PE = LB x CommE holds by
// construction (the classic mean-over-max load-balance metric). The DLB
// extension is lent-core utilisation: of the core-time owners left
// unused, the fraction LeWI borrowers actually filled,
//
//	lentUtil = borrowed / (borrowed + idle).
//
// All inputs are integrals over the run accumulated in a fixed
// per-(apprank, node) cell order, so a report is byte-identical across
// simulation engines and worker counts.

// POPEntityInput is one entity's raw integrals (core-nanoseconds unless
// noted) handed to ComputePOP by the runtime.
type POPEntityInput struct {
	ID           int
	Useful       float64 // task compute core-time
	Overhead     float64 // runtime overhead core-time
	MPI          float64 // main-process time inside MPI (ns)
	Borrowed     float64 // busy core-time above ownership (LeWI)
	Busy         float64 // total busy core-time
	Capacity     float64 // allotted core-time: owned+borrowed (apprank) or physical (node)
	Tasks        int64
	MPIOps       int64   // blocking MPI operations entered
	DeclaredWork float64 // submitted task work before speed/overhead (ns)
	WinUseful    []float64
}

// POPInput is the full set of integrals for one run.
type POPInput struct {
	Elapsed  float64 // run elapsed virtual time (ns)
	Window   float64 // series window width (ns); 0 disables the series
	Appranks []POPEntityInput
	Nodes    []POPEntityInput
}

// POPEntity is the reported per-entity breakdown, in (core-)seconds.
type POPEntity struct {
	ID           int
	Useful       float64 // core-s of task compute
	Overhead     float64 // core-s of runtime overhead
	MPI          float64 // s inside MPI
	Idle         float64 // core-s of capacity left unoccupied
	Borrowed     float64 // core-s run on borrowed cores
	Capacity     float64 // core-s allotted: owned+borrowed (apprank) / physical (node)
	AvgCores     float64 // Capacity / Elapsed
	Utilisation  float64 // Useful / Capacity
	Tasks        int64
	MPIOps       int64
	DeclaredWork float64 // s of submitted task work
}

// POPSummary is one PE = LB x CommE decomposition.
type POPSummary struct {
	PE       float64
	LB       float64
	CommE    float64
	LentUtil float64
}

// POPWindow is one time window of the cluster-level series, computed
// over nodes.
type POPWindow struct {
	Start  float64 // s
	End    float64 // s
	PE     float64
	LB     float64
	CommE  float64
	NodePE []float64 // per-node utilisation in the window
}

// POPReport is the full POP efficiency report for one run.
type POPReport struct {
	Elapsed    simtime.Duration
	Window     simtime.Duration
	Appranks   []POPEntity
	Nodes      []POPEntity
	ApprankPOP POPSummary // decomposition over appranks
	NodePOP    POPSummary // decomposition over nodes
	Windows    []POPWindow
}

const nsPerSec = 1e9

// ComputePOP derives the report from the raw integrals.
func ComputePOP(in POPInput) *POPReport {
	r := &POPReport{
		Elapsed: simtime.Duration(in.Elapsed),
		Window:  simtime.Duration(in.Window),
	}
	r.Appranks, r.ApprankPOP = popEntities(in.Appranks, in.Elapsed)
	r.Nodes, r.NodePOP = popEntities(in.Nodes, in.Elapsed)
	if in.Window > 0 && in.Elapsed > 0 {
		r.Windows = popWindows(in)
	}
	return r
}

func popEntities(ins []POPEntityInput, elapsed float64) ([]POPEntity, POPSummary) {
	ents := make([]POPEntity, len(ins))
	var sumU, maxU, sumBorrowed, sumIdle float64
	for i, e := range ins {
		idle := e.Capacity - e.Busy
		if idle < 0 {
			idle = 0
		}
		u := 0.0
		if e.Capacity > 0 {
			u = e.Useful / e.Capacity
		}
		avg := 0.0
		if elapsed > 0 {
			avg = e.Capacity / elapsed
		}
		ents[i] = POPEntity{
			ID:           e.ID,
			Useful:       e.Useful / nsPerSec,
			Overhead:     e.Overhead / nsPerSec,
			MPI:          e.MPI / nsPerSec,
			Idle:         idle / nsPerSec,
			Borrowed:     e.Borrowed / nsPerSec,
			Capacity:     e.Capacity / nsPerSec,
			AvgCores:     avg,
			Utilisation:  u,
			Tasks:        e.Tasks,
			MPIOps:       e.MPIOps,
			DeclaredWork: e.DeclaredWork / nsPerSec,
		}
		sumU += u
		if u > maxU {
			maxU = u
		}
		sumBorrowed += e.Borrowed
		sumIdle += idle
	}
	var s POPSummary
	if n := len(ins); n > 0 && maxU > 0 {
		s.PE = sumU / float64(n)
		s.CommE = maxU
		s.LB = s.PE / s.CommE
	}
	if d := sumBorrowed + sumIdle; d > 0 {
		s.LentUtil = sumBorrowed / d
	}
	return ents, s
}

// popWindows builds the cluster series over nodes. Each node's window
// utilisation normalises its windowed useful core-time by its average
// core count (static capacity spread uniformly; fault-shrunk capacity
// is averaged rather than tracked per window — documented in DESIGN
// §13) times the window width, with the final window truncated at the
// run end.
func popWindows(in POPInput) []POPWindow {
	nwin := int((in.Elapsed + in.Window - 1) / in.Window)
	for _, n := range in.Nodes {
		if len(n.WinUseful) > nwin {
			nwin = len(n.WinUseful)
		}
	}
	wins := make([]POPWindow, nwin)
	for w := range wins {
		start := float64(w) * in.Window
		end := start + in.Window
		if end > in.Elapsed {
			end = in.Elapsed
		}
		width := end - start
		var sumU, maxU float64
		nodePE := make([]float64, len(in.Nodes))
		for i, n := range in.Nodes {
			avgCores := 0.0
			if in.Elapsed > 0 {
				avgCores = n.Capacity / in.Elapsed
			}
			u := 0.0
			if w < len(n.WinUseful) && avgCores > 0 && width > 0 {
				u = n.WinUseful[w] / (avgCores * width)
			}
			nodePE[i] = u
			sumU += u
			if u > maxU {
				maxU = u
			}
		}
		pw := POPWindow{Start: start / nsPerSec, End: end / nsPerSec, NodePE: nodePE}
		if len(in.Nodes) > 0 && maxU > 0 {
			pw.PE = sumU / float64(len(in.Nodes))
			pw.CommE = maxU
			pw.LB = pw.PE / pw.CommE
		}
		wins[w] = pw
	}
	return wins
}

// WriteJSON serialises the report deterministically: fixed field order,
// floats rendered with strconv at 12 significant digits, no map
// iteration anywhere, so equal reports render to equal bytes.
func (r *POPReport) WriteJSON(w io.Writer) error {
	var b []byte
	b = append(b, "{\n  \"elapsed_seconds\": "...)
	b = popF64(b, r.Elapsed.Seconds())
	b = append(b, ",\n  \"window_seconds\": "...)
	b = popF64(b, r.Window.Seconds())
	b = append(b, ",\n  \"appranks\": ["...)
	b = popEntitiesJSON(b, r.Appranks, false)
	b = append(b, "],\n  \"nodes\": ["...)
	b = popEntitiesJSON(b, r.Nodes, true)
	b = append(b, "],\n  \"apprank_pop\": "...)
	b = popSummaryJSON(b, r.ApprankPOP)
	b = append(b, ",\n  \"node_pop\": "...)
	b = popSummaryJSON(b, r.NodePOP)
	b = append(b, ",\n  \"windows\": ["...)
	for i, win := range r.Windows {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, "\n    {\"start_s\": "...)
		b = popF64(b, win.Start)
		b = append(b, ", \"end_s\": "...)
		b = popF64(b, win.End)
		b = append(b, ", \"pe\": "...)
		b = popF64(b, win.PE)
		b = append(b, ", \"lb\": "...)
		b = popF64(b, win.LB)
		b = append(b, ", \"comm_e\": "...)
		b = popF64(b, win.CommE)
		b = append(b, ", \"node_pe\": ["...)
		for j, u := range win.NodePE {
			if j > 0 {
				b = append(b, ',')
			}
			b = popF64(b, u)
		}
		b = append(b, "]}"...)
	}
	if len(r.Windows) > 0 {
		b = append(b, "\n  "...)
	}
	b = append(b, "]\n}\n"...)
	_, err := w.Write(b)
	return err
}

func popEntitiesJSON(b []byte, ents []POPEntity, node bool) []byte {
	key := "\n    {\"id\": "
	for i, e := range ents {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, key...)
		b = strconv.AppendInt(b, int64(e.ID), 10)
		b = popF64Field(b, "useful_core_s", e.Useful)
		b = popF64Field(b, "overhead_core_s", e.Overhead)
		b = popF64Field(b, "mpi_s", e.MPI)
		b = popF64Field(b, "idle_core_s", e.Idle)
		b = popF64Field(b, "borrowed_core_s", e.Borrowed)
		b = popF64Field(b, "capacity_core_s", e.Capacity)
		b = popF64Field(b, "avg_cores", e.AvgCores)
		b = popF64Field(b, "utilisation", e.Utilisation)
		b = append(b, ", \"tasks\": "...)
		b = strconv.AppendInt(b, e.Tasks, 10)
		b = append(b, ", \"mpi_ops\": "...)
		b = strconv.AppendInt(b, e.MPIOps, 10)
		b = popF64Field(b, "declared_work_s", e.DeclaredWork)
		b = append(b, '}')
	}
	if len(ents) > 0 {
		b = append(b, "\n  "...)
	}
	return b
}

func popSummaryJSON(b []byte, s POPSummary) []byte {
	b = append(b, "{\"pe\": "...)
	b = popF64(b, s.PE)
	b = append(b, ", \"lb\": "...)
	b = popF64(b, s.LB)
	b = append(b, ", \"comm_e\": "...)
	b = popF64(b, s.CommE)
	b = append(b, ", \"lent_utilisation\": "...)
	b = popF64(b, s.LentUtil)
	b = append(b, '}')
	return b
}

func popF64Field(b []byte, name string, v float64) []byte {
	b = append(b, ", \""...)
	b = append(b, name...)
	b = append(b, "\": "...)
	return popF64(b, v)
}

func popF64(b []byte, v float64) []byte {
	return strconv.AppendFloat(b, v, 'g', 12, 64)
}

// String renders the report as tables mirroring DLB's TALP output,
// extended with the POP decomposition lines.
func (r *POPReport) String() string {
	var s strings.Builder
	fmt.Fprintf(&s, "POP efficiency report (elapsed %v", r.Elapsed)
	if r.Window > 0 {
		fmt.Fprintf(&s, ", window %v", r.Window)
	}
	s.WriteString(")\n")
	popTable(&s, "apprank", r.Appranks)
	fmt.Fprintf(&s, "apprank POP: PE %5.1f%% = LB %5.1f%% x CommE %5.1f%%\n",
		100*r.ApprankPOP.PE, 100*r.ApprankPOP.LB, 100*r.ApprankPOP.CommE)
	popTable(&s, "node", r.Nodes)
	fmt.Fprintf(&s, "node POP:    PE %5.1f%% = LB %5.1f%% x CommE %5.1f%%  lent-core util %5.1f%%\n",
		100*r.NodePOP.PE, 100*r.NodePOP.LB, 100*r.NodePOP.CommE, 100*r.NodePOP.LentUtil)
	if len(r.Windows) > 0 {
		s.WriteString("window   start(s)  end(s)    PE      LB      CommE\n")
		for i, w := range r.Windows {
			fmt.Fprintf(&s, "%6d   %-8.3f  %-8.3f  %5.1f%%  %5.1f%%  %5.1f%%\n",
				i, w.Start, w.End, 100*w.PE, 100*w.LB, 100*w.CommE)
		}
	}
	return s.String()
}

func popTable(s *strings.Builder, kind string, ents []POPEntity) {
	fmt.Fprintf(s, "%7s  useful(c-s)  ovh(c-s)  mpi(s)    idle(c-s)  lent(c-s)  avgcores  util\n", kind)
	for _, e := range ents {
		fmt.Fprintf(s, "%7d  %-11.3f  %-8.3f  %-8.3f  %-9.3f  %-9.3f  %-8.2f  %5.1f%%\n",
			e.ID, e.Useful, e.Overhead, e.MPI, e.Idle, e.Borrowed, e.AvgCores, 100*e.Utilisation)
	}
}
