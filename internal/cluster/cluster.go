// Package cluster models the hardware platform: a machine made of nodes,
// each with a number of cores and a relative speed factor, connected by an
// interconnect with a latency + bandwidth cost model.
//
// The paper's platforms: MareNostrum 4 (48 cores/node, 100 Gb/s
// Omni-Path) is New(n, 48, DefaultNet()), the machine the experiments
// build from their scale's cores per node; Nord3 (16 cores/node, nodes at
// 3.0 GHz or a "slow" 1.8 GHz) has a preset.
package cluster

import (
	"fmt"

	"ompsscluster/internal/simtime"
)

// Node describes one compute node.
type Node struct {
	// ID is the node index within the machine, starting at 0.
	ID int
	// Cores is the number of physical cores.
	Cores int
	// Speed is the relative execution speed (1.0 = nominal). A task with
	// nominal work w executes in w/Speed virtual time on this node.
	Speed float64
}

// NetModel is a latency + bandwidth interconnect cost model. The default
// is distance-oblivious (full fat-tree at full bisection, like
// MareNostrum 4's Omni-Path); setting TreeRadix adds per-hop latency by
// fat-tree distance, for topology-sensitivity studies (§5.2 notes the
// helper graph "could take account of specific communication latencies
// and thereby depend on the physical topology").
type NetModel struct {
	// Latency is the base one-way latency between distinct nodes.
	Latency simtime.Duration
	// BytesPerSecond is the point-to-point bandwidth between distinct
	// nodes. Zero means infinite bandwidth.
	BytesPerSecond float64
	// LocalLatency is the cost of a message between ranks on the same
	// node (shared-memory transport).
	LocalLatency simtime.Duration
	// TreeRadix, when > 0, groups nodes into switches of TreeRadix
	// leaves: messages crossing switch boundaries pay HopLatency per
	// tree level climbed (and descended).
	TreeRadix  int
	HopLatency simtime.Duration
}

// TransferTime returns the virtual time needed to move size bytes from
// node a to node b.
func (m NetModel) TransferTime(a, b int, size int64) simtime.Duration {
	if a == b {
		return m.LocalLatency
	}
	d := m.Latency
	if m.BytesPerSecond > 0 && size > 0 {
		d += simtime.FromSeconds(float64(size) / m.BytesPerSecond)
	}
	if m.TreeRadix > 1 && m.HopLatency > 0 {
		d += simtime.Duration(2*m.treeLevels(a, b)) * m.HopLatency
	}
	return d
}

// treeLevels returns the number of fat-tree levels a message between a
// and b must climb: 0 within a leaf switch, 1 between adjacent switches,
// and so on up the radix-ary hierarchy.
func (m NetModel) treeLevels(a, b int) int {
	levels := 0
	for a != b {
		a /= m.TreeRadix
		b /= m.TreeRadix
		levels++
	}
	return levels
}

// Machine is a set of nodes plus an interconnect.
type Machine struct {
	Nodes []Node
	Net   NetModel
}

// New builds a homogeneous machine with n nodes of coresPerNode cores at
// speed 1.0 and the given network model.
func New(n, coresPerNode int, net NetModel) *Machine {
	if n <= 0 || coresPerNode <= 0 {
		panic(fmt.Sprintf("cluster: invalid machine %d nodes x %d cores", n, coresPerNode))
	}
	m := &Machine{Net: net, Nodes: make([]Node, n)}
	for i := range m.Nodes {
		m.Nodes[i] = Node{ID: i, Cores: coresPerNode, Speed: 1.0}
	}
	return m
}

// Clone returns a deep copy of the machine. Sweeps that mutate a run's
// machine (SetSpeed, RemoveCores) must clone a shared prototype rather
// than pass it to concurrent runs: Machine is not safe for concurrent
// mutation, and aliased Nodes slices would leak one run's faults into
// another.
func (m *Machine) Clone() *Machine {
	return &Machine{Nodes: append([]Node(nil), m.Nodes...), Net: m.Net}
}

// NumNodes returns the number of nodes.
func (m *Machine) NumNodes() int { return len(m.Nodes) }

// Node returns the node with the given id.
func (m *Machine) Node(id int) *Node { return &m.Nodes[id] }

// SetSpeed sets the relative speed of one node (for slow-node experiments).
func (m *Machine) SetSpeed(node int, speed float64) {
	if speed <= 0 {
		panic(fmt.Sprintf("cluster: non-positive speed %v for node %d", speed, node))
	}
	m.Nodes[node].Speed = speed
}

// RemoveCores permanently removes k cores from a node (fault injection:
// a partial hardware failure). At least one core always remains.
func (m *Machine) RemoveCores(node, k int) {
	if k <= 0 {
		panic(fmt.Sprintf("cluster: non-positive core removal %d on node %d", k, node))
	}
	if remaining := m.Nodes[node].Cores - k; remaining < 1 {
		panic(fmt.Sprintf("cluster: removing %d cores from node %d leaves %d", k, node, remaining))
	}
	m.Nodes[node].Cores -= k
}

// TotalCores returns the total number of physical cores in the machine.
func (m *Machine) TotalCores() int {
	total := 0
	for _, n := range m.Nodes {
		total += n.Cores
	}
	return total
}

// TotalCapacity returns the sum over nodes of cores x speed: the machine's
// aggregate processing rate in nominal core-seconds per second. It is the
// denominator of perfect-load-balance bounds.
func (m *Machine) TotalCapacity() float64 {
	total := 0.0
	for _, n := range m.Nodes {
		total += float64(n.Cores) * n.Speed
	}
	return total
}

// ExecTime returns the virtual time a task with nominal work w takes on
// the given node.
func (m *Machine) ExecTime(node int, w simtime.Duration) simtime.Duration {
	s := m.Nodes[node].Speed
	if s == 1.0 {
		return w
	}
	return simtime.Duration(float64(w) / s)
}

// DefaultNet returns an interconnect model resembling 100 Gb/s Omni-Path:
// 1.5 us one-way latency, 12.5 GB/s point-to-point bandwidth, 200 ns
// intra-node message cost.
func DefaultNet() NetModel {
	return NetModel{
		Latency:        1500 * simtime.Nanosecond,
		BytesPerSecond: 12.5e9,
		LocalLatency:   200 * simtime.Nanosecond,
	}
}

// Nord3 returns an n-node machine with 16 cores per node. If slowNodes is
// non-empty, those nodes run at 1.8/3.0 = 0.6 relative speed, mirroring
// Nord3's heterogeneous clock allocations.
func Nord3(n int, slowNodes ...int) *Machine {
	m := New(n, 16, DefaultNet())
	for _, id := range slowNodes {
		m.SetSpeed(id, 1.8/3.0)
	}
	return m
}
