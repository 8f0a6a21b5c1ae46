package cluster

import (
	"math"
	"testing"
	"testing/quick"

	"ompsscluster/internal/simtime"
)

func TestNewMachine(t *testing.T) {
	m := New(4, 48, DefaultNet())
	if m.NumNodes() != 4 {
		t.Fatalf("NumNodes = %d, want 4", m.NumNodes())
	}
	if m.TotalCores() != 192 {
		t.Fatalf("TotalCores = %d, want 192", m.TotalCores())
	}
	for i := 0; i < 4; i++ {
		n := m.Node(i)
		if n.ID != i || n.Cores != 48 || n.Speed != 1.0 {
			t.Fatalf("node %d = %+v", i, n)
		}
	}
}

func TestNewMachinePanics(t *testing.T) {
	for _, tc := range []struct{ n, c int }{{0, 4}, {4, 0}, {-1, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d, %d) did not panic", tc.n, tc.c)
				}
			}()
			New(tc.n, tc.c, NetModel{})
		}()
	}
}

func TestSetSpeedAndExecTime(t *testing.T) {
	m := New(2, 8, NetModel{})
	m.SetSpeed(1, 0.5)
	w := 100 * simtime.Millisecond
	if got := m.ExecTime(0, w); got != w {
		t.Fatalf("ExecTime(fast) = %v, want %v", got, w)
	}
	if got := m.ExecTime(1, w); got != 200*simtime.Millisecond {
		t.Fatalf("ExecTime(slow) = %v, want 200ms", got)
	}
}

func TestSetSpeedPanicsOnNonPositive(t *testing.T) {
	m := New(1, 1, NetModel{})
	defer func() {
		if recover() == nil {
			t.Error("SetSpeed(0) did not panic")
		}
	}()
	m.SetSpeed(0, 0)
}

func TestTotalCapacity(t *testing.T) {
	m := New(3, 16, NetModel{})
	m.SetSpeed(0, 0.6)
	want := 16*0.6 + 16 + 16
	if got := m.TotalCapacity(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("TotalCapacity = %v, want %v", got, want)
	}
}

func TestTransferTime(t *testing.T) {
	net := NetModel{
		Latency:        1000 * simtime.Nanosecond,
		BytesPerSecond: 1e9, // 1 GB/s
		LocalLatency:   100 * simtime.Nanosecond,
	}
	if got := net.TransferTime(0, 0, 1<<20); got != 100*simtime.Nanosecond {
		t.Fatalf("local transfer = %v, want 100ns", got)
	}
	// 1 MB at 1 GB/s = ~1.048576 ms plus 1 us latency.
	got := net.TransferTime(0, 1, 1<<20)
	want := 1000*simtime.Nanosecond + simtime.FromSeconds(float64(1<<20)/1e9)
	if got != want {
		t.Fatalf("remote transfer = %v, want %v", got, want)
	}
}

func TestTransferTimeInfiniteBandwidth(t *testing.T) {
	net := NetModel{Latency: 500 * simtime.Nanosecond}
	if got := net.TransferTime(0, 1, 1<<30); got != 500*simtime.Nanosecond {
		t.Fatalf("transfer with infinite bandwidth = %v, want latency only", got)
	}
}

func TestPresets(t *testing.T) {
	n3 := Nord3(16, 0)
	if n3.Node(0).Cores != 16 {
		t.Fatal("Nord3 cores wrong")
	}
	if math.Abs(n3.Node(0).Speed-0.6) > 1e-9 {
		t.Fatalf("slow node speed = %v, want 0.6", n3.Node(0).Speed)
	}
	if n3.Node(1).Speed != 1.0 {
		t.Fatal("non-slow node speed wrong")
	}
}

// Property: transfer time is monotone non-decreasing in message size and
// always at least the latency for remote transfers.
func TestQuickTransferMonotone(t *testing.T) {
	net := DefaultNet()
	f := func(a, b uint32) bool {
		s1, s2 := int64(a), int64(b)
		if s1 > s2 {
			s1, s2 = s2, s1
		}
		t1 := net.TransferTime(0, 1, s1)
		t2 := net.TransferTime(0, 1, s2)
		return t1 <= t2 && t1 >= net.Latency
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: ExecTime scales inversely with speed.
func TestQuickExecTimeScales(t *testing.T) {
	f := func(wRaw uint32, sRaw uint8) bool {
		w := simtime.Duration(wRaw) + 1
		speed := 0.1 + float64(sRaw)/64.0
		m := New(1, 1, NetModel{})
		m.SetSpeed(0, speed)
		got := m.ExecTime(0, w)
		want := float64(w) / speed
		return math.Abs(float64(got)-want) <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFatTreeHops(t *testing.T) {
	net := NetModel{
		Latency:    1000 * simtime.Nanosecond,
		TreeRadix:  4,
		HopLatency: 500 * simtime.Nanosecond,
	}
	// Nodes 0 and 1 share a leaf switch: 1 level = 2 hops extra.
	if got := net.TransferTime(0, 1, 0); got != 2000*simtime.Nanosecond {
		t.Fatalf("same-switch transfer = %v, want 2000ns", got)
	}
	// Nodes 0 and 5 cross one switch boundary: 2 levels.
	if got := net.TransferTime(0, 5, 0); got != 3000*simtime.Nanosecond {
		t.Fatalf("cross-switch transfer = %v, want 3000ns", got)
	}
	// Nodes 0 and 17 cross two levels... 0/4=0,17/4=4 -> 0/4=0,4/4=1 -> 0,1 -> 3 levels.
	if got := net.TransferTime(0, 17, 0); got != 4000*simtime.Nanosecond {
		t.Fatalf("far transfer = %v, want 4000ns", got)
	}
	// Distance-oblivious when TreeRadix is 0.
	flat := NetModel{Latency: 1000 * simtime.Nanosecond}
	if flat.TransferTime(0, 17, 0) != flat.TransferTime(0, 1, 0) {
		t.Fatal("flat network should be distance-oblivious")
	}
}

func TestCloneIsolatesMutation(t *testing.T) {
	proto := New(4, 8, DefaultNet())
	c := proto.Clone()
	c.SetSpeed(1, 0.5)
	c.RemoveCores(2, 4)
	if proto.Nodes[1].Speed != 1.0 {
		t.Fatalf("clone SetSpeed leaked into prototype: %v", proto.Nodes[1].Speed)
	}
	if proto.Nodes[2].Cores != 8 {
		t.Fatalf("clone RemoveCores leaked into prototype: %d", proto.Nodes[2].Cores)
	}
	if c.Nodes[1].Speed != 0.5 || c.Nodes[2].Cores != 4 {
		t.Fatal("clone lost its own mutations")
	}
	if c.Net != proto.Net {
		t.Fatal("clone must copy the network model")
	}
}
