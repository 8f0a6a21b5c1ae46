package nbody

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// quickStore shares the quick-scale trajectories between tests.
var quickStore = NewStore()

// quickBodies are the body counts of fig6c's quick sweep: 2, 4 and 8
// nodes with two appranks each.
var quickBodies = []int{768, 1536, 3072}

// quickConfig is the physics of one of fig6c's quick-scale runs: 192
// bodies per apprank, 6 steps, seed 1, theta 0.5, DT 0.02.
func quickConfig(bodies int) AdapterConfig {
	return AdapterConfig{Bodies: bodies, Steps: 6, Theta: 0.5, DT: 0.02, Seed: 1}
}

// quickTrajectory returns the shared trajectory of quickConfig(bodies).
func quickTrajectory(bodies int) *Trajectory { return quickStore.Get(quickConfig(bodies)) }

// stampedWeights returns the ORB weights the ranks of a count-weighted
// run hold at the start of step k: all 1 at step 0, then the previous
// step's interaction counts.
func stampedWeights(tr *Trajectory, k int) []float64 {
	pos, _ := tr.Step(k)
	w := make([]float64, len(pos))
	for i := range w {
		w[i] = 1
	}
	if k > 0 {
		_, prev := tr.Step(k - 1)
		for i, c := range prev {
			w[i] = float64(c)
		}
	}
	return w
}

// TestTrajectoriesPinned pins the physics of the three quick-scale
// trajectories fig6c integrates, bit for bit: positions at the start of
// every step and after the last, every step's interaction counts, and the
// count-weighted ORB assignment of every step into 4, 8 and 16 parts.
// Task durations and every fig6c number derive from these, so a force or
// ORB change that is not bitwise identical fails here, not only in a
// whole-program output hash.
func TestTrajectoriesPinned(t *testing.T) {
	cases := []struct {
		bodies       int
		physics, orb string
	}{
		{768,
			"232f86c47c3c85f297a3593f12bb2a800fb75313f6c1e0b3d1e6509a7b1c5e3c",
			"f609d979692e892706459ee411241b2f9b8b6ac3c9a0462609cc44175e8ec0ac"},
		{1536,
			"a43245c21c5d7392415383a29e8623f276bc77ab5911576d66acf28c907191a2",
			"9ada21d7415473de76303b4bdb892e5006721098c4f2a05767bf795f49bc5dce"},
		{3072,
			"3d91603a72fd18c7140d2bf94d6e414316daa1d6e4431ae92a42a80530c98eba",
			"663b2026fd70c6ebd2496e062ae01d09a8ff6501052f59fc624c901b3012b8cd"},
	}
	for _, c := range cases {
		tr := quickTrajectory(c.bodies)
		phys, orb := sha256.New(), sha256.New()
		var buf [8]byte
		put := func(h interface{ Write([]byte) (int, error) }, v uint64) {
			binary.LittleEndian.PutUint64(buf[:], v)
			h.Write(buf[:])
		}
		for k := 0; k < tr.steps; k++ {
			pos, counts := tr.Step(k)
			for i := range pos {
				for d := 0; d < 3; d++ {
					put(phys, math.Float64bits(pos[i][d]))
				}
				put(phys, uint64(counts[i]))
			}
			w := stampedWeights(tr, k)
			for _, parts := range []int{4, 8, 16} {
				for _, p := range ORB(pos, w, parts) {
					put(orb, uint64(p))
				}
			}
		}
		for _, p := range tr.Final() {
			for d := 0; d < 3; d++ {
				put(phys, math.Float64bits(p[d]))
			}
		}
		if got := hex.EncodeToString(phys.Sum(nil)); got != c.physics {
			t.Errorf("%d bodies: physics sha256 = %s, want %s", c.bodies, got, c.physics)
		}
		if got := hex.EncodeToString(orb.Sum(nil)); got != c.orb {
			t.Errorf("%d bodies: ORB sha256 = %s, want %s", c.bodies, got, c.orb)
		}
	}
}
