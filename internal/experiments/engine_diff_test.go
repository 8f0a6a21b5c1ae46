package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// runFig8 renders fig8 at quick scale through ByID (so the engine
// counters are collected) with the given scale tweaks, returning the CSV
// bytes and the summarized engine counters.
func runFig8(t *testing.T, mutate func(*Scale)) (string, EngineStats) {
	t.Helper()
	sc := qs()
	mutate(&sc)
	res, err := ByID("fig8", sc)
	if err != nil {
		t.Fatal(err)
	}
	return res.CSV(), res.Engine
}

// TestEngineDifferentialFig8 is the conversion-safety check for the
// pooled continuation records: fig8 must render byte-for-byte the CSV,
// and reach exactly the deterministic engine counters (events, fast-path
// split, heap pushes, parks, wakes), that the legacy per-task closure
// engine produced before it was deleted. Both values were recorded from
// that engine. A divergence means the pooled records changed a
// scheduling decision, which the byte-identity contract forbids.
func TestEngineDifferentialFig8(t *testing.T) {
	const closureCSVSHA256 = "53025f47df027f2c0285f182e6554e08d63981b5588d885960e826195f5178e0"
	closureStats := EngineStats{
		Runs: 56, Events: 333409, FastPath: 149223, HeapPushes: 184186,
		Parks: 2016, Wakes: 2016, PeakGoroutines: 8, RegistryHiWater: 120,
	}
	csv, stats := runFig8(t, func(*Scale) {})
	sum := sha256.Sum256([]byte(csv))
	if got := hex.EncodeToString(sum[:]); got != closureCSVSHA256 {
		t.Fatalf("fig8 CSV sha256 = %s, closure engine recorded %s:\n%s", got, closureCSVSHA256, csv)
	}
	if stats != closureStats {
		t.Fatalf("engine counters differ from the closure engine:\ngot:     %+v\nclosure: %+v", stats, closureStats)
	}
}

// TestEngineDifferentialParallelism: the sweep engine collects results by
// spec index, so running the figure's simulations sequentially or eight
// at a time must not change a byte of output or any deterministic
// counter. (Host-time derived fields are not part of EngineStats.)
func TestEngineDifferentialParallelism(t *testing.T) {
	seqCSV, seqStats := runFig8(t, func(sc *Scale) { sc.Parallel = 1 })
	parCSV, parStats := runFig8(t, func(sc *Scale) { sc.Parallel = 8 })
	if seqCSV != parCSV {
		t.Fatalf("fig8 CSV differs between -parallel 1 and 8:\nseq:\n%s\npar:\n%s", seqCSV, parCSV)
	}
	if seqStats != parStats {
		t.Fatalf("engine counters differ across parallelism:\nseq: %+v\npar: %+v", seqStats, parStats)
	}
	if seqStats.Events == 0 || seqStats.Parks == 0 || seqStats.Wakes == 0 {
		t.Fatalf("implausible counters (collector not wired?): %+v", seqStats)
	}
}
