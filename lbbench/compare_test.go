package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func samples(xs ...float64) summary { return summarize("s", xs) }

func TestJudgeVerdicts(t *testing.T) {
	base := samples(10, 10.1, 10.2, 9.9, 10)
	for _, c := range []struct {
		name        string
		head        summary
		bound       float64
		floor       float64
		lowerBetter bool
		want        verdict
	}{
		{"within bound", samples(10.3, 10.4, 10.2, 10.5, 10.3), 0.1, 0, true, same},
		{"slower beyond bound", samples(12, 12.1, 12.2, 11.9, 12), 0.1, 0, true, worse},
		{"faster beyond bound", samples(8, 8.1, 8.2, 7.9, 8), 0.1, 0, true, better},
		{"higher is better: drop is worse", samples(8, 8.1, 8.2, 7.9, 8), 0.1, 0, false, worse},
		{"higher is better: rise is better", samples(12, 12.1, 12.2, 11.9, 12), 0.1, 0, false, better},
		{"spread wider than bound", samples(7, 14, 10, 9, 13), 0.1, 0, true, unresolved},
		{"wide spread but every run faster", samples(5, 9.5, 6, 8, 9.8), 0.1, 0, true, better},
		{"wide spread, slower", samples(12, 20, 15, 11, 18), 0.1, 0, true, unresolved},
	} {
		if got := judge(base, c.head, c.bound, c.floor, c.lowerBetter); got != c.want {
			t.Errorf("%s: got %s, want %s", c.name, got, c.want)
		}
	}
}

// A metric of a few milliseconds moves by more than any useful share
// from scheduler noise alone; the absolute floor keeps it "same".
func TestJudgeFloor(t *testing.T) {
	base := samples(0.0110, 0.0111, 0.0112)
	head := samples(0.0160, 0.0161, 0.0162)
	if got := judge(base, head, 0.1, 0, true); got != worse {
		t.Fatalf("without floor: %s, want worse", got)
	}
	if got := judge(base, head, 0.1, 0.02, true); got != same {
		t.Fatalf("with a 20ms floor: %s, want same", got)
	}
	if got := judge(base, samples(0.0400, 0.0401, 0.0402), 0.1, 0.02, true); got != worse {
		t.Fatalf("beyond the floor: %s, want worse", got)
	}
}

func writeResults(t *testing.T, dir, name string, wall []float64, failed int) string {
	t.Helper()
	r := results{Workloads: map[string]*workloadResult{"fig8-default": {
		Attempted: len(wall), Failed: failed,
		Metrics: map[string]summary{"wall_s": samples(wall...), "simtime.events": summarize("count", []float64{5, 5})},
	}}}
	data, err := json.Marshal(&r)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareFilesExitCodes(t *testing.T) {
	dir := t.TempDir()
	bench := `{"end_to_end":[{"name":"wall_s","unit":"s","better":"lower","bound":0.1}],
		"per_layer":[{"name":"simtime.events","unit":"count","better":"lower"}]}`
	if err := os.WriteFile(filepath.Join(dir, "BENCHMARK.json"), []byte(bench), 0o644); err != nil {
		t.Fatal(err)
	}
	base := writeResults(t, dir, "base.json", []float64{10, 10.1, 9.9}, 0)
	for _, c := range []struct {
		name   string
		wall   []float64
		failed int
		code   int
		word   string
	}{
		{"same", []float64{10.2, 10, 10.1}, 0, 0, "same"},
		{"worse", []float64{12, 12.2, 11.9}, 0, 1, "worse"},
		{"better", []float64{8, 8.1, 7.9}, 0, 0, "better"},
		{"failed checks", []float64{10, 10, 10}, 1, 1, "same"},
	} {
		head := writeResults(t, dir, c.name+".json", c.wall, c.failed)
		var out, errOut bytes.Buffer
		code := compareFiles(dir, base, head, &out, &errOut)
		if code != c.code || !strings.Contains(out.String(), c.word) || !strings.Contains(out.String(), "simtime.events") {
			t.Errorf("%s: exit %d (want %d)\n%s%s", c.name, code, c.code, out.String(), errOut.String())
		}
	}
}

// Host speed drifting by 30 % between pairs hides a 5 % slowdown from
// the unpaired medians, but not from the pairs.
func TestJudgePaired(t *testing.T) {
	drift := []float64{10, 13, 10.5, 12.5, 11, 13, 10, 12, 11.5, 10.2}
	scaled := func(f float64, noise ...float64) []float64 {
		xs := make([]float64, len(drift))
		for i, x := range drift {
			xs[i] = x * f
			if i < len(noise) {
				xs[i] *= 1 + noise[i]
			}
		}
		return xs
	}
	for _, c := range []struct {
		name        string
		base, head  []float64
		floor       float64
		lowerBetter bool
		want        verdict
	}{
		{"consistent 5% slowdown", drift, scaled(1.05, 0.01, -0.01, 0.005), 0, true, worse},
		{"consistent 5% speed-up", drift, scaled(0.95, 0.01, -0.01, 0.005), 0, true, better},
		{"higher is better: a drop is worse", drift, scaled(0.95), 0, false, worse},
		{"unchanged", drift, scaled(1, 0.01, -0.01, 0.005, -0.005, 0.002, -0.002), 0, true, same},
		{"5% slower in 8 of 10 pairs: within the bound", drift, scaled(1.05, -0.1, -0.1), 0, true, same},
		{"15% slower in 8 of 10 pairs: beyond the bound", drift, scaled(1.15, -0.2, -0.2), 0, true, unresolved},
		{"under the floor", drift, scaled(1.05), 1, true, same},
		{"fewer than ten pairs", drift[:5], scaled(1.05)[:5], 0, true, same},
		{"fewer than ten pairs, beyond the bound", drift[:5], scaled(1.15)[:5], 0, true, unresolved},
		{"pairs disagree widely", drift, scaled(1, 0.3, -0.3, 0.3, -0.3, 0.3, -0.3, 0.3, -0.3, 0.3, -0.3), 0, true, unresolved},
	} {
		if got := judgePaired(c.base, c.head, 0.1, c.floor, c.lowerBetter).verdict; got != c.want {
			t.Errorf("%s: got %s, want %s", c.name, got, c.want)
		}
	}
	if got := judge(samples(drift...), samples(scaled(1.05)...), 0.1, 0, true); got != unresolved {
		t.Errorf("unpaired judge of the 5%% slowdown: got %s, want unresolved", got)
	}
}
