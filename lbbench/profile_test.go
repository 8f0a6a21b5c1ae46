package main

import (
	"math"
	"os"
	"strings"
	"testing"
)

func parseFixture(t *testing.T, name string) []stack {
	t.Helper()
	f, err := os.Open("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stacks, err := parseTraces(f)
	if err != nil {
		t.Fatal(err)
	}
	return stacks
}

func TestParseTracesRecords(t *testing.T) {
	stacks := parseFixture(t, "cpu.traces")
	if len(stacks) != 10 {
		t.Fatalf("got %d stacks, want 10", len(stacks))
	}
	if s := stacks[1]; s.frames[0] != "ompsscluster/internal/simtime.(*Env).heapPop" || !near(s.value, 0.03) {
		t.Errorf("inline leaf: %q %v", s.frames[0], s.value)
	}
	if s := stacks[5]; !near(s.value, 1.2) || len(s.frames) != 10 {
		t.Errorf("1.20s record: value %v, %d frames", s.value, len(s.frames))
	}
	if s := stacks[8]; !strings.HasPrefix(s.frames[2], "ompsscluster/internal/sweep.Map[go.shape.struct {") {
		t.Errorf("generic frame mangled: %q", s.frames[2])
	}
}

// Each sample goes to the first repository frame from the leaf: stdlib
// leaves under a repository frame count for that frame's layer, stacks
// without one count as runtime, and GC stacks also count as gc.
func TestLayerTimesAttribution(t *testing.T) {
	got, gc := layerTimes(parseFixture(t, "cpu.traces"))
	want := map[string]float64{
		"nanos": 0.02, "simtime": 0.03, "balance": 0.01, "core": 1.2,
		"workloads": 0.05, "cli": 0.01, "other": 0.01,
		"runtime": 0.01 + 0.04 + 0.01,
	}
	for _, l := range selfLayers {
		if math.Abs(got[l]-want[l]) > 1e-9 {
			t.Errorf("%s: got %v, want %v", l, got[l], want[l])
		}
	}
	if len(got) != len(selfLayers) {
		t.Errorf("unexpected layers in %v", got)
	}
	if want := 0.04 + 1.2 + 0.01; math.Abs(gc-want) > 1e-9 {
		t.Errorf("gc: got %v, want %v", gc, want)
	}
}

func TestLayerOf(t *testing.T) {
	for frame, want := range map[string]string{
		"ompsscluster/internal/core.(*nodeState).dispatch": "core",
		"ompsscluster/internal/workloads/stencil.Run":      "workloads",
		"ompsscluster/internal/faults.(*Injector).Tick":    "other",
		"ompsscluster/internal/jobs.(*Runner).process":     "other",
		"ompsscluster.Run": "other",
		"main.run.func5":   "cli",
		"ompsscluster/internal/obs.(*Recorder).emit":          "obs",
		"runtime.mallocgc":                                    "",
		"internal/runtime/maps.NewMap":                        "",
		"slices.SortFunc[go.shape.[]ompsscluster/internal/x]": "",
	} {
		if got := layerOf(frame); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", frame, got, want)
		}
	}
}

func TestAllocSpaceTotal(t *testing.T) {
	total := 0.0
	for _, s := range parseFixture(t, "mem.traces") {
		total += s.value
	}
	if want := 514.38*1024 + 1.5*(1<<20) + 512; math.Abs(total-want) > 1e-6 {
		t.Fatalf("alloc total %v, want %v", total, want)
	}
}

func TestScaleValueUnits(t *testing.T) {
	for _, c := range []struct {
		num, unit string
		want      float64
	}{{"250", "us", 250e-6}, {"1.5", "mins", 90}, {"2", "GB", 2 << 30}, {"3", "ns", 3e-9}} {
		got, err := scaleValue(c.num, c.unit)
		if err != nil || math.Abs(got-c.want) > 1e-15*math.Max(1, c.want) {
			t.Errorf("%s%s = %v, %v; want %v", c.num, c.unit, got, err, c.want)
		}
	}
	if _, err := scaleValue("1", "furlongs"); err == nil {
		t.Error("unknown unit accepted")
	}
}

func TestParseTracesRejectsGarbage(t *testing.T) {
	if _, err := parseTraces(strings.NewReader("-----------+----\nnot a value line\n")); err == nil {
		t.Fatal("record without a value accepted")
	}
}

func TestCountGCLines(t *testing.T) {
	stderr := "gc 1 @0.037s 0%: 0.02+0.3+0.003 ms clock, 10->10->1 MB, 16 MB goal, 2 P (forced)\n" +
		"lbsim: something else\n" +
		"gc 2 @1.5s 1%: 0.02+0.3+0.003 ms clock, 10->10->1 MB, 16 MB goal, 2 P\n"
	if n := countGCLines(stderr); n != 2 {
		t.Fatalf("counted %d gc lines, want 2", n)
	}
}
