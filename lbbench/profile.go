package main

import (
	"bufio"
	"fmt"
	"io"
	"regexp"
	"strconv"
	"strings"
)

// modulePrefix is the import-path prefix of the simulator's layers.
const modulePrefix = "ompsscluster/internal/"

// pkgLayers are the repository packages that are layers of their own;
// internal/workloads/* is one layer. Any other repository package
// (faults, sweep, jobs, the root package) is "other".
var pkgLayers = []string{
	"simtime", "core", "nanos", "flow", "balance", "lp", "dlb", "simmpi",
	"nbody", "expander", "cluster", "workloads", "experiments",
	"obs", "metrics", "trace",
}

// selfLayers are the layers whose self time the CPU profile is split
// into. Every sample lands in exactly one of them: the command's own
// code is "cli" and stacks without a repository frame are "runtime".
var selfLayers = append(append([]string(nil), pkgLayers...), "cli", "runtime", "other")

// gcFrames mark a stack as garbage-collector work, counted toward
// runtime.gc_s in addition to the layer the stack belongs to.
var gcFrames = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep"}

// layerOf maps a frame (a fully qualified function name as pprof prints
// it) to its layer, or "" when the frame is outside the repository.
func layerOf(frame string) string {
	if strings.HasPrefix(frame, "main.") {
		return "cli"
	}
	rest, ok := strings.CutPrefix(frame, modulePrefix)
	if !ok {
		if strings.HasPrefix(frame, "ompsscluster.") {
			return "other"
		}
		return ""
	}
	pkg := rest
	if i := strings.IndexAny(pkg, "./"); i >= 0 {
		pkg = pkg[:i]
	}
	for _, l := range pkgLayers {
		if l == pkg {
			return l
		}
	}
	return "other"
}

// stack is one sample record of `go tool pprof -traces`: its value in
// the profile's unit (seconds or bytes) and its frames, leaf first.
type stack struct {
	value  float64
	frames []string
}

var valueRe = regexp.MustCompile(`^\s*([0-9.]+)([a-zA-Zµ]*)\s+(\S.*)$`)

// parseTraces reads the text `go tool pprof -traces` prints: a header,
// then records separated by "-----------+---" lines, each starting with
// the sample value followed by the leaf frame and then one caller frame
// per line. Label lines ("bytes:  4.75kB") and "(inline)" markers are
// skipped.
func parseTraces(r io.Reader) ([]stack, error) {
	var out []stack
	var cur *stack
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			out = append(out, stack{})
			cur = &out[len(out)-1]
			continue
		}
		if cur == nil || strings.TrimSpace(line) == "" {
			continue // header
		}
		if cur.frames == nil {
			if f := strings.Fields(line); strings.HasSuffix(f[0], ":") {
				continue // a sample label line
			}
			m := valueRe.FindStringSubmatch(line)
			if m == nil {
				return nil, fmt.Errorf("pprof traces: no sample value in %q", line)
			}
			v, err := scaleValue(m[1], m[2])
			if err != nil {
				return nil, err
			}
			cur.value = v
			cur.frames = append(cur.frames, frameName(m[3]))
			continue
		}
		cur.frames = append(cur.frames, frameName(line))
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	// A trailing separator opens an empty record.
	for len(out) > 0 && out[len(out)-1].frames == nil {
		out = out[:len(out)-1]
	}
	return out, nil
}

func frameName(s string) string {
	s = strings.TrimSpace(s)
	return strings.TrimSuffix(s, " (inline)")
}

// scaleValue converts a pprof-rendered quantity to seconds (time units)
// or bytes (memory units, which pprof scales by 1024).
func scaleValue(num, unit string) (float64, error) {
	v, err := strconv.ParseFloat(num, 64)
	if err != nil {
		return 0, fmt.Errorf("pprof traces: value %q: %w", num, err)
	}
	scale := map[string]float64{
		"ns": 1e-9, "us": 1e-6, "µs": 1e-6, "ms": 1e-3, "s": 1, "mins": 60, "hrs": 3600,
		"B": 1, "": 1, "kB": 1 << 10, "MB": 1 << 20, "GB": 1 << 30, "TB": 1 << 40,
	}
	f, ok := scale[unit]
	if !ok {
		return 0, fmt.Errorf("pprof traces: unknown unit %q", unit)
	}
	return v * f, nil
}

// layerTimes attributes each CPU sample to the first repository frame
// counting from the leaf (samples with none go to runtime), keyed by
// every entry of selfLayers, and sums the samples of GC stacks
// separately.
func layerTimes(stacks []stack) (self map[string]float64, gc float64) {
	self = map[string]float64{}
	for _, l := range selfLayers {
		self[l] = 0
	}
	for _, s := range stacks {
		layer, isGC := "", false
		for _, f := range s.frames {
			if layer == "" {
				layer = layerOf(f)
			}
			for _, g := range gcFrames {
				isGC = isGC || strings.HasPrefix(f, g)
			}
		}
		if layer == "" {
			layer = "runtime"
		}
		self[layer] += s.value
		if isGC {
			gc += s.value
		}
	}
	return self, gc
}

// countGCLines counts the collections reported by GODEBUG=gctrace=1.
func countGCLines(stderr string) int {
	n := 0
	for _, line := range strings.Split(stderr, "\n") {
		if strings.HasPrefix(line, "gc ") && strings.Contains(line, " @") {
			n++
		}
	}
	return n
}
