package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// runAB runs each workload on two builds, alternating rep by rep: the
// base commit's binaries, built from baseRepo, and those of h's
// repository, the head. Host speed on a shared machine drifts over
// tens of seconds, so only reps run back to back see the same host;
// runs minutes apart do not. It prints judgePaired's verdict on every
// end-to-end metric, and fails on a failed check on either side or a
// metric that got worse.
func runAB(h *harness, baseRepo string, ws []workload, reps int, stdout, stderr io.Writer) int {
	var spec benchSpec
	if err := readJSON(filepath.Join(h.repo, "BENCHMARK.json"), &spec); err != nil {
		fmt.Fprintln(stderr, "lbbench:", err)
		return 1
	}
	dir := filepath.Join(h.work, "base")
	if err := os.Mkdir(dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "lbbench:", err)
		return 1
	}
	b, err := buildHarness(baseRepo, dir)
	if err != nil {
		fmt.Fprintln(stderr, "lbbench:", err)
		return 1
	}
	sides := [2]*harness{b, h}
	names := [2]string{"base", "head"}
	for _, w := range ws {
		for i, s := range sides {
			if err := w.warm(s); err != nil {
				fmt.Fprintf(stderr, "lbbench: %s %s warm-up: %v\n", names[i], w.Name(), err)
				return 1
			}
		}
	}

	byWorkload := map[string]*pairs{}
	cs := map[string][2]*collector{}
	for _, w := range ws {
		byWorkload[w.Name()] = &pairs{base: map[string][]float64{}, head: map[string][]float64{}}
		cs[w.Name()] = [2]*collector{newCollector(), newCollector()}
	}
	for r := 0; r < reps; r++ {
		for _, w := range ws {
			var got [2]repResult
			for k := 0; k < 2; k++ {
				side := (k + r) % 2 // the base runs first in even reps
				got[side] = w.rep(sides[side])
				cs[w.Name()][side].add(got[side])
			}
			p := byWorkload[w.Name()]
			for _, d := range endToEnd {
				bv, okb := repValue(got[0], d.name)
				hv, okh := repValue(got[1], d.name)
				if okb && okh {
					p.base[d.name] = append(p.base[d.name], bv)
					p.head[d.name] = append(p.head[d.name], hv)
				}
			}
		}
	}

	bad := printPairs(stdout, &spec, byWorkload)
	for _, w := range ws {
		for i, c := range cs[w.Name()] {
			for _, e := range c.errs {
				fmt.Fprintf(stderr, "lbbench: %s: check failed: %s\n", names[i], e)
				bad = true
			}
		}
	}
	if bad {
		return 1
	}
	return 0
}

// repValue is one rep's value of an end-to-end metric: the median of
// its set-up samples for setup_s.
func repValue(r repResult, name string) (float64, bool) {
	if name == "setup_s" {
		return median(r.setup), len(r.setup) > 0
	}
	v, ok := r.samples[name]
	return v, ok
}
