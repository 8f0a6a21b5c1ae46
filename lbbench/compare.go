package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json the harness reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkSpec fails unless BENCHMARK.json lists exactly the workloads and
// metrics the harness reports, in order, with the same units and
// directions, and every end-to-end metric has a bound in (0, 0.25].
// Every run checks it, so the file and the harness cannot drift apart.
func checkSpec(path string, ws []workload) error {
	var spec benchSpec
	if err := readJSON(path, &spec); err != nil {
		return err
	}
	bad := func(format string, args ...any) error {
		return fmt.Errorf("%s does not match the harness: "+format, append([]any{path}, args...)...)
	}
	if len(spec.Workloads) != len(ws) {
		return bad("%d workloads, the harness has %d", len(spec.Workloads), len(ws))
	}
	for i, w := range ws {
		if spec.Workloads[i].Name != w.Name() || spec.Workloads[i].Why == "" {
			return bad("workload %d is %q, the harness has %q", i, spec.Workloads[i].Name, w.Name())
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		return bad("%d+%d metrics, the harness %d+%d", len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	check := func(kind string, i int, name, unit, better string, d metricDef) error {
		if name != d.name || unit != d.unit || better != d.better {
			return bad("%s %d is %s (%s, %s), the harness has %s (%s, %s)", kind, i, name, unit, better, d.name, d.unit, d.better)
		}
		if seen[name] || !metricName.MatchString(name) {
			return bad("%s %d: name %q repeated or malformed", kind, i, name)
		}
		seen[name] = true
		return nil
	}
	for i, m := range spec.EndToEnd {
		if err := check("end_to_end", i, m.Name, m.Unit, m.Better, endToEnd[i]); err != nil {
			return err
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			return bad("end_to_end %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for i, m := range spec.PerLayer {
		if err := check("per_layer", i, m.Name, m.Unit, m.Better, perLayer[i]); err != nil {
			return err
		}
	}
	if !seen["setup_s"] {
		return bad("setup_s is missing")
	}
	return nil
}

// floors are absolute changes within which an end-to-end metric counts
// as unchanged whatever its relative bound: set-up time is tens of
// milliseconds on some workloads, where timer and scheduler noise
// exceed any useful share.
var floors = map[string]float64{"setup_s": 0.02}

type verdict string

const (
	better     verdict = "better"
	worse      verdict = "worse"
	same       verdict = "same"
	unresolved verdict = "unresolved"
)

// judge compares head against base for one metric. The threshold is
// the larger of bound x base median and the floor. A spread (either
// side's interquartile range) wider than the threshold leaves the
// change unresolved, unless every head sample beats every base sample.
func judge(base, head summary, bound, floor float64, lowerBetter bool) verdict {
	threshold := math.Max(bound*math.Abs(base.Median), floor)
	worsening := head.Median - base.Median
	if !lowerBetter {
		worsening = -worsening
	}
	spread := math.Max(base.Q3-base.Q1, head.Q3-head.Q1)
	if spread > threshold {
		if allBetter(base.Samples, head.Samples, lowerBetter) && -worsening > floor {
			return better
		}
		return unresolved
	}
	switch {
	case worsening > threshold:
		return worse
	case -worsening > threshold:
		return better
	}
	return same
}

// allBetter reports whether every head sample beats every base sample.
func allBetter(base, head []float64, lowerBetter bool) bool {
	if len(base) == 0 || len(head) == 0 {
		return false
	}
	bs, hs := sorted(base), sorted(head)
	if lowerBetter {
		return hs[len(hs)-1] < bs[0]
	}
	return hs[0] > bs[len(bs)-1]
}

// minPairs is the fewest pairs on which judgePaired calls a change
// worse or better.
const minPairs = 10

// pairedResult is judgePaired's reading of one metric.
type pairedResult struct {
	change        summary // per pair: head over base, minus 1
	better, worse int     // pairs in which head beat or lost to base
	verdict       verdict
}

// judgePaired compares base and head samples taken in alternating
// pairs, so that host speed drifting between pairs cancels out. A
// change is real when the median of the per-pair changes exceeds their
// own spread (interquartile range) and the median absolute change
// exceeds the floor. A real change is worse or better when there are
// at least minPairs pairs and nine tenths of them agree on its
// direction; ties count for neither side. Any other change larger than
// the bound, or a spread wider than it, is unresolved.
func judgePaired(base, head []float64, bound, floor float64, lowerBetter bool) pairedResult {
	var p pairedResult
	var rel, abs []float64
	for i := range base {
		d := head[i] - base[i]
		abs = append(abs, d)
		rel = append(rel, d/math.Abs(base[i]))
		switch {
		case d == 0:
		case (d < 0) == lowerBetter:
			p.better++
		default:
			p.worse++
		}
	}
	p.change = summarize("ratio", rel)
	need := max(minPairs, int(math.Ceil(0.9*float64(len(base)))))
	spread := p.change.Q3 - p.change.Q1
	moved := math.Abs(p.change.Median) > spread && math.Abs(median(abs)) > floor
	switch {
	case moved && p.worse >= need:
		p.verdict = worse
	case moved && p.better >= need:
		p.verdict = better
	case spread > bound || math.Abs(p.change.Median) > bound:
		p.verdict = unresolved
	default:
		p.verdict = same
	}
	return p
}

// compareFiles prints, for every workload and metric in both result
// files, both medians and quartiles, the relative change and, for the
// end-to-end metrics, a verdict under BENCHMARK.json's bounds. It fails
// if an end-to-end metric got worse or head has failed checks.
func compareFiles(repo, basePath, headPath string, stdout, stderr io.Writer) int {
	var spec benchSpec
	var base, head results
	for _, r := range []struct {
		path string
		v    any
	}{{filepath.Join(repo, "BENCHMARK.json"), &spec}, {basePath, &base}, {headPath, &head}} {
		if err := readJSON(r.path, r.v); err != nil {
			fmt.Fprintln(stderr, "lbbench:", err)
			return 1
		}
	}
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase median [q1, q3]\thead median [q1, q3]\tchange\tverdict")
	row := func(wl, name string, b, h summary, v verdict) {
		change := "n/a"
		if b.Median != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(h.Median-b.Median)/math.Abs(b.Median))
		}
		fmt.Fprintf(tw, "%s\t%s\t%s [%s, %s]\t%s [%s, %s]\t%s\t%s\n",
			wl, name, num(b.Median), num(b.Q1), num(b.Q3), num(h.Median), num(h.Q1), num(h.Q3), change, v)
	}
	bad := false
	for _, wl := range sortedKeys(base.Workloads) {
		bw, hw := base.Workloads[wl], head.Workloads[wl]
		if hw == nil {
			continue
		}
		if hw.Failed > 0 {
			fmt.Fprintf(stderr, "lbbench: %s: head failed %d of %d checks\n", wl, hw.Failed, hw.Attempted)
			bad = true
		}
		for _, m := range spec.EndToEnd {
			b, okb := bw.Metrics[m.Name]
			h, okh := hw.Metrics[m.Name]
			if !okb || !okh {
				continue
			}
			v := judge(b, h, m.Bound, floors[m.Name], m.Better == "lower")
			bad = bad || v == worse
			row(wl, m.Name, b, h, v)
		}
		for _, m := range spec.PerLayer {
			b, okb := bw.Metrics[m.Name]
			h, okh := hw.Metrics[m.Name]
			if !okb || !okh || (b.Median == 0 && h.Median == 0) {
				continue
			}
			row(wl, m.Name, b, h, "-")
		}
	}
	tw.Flush()
	if bad {
		return 1
	}
	return 0
}

// pairs holds one workload's end-to-end samples from alternating base
// and head reps: base[i] and head[i] ran back to back.
type pairs struct {
	base, head map[string][]float64
}

// printPairs prints judgePaired's reading of every end-to-end metric of
// every workload and reports whether one got worse.
func printPairs(w io.Writer, spec *benchSpec, byWorkload map[string]*pairs) bool {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tpairs\tbase median\thead median\tpaired change [q1, q3]\thead better/worse\tverdict")
	pct := func(v float64) string { return fmt.Sprintf("%+.1f%%", 100*v) }
	bad := false
	for _, wl := range sortedKeys(byWorkload) {
		ps := byWorkload[wl]
		for _, m := range spec.EndToEnd {
			base, head := ps.base[m.Name], ps.head[m.Name]
			if len(base) == 0 {
				continue
			}
			p := judgePaired(base, head, m.Bound, floors[m.Name], m.Better == "lower")
			bad = bad || p.verdict == worse
			fmt.Fprintf(tw, "%s\t%s\t%d\t%s\t%s\t%s [%s, %s]\t%d/%d\t%s\n", wl, m.Name, len(base),
				num(median(base)), num(median(head)), pct(p.change.Median), pct(p.change.Q1), pct(p.change.Q3),
				p.better, p.worse, p.verdict)
		}
	}
	tw.Flush()
	return bad
}
