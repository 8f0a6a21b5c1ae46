package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

// results is the file -out writes and -compare reads.
type results struct {
	Seed      int64                      `json:"seed"`
	Reps      int                        `json:"reps"`
	ElapsedS  float64                    `json:"elapsed_s"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

// printTable prints "workload metric median [q1,q3] n unit" rows: every
// end-to-end metric, then the per-layer metrics a workload measured
// (non-zero), then each profiled workload's self-time shares.
func printTable(w io.Writer, res *results) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tmedian\t[q1, q3]\tn\tunit")
	for _, pass := range [][]metricDef{endToEnd, perLayer} {
		for _, name := range sortedKeys(res.Workloads) {
			wr := res.Workloads[name]
			for _, d := range pass {
				s, ok := wr.Metrics[d.name]
				if !ok || (!isEndToEnd(d.name) && s.Q1 == 0 && s.Q3 == 0) {
					continue // a layer this workload does not run
				}
				fmt.Fprintf(tw, "%s\t%s\t%s\t[%s, %s]\t%d\t%s\n", name, d.name, num(s.Median), num(s.Q1), num(s.Q3), s.N, s.Unit)
			}
		}
	}
	tw.Flush()
	for _, name := range sortedKeys(res.Workloads) {
		if shares := selfShares(res.Workloads[name]); shares != "" {
			fmt.Fprintf(w, "%s self time: %s\n", name, shares)
		}
	}
}

// num prints counts in full and other values to six significant digits.
func num(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	return strconv.FormatFloat(v, 'g', 6, 64)
}

func isEndToEnd(name string) bool {
	for _, d := range endToEnd {
		if d.name == name {
			return true
		}
	}
	return false
}

// selfShares renders each layer's share of profiled self time, largest
// first, or "" when the workload was not profiled.
func selfShares(wr *workloadResult) string {
	type share struct {
		layer string
		secs  float64
	}
	var shares []share
	total := 0.0
	for _, l := range selfLayers {
		v := wr.Metrics[l+".self_s"].Median
		total += v
		if v > 0 {
			shares = append(shares, share{l, v})
		}
	}
	if total == 0 {
		return ""
	}
	sort.Slice(shares, func(i, j int) bool { return shares[i].secs > shares[j].secs })
	parts := make([]string, len(shares))
	for i, s := range shares {
		parts[i] = fmt.Sprintf("%s %.1f%%", s.layer, 100*s.secs/total)
	}
	return strings.Join(parts, ", ")
}
