// Command traceview runs the traced variant of an experiment (fig5,
// fig8, fig9, policies, or efficiency — unknown ids are a hard error)
// and renders its busy-core timelines as ASCII, dumps them as CSV for
// plotting, emits simplified Paraver records, or exports a Chrome trace
// JSON loadable in Perfetto (https://ui.perfetto.dev). With -pop it
// instead prints the POP efficiency reports (PE = LB x CommE) of the
// same representative configurations.
//
// Usage:
//
//	traceview -exp fig9 [-scale quick|default|paper] [-width 100] [-csv]
//	traceview -exp fig5 -prv -o fig5.prv
//	traceview -exp fig9 -chrome -o fig9.json
//	traceview -exp efficiency -pop
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"

	"ompsscluster/internal/experiments"
	"ompsscluster/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// maxWidth bounds -width: Render builds one row string of that many
// columns per timeline.
const maxWidth = 10000

// run is main with its dependencies injected: flags are parsed from
// args and output goes to the given writers. A bad flag, a -width
// outside [1, maxWidth] or more than one of -csv, -prv, -chrome and
// -pop exits 2; a failed run or write prints "traceview: <err>" and
// exits 1.
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("traceview", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp    = fs.String("exp", "fig9", "which experiment's traces to produce: fig5, fig8, fig9, policies, or efficiency")
		scale  = fs.String("scale", "quick", "scale: quick, default, or paper")
		width  = fs.Int("width", 100, "timeline width in characters")
		csv    = fs.Bool("csv", false, "emit CSV instead of ASCII art")
		prv    = fs.Bool("prv", false, "emit simplified Paraver (.prv) records")
		chrome = fs.Bool("chrome", false, "emit Chrome trace JSON (open in Perfetto)")
		pop    = fs.Bool("pop", false, "print POP efficiency reports (PE = LB x CommE) instead of timelines")
		oFlag  = fs.String("o", "", "write output to this file instead of stdout")
	)
	if err := fs.Parse(args); err != nil {
		return 2 // the FlagSet already printed the problem and usage
	}
	views := 0
	for _, set := range []bool{*csv, *prv, *chrome, *pop} {
		if set {
			views++
		}
	}
	switch {
	case views > 1:
		fmt.Fprintln(stderr, "traceview: -csv, -prv, -chrome and -pop are exclusive; pick one")
		return 2
	case *width < 1 || *width > maxWidth:
		fmt.Fprintf(stderr, "traceview: -width %d outside [1, %d]\n", *width, maxWidth)
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "traceview:", err)
		return 1
	}

	sc, err := experiments.ScaleByName(*scale)
	if err != nil {
		return fail(err)
	}
	var bundles []experiments.TraceBundle
	var pops []experiments.POPBundle
	if *pop {
		pops, err = experiments.POPReports(*exp, sc)
	} else {
		bundles, err = experiments.TraceBundles(*exp, sc)
	}
	if err != nil {
		return fail(err)
	}

	out := stdout
	if *oFlag != "" {
		f, err := os.Create(*oFlag)
		if err != nil {
			return fail(err)
		}
		bw := bufio.NewWriter(f)
		defer func() {
			err := bw.Flush()
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil && code == 0 {
				code = fail(err)
			}
		}()
		out = bw
	}

	if *pop {
		for _, b := range pops {
			fmt.Fprintf(out, "== %s ==\n%s\n", b.Label, b.Report)
		}
		return 0
	}
	if *chrome {
		recs := make([]*obs.Recorder, len(bundles))
		labels := make([]string, len(bundles))
		for i, b := range bundles {
			recs[i], labels[i] = b.Obs, b.Label
		}
		if err := obs.WriteChrome(out, recs, labels); err != nil {
			return fail(err)
		}
		return 0
	}
	for _, b := range bundles {
		fmt.Fprintf(out, "== %s ==\n", b.Label)
		switch {
		case *csv:
			fmt.Fprint(out, b.Obs.CSV())
		case *prv:
			fmt.Fprint(out, b.Obs.Paraver())
		default:
			fmt.Fprint(out, b.Obs.Render(*width, 0))
		}
		fmt.Fprintln(out)
	}
	return 0
}
