// Command sketchbench regenerates the paper's evaluation artifacts: Table 1
// (covariance-sketch communication costs), Table 2 (distributed PCA), and
// the figure-style sweeps and ablations described in DESIGN.md. It is flags
// and observability over bench.Experiments, the one table of experiments.
//
// Usage:
//
//	sketchbench -experiment all
//	sketchbench -experiment table1 -s 32 -d 128 -k 5 -eps 0.05
//	sketchbench -experiment f2 -seed 7 -format csv
//
// -experiment takes all or one name from bench.Experiments (-h lists them).
//
// Output is aligned text; "theory" columns are the paper's formulas with
// unit constants, "words" are measured at the transport layer. Nothing
// printed is read from a clock: the output is a function of the flags, and
// results_default.txt is this command's output at the default flags.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/distsketch"
	"repro/internal/bench"
)

func main() {
	def := bench.DefaultConfig()
	var (
		experiment = flag.String("experiment", "all", "which experiment to run: all, "+bench.Names())
		seed       = flag.Int64("seed", def.Seed, "random seed")
		n          = flag.Int("n", def.N, "global row count")
		d          = flag.Int("d", def.D, "column dimension")
		s          = flag.Int("s", def.S, "number of servers")
		k          = flag.Int("k", def.K, "rank parameter")
		eps        = flag.Float64("eps", def.Eps, "accuracy epsilon")
		format     = flag.String("format", "text", "output format: text or csv")
		trace      = flag.String("trace", "", "write a JSONL protocol trace of every run to this file")
		metrics    = flag.String("metrics", "", "write a metrics registry snapshot (JSON) on exit, - for stdout")
	)
	flag.Parse()
	if *format != "text" && *format != "csv" {
		fmt.Fprintf(os.Stderr, "sketchbench: unknown format %q\n", *format)
		os.Exit(1)
	}
	// Every protocol run the experiments launch reports into the
	// process-wide observer, so installing it is all the plumbing there is.
	finish := func() error { return nil }
	if *trace != "" || *metrics != "" {
		var err error
		if finish, err = distsketch.InstallObserver(*trace, *metrics); err != nil {
			fmt.Fprintln(os.Stderr, "sketchbench:", err)
			os.Exit(1)
		}
	}
	cfg := bench.Config{Seed: *seed, N: *n, D: *d, S: *s, K: *k, Eps: *eps}
	err := bench.Write(os.Stdout, strings.ToLower(*experiment), cfg, *format == "csv")
	if ferr := finish(); err == nil {
		err = ferr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sketchbench:", err)
		os.Exit(1)
	}
}
