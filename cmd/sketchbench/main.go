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
	finish, err := setupObservability(*trace, *metrics)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sketchbench:", err)
		os.Exit(1)
	}
	cfg := bench.Config{Seed: *seed, N: *n, D: *d, S: *s, K: *k, Eps: *eps}
	err = bench.Write(os.Stdout, strings.ToLower(*experiment), cfg, *format == "csv")
	if ferr := finish(); err == nil {
		err = ferr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sketchbench:", err)
		os.Exit(1)
	}
}

// setupObservability installs a process-wide observer when -trace or
// -metrics is given; every protocol run the experiments launch reports into
// it through the default-observer fallback. The returned finish flushes the
// trace and writes the metrics snapshot.
func setupObservability(trace, metrics string) (finish func() error, err error) {
	if trace == "" && metrics == "" {
		return func() error { return nil }, nil
	}
	reg := distsketch.NewRegistry()
	var tr *distsketch.Tracer
	if trace != "" {
		tr, err = distsketch.NewTracerFile(trace)
		if err != nil {
			return nil, err
		}
	}
	distsketch.SetDefaultObserver(distsketch.NewObserver(reg, tr))
	return func() error {
		var first error
		if tr != nil {
			first = tr.Close()
		}
		if metrics != "" {
			out := os.Stdout
			if metrics != "-" {
				f, err := os.Create(metrics)
				if err != nil {
					if first == nil {
						first = err
					}
					return first
				}
				defer f.Close()
				out = f
			}
			if err := reg.WriteJSON(out); err != nil && first == nil {
				first = err
			}
		}
		return first
	}, nil
}
