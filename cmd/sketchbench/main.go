// Command sketchbench regenerates the paper's evaluation artifacts: Table 1
// (covariance-sketch communication costs), Table 2 (distributed PCA), and
// the figure-style sweeps F1–F10 described in DESIGN.md.
//
// Usage:
//
//	sketchbench -experiment all
//	sketchbench -experiment table1 -s 32 -d 128 -k 5 -eps 0.05
//	sketchbench -experiment f2 -seed 7
//	sketchbench -experiment s1 -baseline frontier.json
//
// -experiment takes all or one name from the experiments table below (-h
// lists them); -baseline records the selected row experiments as JSON
// instead of printing them.
//
// Output is aligned text; "theory" columns are the paper's formulas with
// unit constants, "words" are measured at the transport layer.
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
	var (
		experiment = flag.String("experiment", "all", "which experiment to run: all, "+experimentNames())
		seed       = flag.Int64("seed", 1, "random seed")
		n          = flag.Int("n", 1<<13, "global row count")
		d          = flag.Int("d", 64, "column dimension")
		s          = flag.Int("s", 16, "number of servers")
		k          = flag.Int("k", 5, "rank parameter")
		eps        = flag.Float64("eps", 0.1, "accuracy epsilon")
		format     = flag.String("format", "text", "output format: text or csv")
		par        = flag.Int("parallel", 0, "compute worker pool width (0 = GOMAXPROCS)")
		baseline   = flag.String("baseline", "", "instead of printing, write the selected row experiments (timing, rows, exact communication) as a JSON baseline to this file")
		shrink     = flag.String("shrink", "", "FD shrink strategy for the FD-based experiments: fd, fast-fd (default), alpha-fd; isvd and compensative are single-node only and rejected by fd-merge")
		alpha      = flag.Float64("alpha", 0.5, "alpha parameter for -shrink alpha-fd, in (0,1]")
		trace      = flag.String("trace", "", "write a JSONL protocol trace of every run to this file")
		metrics    = flag.String("metrics", "", "write a metrics registry snapshot (JSON) on exit, - for stdout")
	)
	flag.Parse()
	csvOut = *format == "csv"
	if *format != "text" && *format != "csv" {
		fmt.Fprintf(os.Stderr, "sketchbench: unknown format %q\n", *format)
		os.Exit(1)
	}
	finish, err := setupObservability(*trace, *metrics)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sketchbench:", err)
		os.Exit(1)
	}
	cfg := bench.Config{Seed: *seed, N: *n, D: *d, S: *s, K: *k, Eps: *eps, Parallel: *par, Shrink: *shrink, Alpha: *alpha}
	err = run(strings.ToLower(*experiment), *baseline, cfg)
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

// An experiment produces either a table of rows or series over xlabel.
type experiment struct {
	name, title string
	rows        func(bench.Config) ([]bench.Row, error)
	xlabel      string
	series      func(bench.Config) ([]bench.Series, error)
}

// experiments is the one table of what sketchbench can run: -experiment's
// help text, "all", the unknown-name error and -baseline all read it.
var experiments = []experiment{
	{name: "table1", title: "Table 1: covariance sketch communication (words) and guarantees", rows: bench.Table1},
	{name: "table2", title: "Table 2: distributed PCA communication (words) and quality ratio", rows: bench.Table2},
	{name: "f1", title: "F1: headline s=d, error ‖A‖F²/d — words vs d (new is d^2.5·√log d)", xlabel: "d",
		series: func(c bench.Config) ([]bench.Series, error) {
			return bench.HeadlineD25([]int{16, 24, 32, 48, 64}, c.Seed)
		}},
	{name: "f2", title: "F2: words vs s (deterministic linear vs randomized √s)", xlabel: "s",
		series: func(c bench.Config) ([]bench.Series, error) {
			return bench.CommVsServers([]int{2, 4, 8, 16, 32, 64, 128}, c.D, c.Eps, c.Seed)
		}},
	{name: "f3", title: "F3: words vs 1/ε (sampling's quadratic blowup)", xlabel: "1/eps",
		series: func(c bench.Config) ([]bench.Series, error) {
			return bench.CommVsEpsilon([]float64{0.4, 0.3, 0.2, 0.1, 0.05}, c.S, c.D, c.Seed)
		}},
	{name: "f4", title: "F4: error vs communication frontier (relative coverr)", xlabel: "words",
		series: func(c bench.Config) ([]bench.Series, error) {
			return bench.ErrorFrontier([]float64{0.4, 0.3, 0.2, 0.1, 0.05}, c.S, c.D, 0.8, c.Seed)
		}},
	{name: "f5", title: "F5: Thm5 linear vs Thm6 quadratic sampling function (words & rel. error)", xlabel: "d",
		series: func(c bench.Config) ([]bench.Series, error) {
			return bench.SamplingFunctionAblation([]int{16, 32, 64, 128, 256}, c.S, c.Eps, c.Seed)
		}},
	{name: "f6", title: "F6: §3.3 bit complexity — quantization and the rank≤2k exact protocol", rows: bench.BitComplexity},
	{name: "f7", title: "F7: PCA quality ratio vs k (Lemma 1 / Lemma 8)", xlabel: "k",
		series: func(c bench.Config) ([]bench.Series, error) { return bench.PCAQuality([]int{2, 3, 5, 8, 12}, c) }},
	{name: "f8", title: "F8: lower-bound machinery — Lemma 3 probability, Lemma 2 gap vs d", xlabel: "d",
		series: func(c bench.Config) ([]bench.Series, error) {
			return bench.LowerBoundSeparation([]int{8, 12, 16, 24, 32}, c.Seed)
		}},
	{name: "f9", title: "F9: per-server working space (words)", rows: bench.StreamingSpace},
	{name: "f10", title: "F10: mergeability — merged vs direct FD error across random partitions", xlabel: "trial",
		series: func(c bench.Config) ([]bench.Series, error) { return bench.Mergeability(c, 8) }},
	{name: "a1", title: "A1: Bernoulli vs i.i.d. sampling inside SVS (max rel. error)",
		rows: func(c bench.Config) ([]bench.Row, error) { return bench.BernoulliVsIID(c, 5) }},
	{name: "a2", title: "A2: final FD re-compression of Q (size vs extra error)", rows: bench.FinalCompressAblation},
	{name: "a3", title: "A3: FD buffer factor (runtime at identical guarantee)", rows: bench.BufferFactorAblation},
	{name: "a5", title: "A5: sparse-input FD ([15] regime) — update path", rows: sparseInput},
	{name: "p1", title: "P1: distributed power iteration — quality and words vs rounds", xlabel: "rounds",
		series: func(c bench.Config) ([]bench.Series, error) {
			return bench.PowerIterationCurve(c, []int{1, 2, 4, 8, 16})
		}},
	{name: "m1", title: "M1: continuous tracking ([17] model) — policies incl. the §1.5 SVS question",
		rows: func(c bench.Config) ([]bench.Row, error) { return bench.MonitoringComparison(c, 256) }},
	{name: "i1", title: "I1: ingestion throughput — in-memory vs file-backed vs sparse sources", rows: bench.IngestionThroughput},
	{name: "t1", title: "T1: tree aggregation — words, root fan-in, and bit-identity vs fan-out",
		rows: func(c bench.Config) ([]bench.Row, error) { return bench.FanoutSweep(c, sweepFanouts(c.S)) }},
	{name: "s1", title: "S1: shrink-strategy frontier — covariance error vs ingest throughput", rows: bench.ShrinkFrontier},
	{name: "k1", title: "K1: blocked kernels vs reference loops, and float64 vs float32 wire", rows: bench.KernelBench},
	{name: "c1", title: "C1: product estimand — coord-product vs SVS [A|B], words vs relative error", rows: productFrontier},
}

// experimentNames lists what -experiment accepts besides "all".
func experimentNames() string {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	return strings.Join(names, ", ")
}

// sparseInput is A5 at two densities.
func sparseInput(cfg bench.Config) ([]bench.Row, error) {
	var rows []bench.Row
	for _, density := range []float64{0.05, 0.2} {
		r, err := bench.SparseInputAblation(cfg, density)
		if err != nil {
			return nil, err
		}
		rows = append(rows, r...)
	}
	return rows, nil
}

// productFrontier is C1. A failed headline claim (coordinated sampling beats
// SVS on [A|B] at some density) comes back together with the rows: the table
// is still printed, and -baseline refuses to record it.
func productFrontier(cfg bench.Config) ([]bench.Row, error) {
	rows, err := bench.ProductFrontier(cfg)
	if err != nil {
		return nil, err
	}
	_, err = bench.CheckProductHeadline(rows)
	return rows, err
}

// sweepFanouts picks the fan-outs for the t1 sweep: powers of two up to s/2
// (bit-identical to the star by the canonical-merge grouping invariance),
// capped so the table stays readable at large s.
func sweepFanouts(s int) []int {
	var fs []int
	for f := 2; f <= s/2 && len(fs) < 6; f *= 2 {
		fs = append(fs, f)
	}
	if len(fs) == 0 {
		fs = []int{2}
	}
	return fs
}

// run prints the selected experiment ("all" for every one) — or, with a
// baseline path, records it as a bench.Baseline JSON file instead.
func run(name, baseline string, cfg bench.Config) error {
	selected := experiments
	if name != "all" {
		selected = nil
		for _, e := range experiments {
			if e.name == name {
				selected = []experiment{e}
			}
		}
		if selected == nil {
			return fmt.Errorf("unknown experiment %q (want all or one of %s)", name, experimentNames())
		}
	}
	if baseline != "" {
		return writeBaseline(baseline, selected, cfg)
	}
	for _, e := range selected {
		header(e.title)
		if e.rows != nil {
			rows, err := e.rows(cfg)
			printRows(rows)
			if err != nil {
				return fmt.Errorf("%s: %w", e.name, err)
			}
			continue
		}
		series, err := e.series(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		printSeries(e.xlabel, series)
	}
	return nil
}

// writeBaseline runs the row experiments among selected, each timed under
// its own observer, and writes them to path as one bench.Baseline. Series
// experiments have no place in that shape and are skipped with a note.
func writeBaseline(path string, selected []experiment, cfg bench.Config) error {
	var names []string
	var rows []experiment
	for _, e := range selected {
		if e.rows == nil {
			fmt.Fprintf(os.Stderr, "sketchbench: %s reports series, which a baseline does not record\n", e.name)
			continue
		}
		names, rows = append(names, e.name), append(rows, e)
	}
	if len(rows) == 0 {
		return fmt.Errorf("-baseline: no row experiment selected")
	}
	b, err := bench.CollectBaseline(cfg, names, func(i int) ([]bench.Row, error) { return rows[i].rows(cfg) })
	if err != nil {
		return err
	}
	out, err := b.JSON()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		return err
	}
	fmt.Printf("baseline written to %s (%d experiments, pool width %d)\n", path, len(b.Experiments), b.PoolWorkers)
	return nil
}

// csvOut switches row/series rendering to CSV.
var csvOut bool

func header(title string) {
	if csvOut {
		fmt.Printf("# %s\n", title)
		return
	}
	fmt.Printf("\n=== %s ===\n", title)
}

func printRows(rows []bench.Row) {
	if csvOut {
		fmt.Print(bench.RowsCSV(rows))
		return
	}
	fmt.Print(bench.FormatRows(rows))
}

func printSeries(xlabel string, series []bench.Series) {
	if csvOut {
		fmt.Print(bench.SeriesCSV(xlabel, series))
		return
	}
	fmt.Print(bench.FormatSeries(xlabel, series))
}
