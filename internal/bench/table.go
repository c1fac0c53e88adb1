package bench

import (
	"fmt"
	"io"
	"strings"
)

// An Experiment is one entry of the evaluation: it produces either a table
// of rows or a set of series over XLabel.
type Experiment struct {
	Name, Title string
	XLabel      string
	rows        func(Config) ([]Row, error)
	series      func(Config) ([]Series, error)
}

// Experiments is the one list of what the harness can run, sweep grids
// included: sketchbench's help text, "all" and unknown-name error, the
// golden outputs and BenchmarkExperiments all read it.
var Experiments = []Experiment{
	{Name: "table1", Title: "Table 1: covariance sketch communication (words) and guarantees", rows: Table1},
	{Name: "table2", Title: "Table 2: distributed PCA communication (words) and quality ratio", rows: Table2},
	{Name: "f1", Title: "F1: headline s=d, error ‖A‖F²/d — words vs d (new is d^2.5·√log d)", XLabel: "d",
		series: func(c Config) ([]Series, error) { return HeadlineD25([]int{16, 24, 32, 48, 64}, c.Seed) }},
	{Name: "f2", Title: "F2: words vs s (deterministic linear vs randomized √s)", XLabel: "s",
		series: func(c Config) ([]Series, error) {
			return CommVsServers([]int{2, 4, 8, 16, 32, 64, 128}, c.D, c.Eps, c.Seed)
		}},
	{Name: "f3", Title: "F3: words vs 1/ε (sampling's quadratic blowup)", XLabel: "1/eps",
		series: func(c Config) ([]Series, error) {
			return CommVsEpsilon([]float64{0.4, 0.3, 0.2, 0.1, 0.05}, c.S, c.D, c.Seed)
		}},
	{Name: "f4", Title: "F4: error vs communication frontier (relative coverr)", XLabel: "words",
		series: func(c Config) ([]Series, error) {
			return ErrorFrontier([]float64{0.4, 0.3, 0.2, 0.1, 0.05}, c.S, c.D, 0.8, c.Seed)
		}},
	{Name: "f5", Title: "F5: Thm5 linear vs Thm6 quadratic sampling function (words & rel. error)", XLabel: "d",
		series: func(c Config) ([]Series, error) {
			return SamplingFunctionAblation([]int{16, 32, 64, 128, 256}, c.S, c.Eps, c.Seed)
		}},
	{Name: "f6", Title: "F6: §3.3 bit complexity — wire precision, quantization and the rank≤2k exact protocol", rows: BitComplexity},
	{Name: "f7", Title: "F7: PCA quality ratio vs k (Lemma 1 / Lemma 8)", XLabel: "k",
		series: func(c Config) ([]Series, error) { return PCAQuality([]int{2, 3, 5, 8, 12}, c) }},
	{Name: "f8", Title: "F8: lower-bound machinery — Lemma 3 probability, Lemma 2 gap vs d", XLabel: "d",
		series: func(c Config) ([]Series, error) { return LowerBoundSeparation([]int{8, 12, 16, 24, 32}, c.Seed) }},
	{Name: "f9", Title: "F9: per-server working space (words)", rows: StreamingSpace},
	{Name: "f10", Title: "F10: mergeability — merged vs direct FD error across random partitions", XLabel: "trial",
		series: func(c Config) ([]Series, error) { return Mergeability(c, 8) }},
	{Name: "a1", Title: "A1: Bernoulli vs i.i.d. sampling inside SVS (max rel. error)",
		rows: func(c Config) ([]Row, error) { return BernoulliVsIID(c, 5) }},
	{Name: "a2", Title: "A2: final FD re-compression of Q (size vs extra error)", rows: FinalCompressAblation},
	{Name: "a3", Title: "A3: FD buffer factor (shrinks at identical guarantee)", rows: BufferFactorAblation},
	{Name: "a5", Title: "A5: sparse-input FD ([15] regime) — update path",
		rows: func(c Config) ([]Row, error) {
			var rows []Row
			for _, density := range []float64{0.05, 0.2} {
				r, err := SparseInputAblation(c, density)
				if err != nil {
					return nil, err
				}
				rows = append(rows, r...)
			}
			return rows, nil
		}},
	{Name: "m1", Title: "M1: continuous tracking ([17] model) — policies incl. the §1.5 SVS question",
		rows: func(c Config) ([]Row, error) { return MonitoringComparison(c, 256) }},
	{Name: "t1", Title: "T1: tree aggregation — words, root fan-in, and bit-identity vs fan-out", rows: FanoutSweep},
	{Name: "s1", Title: "S1: shrink-strategy frontier — covariance error, certificate and shrinks per strategy", rows: ShrinkFrontier},
	// A failed C1 headline claim (coordinated sampling beats SVS on [A|B] at
	// some density) comes back together with the rows, so the table is still
	// printed next to the error.
	{Name: "c1", Title: "C1: product estimand — coord-product vs SVS [A|B], words vs relative error",
		rows: func(c Config) ([]Row, error) {
			rows, err := ProductFrontier(c)
			if err != nil {
				return nil, err
			}
			_, err = CheckProductHeadline(rows)
			return rows, err
		}},
}

// Names lists the experiment names, comma-separated.
func Names() string {
	names := make([]string, len(Experiments))
	for i, e := range Experiments {
		names[i] = e.Name
	}
	return strings.Join(names, ", ")
}

// Run checks cfg and runs the experiment; a row experiment returns rows, a
// series experiment series.
func (e Experiment) Run(cfg Config) ([]Row, []Series, error) {
	if err := cfg.validate(); err != nil {
		return nil, nil, err
	}
	if e.rows != nil {
		rows, err := e.rows(cfg)
		return rows, nil, err
	}
	series, err := e.series(cfg)
	return nil, series, err
}

// Write runs the named experiment — "all" for every entry of Experiments —
// under cfg and writes each one's titled table to w, as aligned text or as
// CSV. Its output is a pure function of (name, cfg, csv): nothing in the
// harness reads a clock.
func Write(w io.Writer, name string, cfg Config, csv bool) error {
	selected := Experiments
	if name != "all" {
		selected = nil
		for _, e := range Experiments {
			if e.Name == name {
				selected = []Experiment{e}
			}
		}
		if selected == nil {
			return fmt.Errorf("unknown experiment %q (want all or one of %s)", name, Names())
		}
	}
	for _, e := range selected {
		rows, series, err := e.Run(cfg)
		if err == nil || rows != nil {
			title := "\n=== " + e.Title + " ===\n"
			if csv {
				title = "# " + e.Title + "\n"
			}
			if _, werr := io.WriteString(w, title+e.render(rows, series, csv)); werr != nil {
				return werr
			}
		}
		if err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
	}
	return nil
}

func (e Experiment) render(rows []Row, series []Series, csv bool) string {
	switch {
	case e.rows != nil && csv:
		return RowsCSV(rows)
	case e.rows != nil:
		return FormatRows(rows)
	case csv:
		return SeriesCSV(e.XLabel, series)
	}
	return FormatSeries(e.XLabel, series)
}
