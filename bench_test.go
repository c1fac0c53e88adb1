package repro

// BenchmarkExperiments runs bench.Experiments, the one table of paper
// experiments, entry by entry: `go test -bench=Experiments/table1` runs one,
// `go test -bench=.` the whole evaluation. Each sub-benchmark runs its
// experiment end to end — workload generation, protocol execution with word
// accounting, guarantee checks — fails on a violated guarantee and reports
// the measured words of every row. How fast any of it is belongs to
// benchmark/; what it prints is pinned by the goldens (internal/bench's
// TestGoldenSmall and results_default.txt).

import (
	"strings"
	"testing"

	"repro/internal/bench"
)

func BenchmarkExperiments(b *testing.B) {
	cfg := bench.Config{Seed: 1, N: 1 << 12, D: 48, S: 16, K: 4, Eps: 0.1}
	for _, e := range bench.Experiments {
		b.Run(e.Name, func(b *testing.B) {
			var rows []bench.Row
			for i := 0; i < b.N; i++ {
				var err error
				if rows, _, err = e.Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
			for _, r := range rows {
				if !r.OK {
					b.Errorf("%s (%s): guarantee violated: err %v > budget %v", r.Experiment, r.Algorithm, r.CovErr, r.Budget)
				}
				if r.Words > 0 {
					b.ReportMetric(r.Words, "words:"+metricName(r.Algorithm))
				}
			}
		})
	}
}

// metricName makes an algorithm name a legal benchmark metric unit: ASCII,
// no blanks.
func metricName(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r == ' ':
			return '_'
		case r < 128:
			return r
		}
		return -1
	}, s)
}
