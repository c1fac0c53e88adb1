package repro

// One benchmark per paper artifact (tables 1–2 and the F1–F10 sweeps of
// DESIGN.md). Each benchmark runs its experiment end to end — workload
// generation, protocol execution with word accounting, guarantee checks —
// and reports the headline measurement as custom benchmark metrics
// (words/op, error ratios) so `go test -bench=.` regenerates the paper's
// evaluation. cmd/sketchbench prints the same experiments as full tables.

import (
	"strings"
	"testing"

	"repro/internal/bench"
)

func benchConfig() bench.Config {
	return bench.Config{Seed: 1, N: 1 << 12, D: 48, S: 16, K: 4, Eps: 0.1}
}

func reportRows(b *testing.B, rows []bench.Row) {
	b.Helper()
	for _, r := range rows {
		if r.Words > 0 {
			b.ReportMetric(r.Words, "words:"+sanitize(r.Algorithm))
		}
		if !r.OK && !strings.Contains(r.Algorithm, "LB") {
			b.Errorf("%s (%s): guarantee violated: err %v > budget %v",
				r.Experiment, r.Algorithm, r.CovErr, r.Budget)
		}
	}
}

func sanitize(s string) string {
	s = strings.ReplaceAll(s, " ", "_")
	return strings.Map(func(r rune) rune {
		if r < 128 {
			return r
		}
		return -1
	}, s)
}

// BenchmarkTable1FD is T1.1: the deterministic FD-merge row of Table 1.
func BenchmarkTable1FD(b *testing.B) { benchTable1Filter(b, "FD-merge") }

// BenchmarkTable1Sampling is T1.2: the row-sampling baseline row.
func BenchmarkTable1Sampling(b *testing.B) { benchTable1Filter(b, "row-sampling") }

// BenchmarkTable1SVS is T1.3: the new randomized (ε,0) row.
func BenchmarkTable1SVS(b *testing.B) { benchTable1Filter(b, "SVS") }

// BenchmarkTable1Adaptive is T1.4: the new randomized (ε,k) row.
func BenchmarkTable1Adaptive(b *testing.B) { benchTable1Filter(b, "adaptive") }

// BenchmarkTable1LowerBound is T1.5: the deterministic lower-bound row.
func BenchmarkTable1LowerBound(b *testing.B) { benchTable1Filter(b, "LB") }

func benchTable1Filter(b *testing.B, substr string) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, err := bench.Table1(cfg)
		if err != nil {
			b.Fatal(err)
		}
		var kept []bench.Row
		for _, r := range rows {
			if strings.Contains(r.Algorithm, substr) {
				kept = append(kept, r)
			}
		}
		if len(kept) == 0 {
			b.Fatalf("no Table 1 row matches %q", substr)
		}
		if i == b.N-1 {
			reportRows(b, kept)
		}
	}
}

// BenchmarkTable2BWZ is T2.1: the batch PCA baseline (stand-in for [5]).
func BenchmarkTable2BWZ(b *testing.B) { benchTable2Filter(b, "BWZ") }

// BenchmarkTable2New is T2.2: the Theorem 9 algorithms.
func BenchmarkTable2New(b *testing.B) { benchTable2Filter(b, "Thm9") }

func benchTable2Filter(b *testing.B, substr string) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, err := bench.Table2(cfg)
		if err != nil {
			b.Fatal(err)
		}
		var kept []bench.Row
		for _, r := range rows {
			if strings.Contains(r.Algorithm, substr) {
				kept = append(kept, r)
			}
		}
		if len(kept) == 0 {
			b.Fatalf("no Table 2 row matches %q", substr)
		}
		if i == b.N-1 {
			reportRows(b, kept)
			for _, r := range kept {
				b.ReportMetric(r.CovErr, "ratio:"+sanitize(r.Algorithm))
			}
		}
	}
}

// BenchmarkHeadlineD25 is F1: the §1.4 headline d^2.5 vs d³ separation.
func BenchmarkHeadlineD25(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := bench.HeadlineD25([]int{16, 32, 48}, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			last := len(series[0].Y) - 1
			b.ReportMetric(series[0].Y[last], "words-fd@d48")
			b.ReportMetric(series[1].Y[last], "words-svs@d48")
			b.ReportMetric(series[0].Y[last]/series[1].Y[last], "fd/svs-gain")
		}
	}
}

// BenchmarkCommVsServers is F2: crossover of deterministic vs randomized.
func BenchmarkCommVsServers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := bench.CommVsServers([]int{4, 16, 64}, 32, 0.1, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			last := len(series[0].Y) - 1
			b.ReportMetric(series[0].Y[last], "words-fd@s64")
			b.ReportMetric(series[1].Y[last], "words-svs@s64")
		}
	}
}

// BenchmarkCommVsEpsilon is F3: the 1/ε vs 1/ε² scaling.
func BenchmarkCommVsEpsilon(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := bench.CommVsEpsilon([]float64{0.4, 0.2, 0.1}, 8, 32, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			last := len(series[2].Y) - 1
			b.ReportMetric(series[2].Y[last]/series[2].Y[0], "sampling-growth")
			b.ReportMetric(series[0].Y[last]/series[0].Y[0], "fd-growth")
		}
	}
}

// BenchmarkErrorFrontier is F4: the error-vs-words frontier.
func BenchmarkErrorFrontier(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := bench.ErrorFrontier([]float64{0.3, 0.15, 0.08}, 8, 32, 0.8, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(series[1].Y[len(series[1].Y)-1], "svs-relerr")
		}
	}
}

// BenchmarkSamplingFunctionAblation is F5: Theorem 5 vs Theorem 6.
func BenchmarkSamplingFunctionAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := bench.SamplingFunctionAblation([]int{32, 128}, 9, 0.1, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			last := len(series[0].Y) - 1
			b.ReportMetric(series[0].Y[last]/series[1].Y[last], "linear/quadratic-words")
		}
	}
}

// BenchmarkBitComplexity is F6: §3.3 quantization and case-1 protocols.
func BenchmarkBitComplexity(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, err := bench.BitComplexity(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportRows(b, rows)
		}
	}
}

// BenchmarkPCAQuality is F7: Lemma 1 / Lemma 8 PCA quality across k.
func BenchmarkPCAQuality(b *testing.B) {
	cfg := benchConfig()
	cfg.N = 2048
	for i := 0; i < b.N; i++ {
		series, err := bench.PCAQuality([]int{2, 4, 8}, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, s := range series {
				b.ReportMetric(s.Y[len(s.Y)-1], "ratio:"+sanitize(s.Name))
			}
		}
	}
}

// BenchmarkLowerBoundSeparation is F8: Lemma 3 probability and Lemma 2 gap.
func BenchmarkLowerBoundSeparation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := bench.LowerBoundSeparation([]int{8, 16}, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(series[0].Y[len(series[0].Y)-1], "lemma3-prob")
			b.ReportMetric(series[1].Y[len(series[1].Y)-1], "lemma2-gap")
		}
	}
}

// BenchmarkStreamingSpace is F9: working space of streaming servers.
func BenchmarkStreamingSpace(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, err := bench.StreamingSpace(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(rows[0].Words, "fd-space-words")
			b.ReportMetric(rows[2].Words, "batch-space-words")
		}
	}
}

// BenchmarkAblationBernoulliVsIID is A1 (DESIGN.md ablation list).
func BenchmarkAblationBernoulliVsIID(b *testing.B) {
	cfg := benchConfig()
	cfg.N = 2048
	for i := 0; i < b.N; i++ {
		rows, err := bench.BernoulliVsIID(cfg, 3)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, r := range rows {
				b.ReportMetric(r.CovErr, "relerr:"+sanitize(r.Algorithm))
			}
		}
	}
}

// BenchmarkAblationFinalCompress is A2.
func BenchmarkAblationFinalCompress(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, err := bench.FinalCompressAblation(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportRows(b, rows)
		}
	}
}

// BenchmarkAblationBufferFactor is A3.
func BenchmarkAblationBufferFactor(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, err := bench.BufferFactorAblation(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportRows(b, rows)
		}
	}
}

// BenchmarkMonitoring is M1: continuous tracking in the [17] model,
// including the SVS-delta policy answering the paper's §1.5 open question
// empirically.
func BenchmarkMonitoring(b *testing.B) {
	cfg := benchConfig()
	cfg.D = 24
	for i := 0; i < b.N; i++ {
		rows, err := bench.MonitoringComparison(cfg, 128)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportRows(b, rows)
		}
	}
}

// BenchmarkMergeability is F10: merged vs direct FD error.
func BenchmarkMergeability(b *testing.B) {
	cfg := benchConfig()
	cfg.N = 2048
	for i := 0; i < b.N; i++ {
		series, err := bench.Mergeability(cfg, 3)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(series[0].Y[0], "merged-err")
			b.ReportMetric(series[2].Y[0], "budget")
		}
	}
}

// BenchmarkKernels is K1: the blocked Gram/TMul kernels against the serial
// reference loops, and the float64-vs-float32 wire comparison, at the
// headline shape. Reports each leg's per-call milliseconds so the ≥2×
// kernel speedup and the exactly-halved float32 words are visible straight
// from `go test -bench=Kernels`.
func BenchmarkKernels(b *testing.B) {
	cfg := bench.DefaultConfig()
	for i := 0; i < b.N; i++ {
		rows, err := bench.KernelBench(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, r := range rows {
				if r.ElapsedMS > 0 {
					b.ReportMetric(r.ElapsedMS, "ms:"+sanitize(r.Algorithm))
				}
			}
			reportRows(b, rows)
		}
	}
}
