package bench

import (
	"strings"
	"testing"
)

// smallConfig keeps the experiment tests fast; the full sizes run under
// `go test -bench` and cmd/sketchbench.
func smallConfig() Config {
	return Config{Seed: 1, N: 512, D: 24, S: 8, K: 3, Eps: 0.2}
}

func TestTable1SmokeAndInvariants(t *testing.T) {
	rows, err := Table1(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("expected 6 rows, got %d", len(rows))
	}
	for _, r := range rows {
		if strings.HasPrefix(r.Experiment, "T1.5") {
			continue // lower-bound row has no measurement
		}
		if !r.OK {
			t.Errorf("%s (%s): guarantee violated: err %v > budget %v", r.Experiment, r.Algorithm, r.CovErr, r.Budget)
		}
		if r.Words <= 0 {
			t.Errorf("%s: no words measured", r.Algorithm)
		}
	}
	// Orderings the paper promises at these parameters: SVS below FD-merge,
	// adaptive below FD-merge-(ε,k).
	byExp := map[string]Row{}
	for _, r := range rows {
		byExp[r.Experiment+r.Algorithm] = r
	}
	if svs, det := byExp["T1.3SVS quadratic (new)"], byExp["T1.1FD-merge [27,16]"]; svs.Words >= det.Words {
		t.Errorf("SVS words %v not below FD-merge %v", svs.Words, det.Words)
	}
	out := FormatRows(rows)
	if !strings.Contains(out, "FD-merge") || !strings.Contains(out, "words") {
		t.Fatal("FormatRows missing content")
	}
}

func TestTable2SmokeAndInvariants(t *testing.T) {
	rows, err := Table2(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("expected 4 rows, got %d", len(rows))
	}
	for _, r := range rows {
		if !r.OK {
			t.Errorf("%s (%s): PCA ratio %v above budget", r.Experiment, r.Algorithm, r.CovErr)
		}
		if r.CovErr < 1-1e-9 {
			t.Errorf("%s: ratio %v below 1", r.Algorithm, r.CovErr)
		}
	}
}

func TestHeadlineD25Shape(t *testing.T) {
	series, err := HeadlineD25([]int{16, 32, 64}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 4 {
		t.Fatalf("series count %d", len(series))
	}
	// SVS curve must grow strictly slower than FD-merge: the ratio
	// fd/svs should increase with d.
	fdS, svsS := series[0], series[1]
	r0 := fdS.Y[0] / svsS.Y[0]
	r2 := fdS.Y[2] / svsS.Y[2]
	if r2 <= r0 {
		t.Fatalf("FD/SVS ratio not growing: %v -> %v", r0, r2)
	}
}

func TestCommVsServersShape(t *testing.T) {
	series, err := CommVsServers([]int{4, 16, 64}, 16, 0.15, 1)
	if err != nil {
		t.Fatal(err)
	}
	det, svs := series[0], series[1]
	// Deterministic grows ~linearly in s: 16× s should give ≫ 4× words.
	if det.Y[2] < 8*det.Y[0] {
		t.Fatalf("FD-merge growth too slow: %v", det.Y)
	}
	// Randomized grows ~√s: 16× s should give ≲ 8× words.
	if svs.Y[2] > 10*svs.Y[0] {
		t.Fatalf("SVS growth too fast: %v", svs.Y)
	}
	// Crossover: at s=64 SVS is cheaper.
	if svs.Y[2] >= det.Y[2] {
		t.Fatalf("no crossover at s=64: svs %v vs det %v", svs.Y[2], det.Y[2])
	}
}

func TestCommVsEpsilonShape(t *testing.T) {
	series, err := CommVsEpsilon([]float64{0.4, 0.2, 0.1}, 6, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	det, _, samp := series[0], series[1], series[2]
	// Sampling grows quadratically in 1/ε: from 1/ε=2.5 to 10 (4×) the
	// words should grow ≳ 8×; FD grows ≈ 4×.
	if samp.Y[2] < 6*samp.Y[0] {
		t.Fatalf("sampling growth too slow: %v", samp.Y)
	}
	if det.Y[2] > 8*det.Y[0] {
		t.Fatalf("FD-merge growth too fast: %v", det.Y)
	}
}

func TestErrorFrontier(t *testing.T) {
	series, err := ErrorFrontier([]float64{0.3, 0.15}, 6, 16, 0.8, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range series {
		if len(s.X) != 2 {
			t.Fatalf("%s: %d points", s.Name, len(s.X))
		}
		for _, e := range s.Y {
			if e < 0 || e > 1.5 {
				t.Fatalf("%s: relative error %v out of range", s.Name, e)
			}
		}
	}
}

func TestSamplingFunctionAblationShape(t *testing.T) {
	series, err := SamplingFunctionAblation([]int{16, 64}, 9, 0.15, 1)
	if err != nil {
		t.Fatal(err)
	}
	lin, quad := series[0], series[1]
	// The quadratic function must never ship more than the linear one
	// (log d vs √log d), and both errors must stay within a few ε.
	for i := range lin.Y {
		if quad.Y[i] > lin.Y[i]*1.05 {
			t.Fatalf("d=%v: quadratic %v above linear %v", lin.X[i], quad.Y[i], lin.Y[i])
		}
	}
	for _, e := range append(series[2].Y, series[3].Y...) {
		if e > 4*0.15 {
			t.Fatalf("ablation error %v too large", e)
		}
	}
}

func TestBitComplexityRows(t *testing.T) {
	rows, err := BitComplexity(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if !r.OK {
			t.Errorf("%s: guarantee violated (err %v, budget %v)", r.Algorithm, r.CovErr, r.Budget)
		}
	}
	plain, f32, quant, exact := rows[0], rows[1], rows[2], rows[3]
	// The float32 wire halves the words exactly and says what it charged.
	if f32.Words != plain.Words/2 {
		t.Fatalf("float32 words %v, want exactly half of %v", f32.Words, plain.Words)
	}
	if f32.Budget <= plain.Budget || !strings.Contains(f32.Note, "certificate charge") {
		t.Errorf("float32 budget %v over %v, note %q: the explicit charge is missing", f32.Budget, plain.Budget, f32.Note)
	}
	// Quantized must be cheaper than plain in words.
	if quant.Words >= plain.Words {
		t.Fatalf("quantized %v not below plain %v", quant.Words, plain.Words)
	}
	// Case-1 protocol: exact answer (error ≈ 0, far below the ε budget)
	// within its O(s·(2kd + 4k²)) word budget.
	cfg := smallConfig()
	exactBudget := float64(cfg.S * (2*cfg.K*cfg.D + 4*cfg.K*cfg.K))
	if exact.Words > exactBudget {
		t.Fatalf("case-1 exact %v above its word budget %v", exact.Words, exactBudget)
	}
	if exact.CovErr > 1e-6*exact.Budget {
		t.Fatalf("case-1 exact error %v not ≈ 0", exact.CovErr)
	}
}

func TestPCAQualityCurve(t *testing.T) {
	cfg := smallConfig()
	series, err := PCAQuality([]int{2, 4}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range series {
		for i, q := range s.Y {
			if q < 1-1e-9 || q > 2.5 {
				t.Fatalf("%s k=%v: ratio %v out of range", s.Name, s.X[i], q)
			}
		}
	}
}

func TestLowerBoundSeparationCurve(t *testing.T) {
	series, err := LowerBoundSeparation([]int{8, 16}, 1)
	if err != nil {
		t.Fatal(err)
	}
	prob, gap := series[0], series[1]
	for _, p := range prob.Y {
		if p < 0.5 {
			t.Fatalf("Lemma3 probability %v too low", p)
		}
	}
	if gap.Y[1] <= gap.Y[0] {
		t.Fatalf("Lemma2 gap not growing with d: %v", gap.Y)
	}
}

func TestStreamingSpaceRows(t *testing.T) {
	rows, err := StreamingSpace(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatal("rows")
	}
	// Streaming space ≪ batch space at default sizes.
	if rows[0].Words >= rows[2].Words {
		t.Fatalf("FD space %v not below batch %v", rows[0].Words, rows[2].Words)
	}
}

func TestMergeabilityCurve(t *testing.T) {
	cfg := smallConfig()
	series, err := Mergeability(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	merged, _, budget := series[0], series[1], series[2]
	for i := range merged.Y {
		if merged.Y[i] > budget.Y[i] {
			t.Fatalf("trial %d: merged error %v above budget %v", i, merged.Y[i], budget.Y[i])
		}
	}
}

func TestFormatSeries(t *testing.T) {
	out := FormatSeries("x", []Series{
		{Name: "a", X: []float64{1, 2}, Y: []float64{3, 4}},
		{Name: "b", X: []float64{1, 2}, Y: []float64{5}},
	})
	if !strings.Contains(out, "a") || !strings.Contains(out, "-") {
		t.Fatalf("FormatSeries output:\n%s", out)
	}
	if FormatSeries("x", nil) == "" {
		t.Fatal("empty series header missing")
	}
}

func TestMonitoringComparison(t *testing.T) {
	cfg := smallConfig()
	rows, err := MonitoringComparison(cfg, 120)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows[:3] {
		if !r.OK {
			t.Errorf("%s: tracking error %v above budget %v", r.Algorithm, r.CovErr, r.Budget)
		}
		if r.Words <= 0 {
			t.Errorf("%s: no words", r.Algorithm)
		}
	}
	// Delta policies beat the naive envelope.
	naive := rows[3].Words
	if rows[1].Words >= naive || rows[2].Words >= naive {
		t.Fatalf("delta policies (%v, %v) not below naive %v", rows[1].Words, rows[2].Words, naive)
	}
}
