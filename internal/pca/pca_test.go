package pca

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/fd"
	"repro/internal/linalg"
	"repro/internal/matrix"
	"repro/internal/workload"
)

func TestTopKRightSV(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := workload.PowerLawSpectrum(rng, 40, 12, 1.0, 10)
	v, err := TopKRightSV(a, 3)
	if err != nil {
		t.Fatal(err)
	}
	if v.Rows() != 12 || v.Cols() != 3 {
		t.Fatalf("dims %d×%d", v.Rows(), v.Cols())
	}
	if !linalg.IsOrthonormalColumns(v, 1e-9) {
		t.Fatal("V not orthonormal")
	}
	// Projection cost must equal the optimum for exact PCs.
	opt, err := linalg.TailEnergy(a, 3)
	if err != nil {
		t.Fatal(err)
	}
	if cost := ProjectionCost(a, v); math.Abs(cost-opt) > 1e-7*(1+opt) {
		t.Fatalf("cost %v != optimum %v", cost, opt)
	}
	// k clamping.
	vAll, err := TopKRightSV(a, 99)
	if err != nil {
		t.Fatal(err)
	}
	if vAll.Cols() != 12 {
		t.Fatalf("clamped cols = %d, want 12", vAll.Cols())
	}
}

func TestProjectionCostBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := workload.Gaussian(rng, 30, 8)
	v, err := TopKRightSV(a, 2)
	if err != nil {
		t.Fatal(err)
	}
	cost := ProjectionCost(a, v)
	if cost < 0 || cost > a.Frob2() {
		t.Fatalf("cost %v out of [0, ‖A‖F²]", cost)
	}
	// Empty projector: full cost.
	if c := ProjectionCost(a, matrix.New(8, 0)); c != a.Frob2() {
		t.Fatalf("empty projector cost %v", c)
	}
}

func TestQualityRatio(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := workload.PowerLawSpectrum(rng, 50, 10, 1.2, 8)
	v, err := TopKRightSV(a, 3)
	if err != nil {
		t.Fatal(err)
	}
	ratio, err := QualityRatio(a, v, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ratio < 1-1e-9 || ratio > 1+1e-6 {
		t.Fatalf("exact PCs ratio %v, want 1", ratio)
	}
	// Garbage directions have ratio > 1.
	w := matrix.New(10, 3)
	w.Set(9, 0, 1)
	w.Set(8, 1, 1)
	w.Set(7, 2, 1)
	bad, err := QualityRatio(a, w, 3)
	if err != nil {
		t.Fatal(err)
	}
	if bad <= 1 {
		t.Fatalf("bad PCs ratio %v, want > 1", bad)
	}
}

func TestQualityRatioZeroOptimum(t *testing.T) {
	// Exactly rank-2 matrix, k=2: optimum 0.
	rng := rand.New(rand.NewSource(4))
	a := workload.ExactRank(rng, 20, 6, 2, 3)
	v, err := TopKRightSV(a, 2)
	if err != nil {
		t.Fatal(err)
	}
	ratio, err := QualityRatio(a, v, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ratio != 1 {
		t.Fatalf("ratio %v, want 1 (both zero)", ratio)
	}
	// Wrong subspace on a zero-optimum instance: +Inf.
	w := matrix.New(6, 2)
	w.Set(5, 0, 1)
	w.Set(4, 1, 1)
	bad, err := QualityRatio(a, w, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(bad, 1) {
		t.Fatalf("ratio %v, want +Inf", bad)
	}
}

func TestSketchPCsLemma8(t *testing.T) {
	// Lemma 8 end-to-end: PCs of an (ε/2,k)-sketch give a (1+O(ε)) ratio.
	rng := rand.New(rand.NewSource(5))
	eps, k := 0.2, 3
	a := workload.ClusteredGaussians(rng, 400, 16, k, 20, 1.0)
	q, err := fd.SketchEpsK(a, eps/2, k)
	if err != nil {
		t.Fatal(err)
	}
	v, err := SketchPCs(q, k)
	if err != nil {
		t.Fatal(err)
	}
	ratio, err := QualityRatio(a, v, k)
	if err != nil {
		t.Fatal(err)
	}
	if ratio > 1+2*eps {
		t.Fatalf("sketch PCs ratio %v > 1+2ε", ratio)
	}
}

func TestCountSketchLinearity(t *testing.T) {
	// S·A computed blockwise must equal S·A computed on the whole matrix —
	// the property that makes the embedding communication-free to split.
	rng := rand.New(rand.NewSource(7))
	a := workload.Gaussian(rng, 50, 8)
	parts := workload.Split(a, 4, workload.Contiguous, nil)
	sk := NewCountSketch(99, 16)
	whole := sk.ApplyRows(a, 0)
	sum := matrix.New(16, 8)
	offset := 0
	for _, p := range parts {
		sum = sum.Add(sk.ApplyRows(p, offset))
		offset += p.Rows()
	}
	if !sum.EqualApprox(whole, 1e-10) {
		t.Fatal("CountSketch not linear across row blocks")
	}
}

func TestCountSketchDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := workload.Gaussian(rng, 20, 5)
	s1 := NewCountSketch(7, 10).ApplyRows(a, 3)
	s2 := NewCountSketch(7, 10).ApplyRows(a, 3)
	if !s1.Equal(s2) {
		t.Fatal("CountSketch must be deterministic in (seed, m)")
	}
	s3 := NewCountSketch(8, 10).ApplyRows(a, 3)
	if s1.Equal(s3) {
		t.Fatal("different seeds should give different sketches")
	}
}

func TestCountSketchNormPreservation(t *testing.T) {
	// E[‖S·x‖²] = ‖x‖² for CountSketch; check the average over seeds.
	rng := rand.New(rand.NewSource(9))
	a := workload.Gaussian(rng, 1, 6)
	trials := 300
	sum := 0.0
	for i := 0; i < trials; i++ {
		// Embed a single row placed at a random global index.
		y := NewCountSketch(int64(i), 8).ApplyRows(a, rng.Intn(1000))
		sum += y.Frob2()
	}
	avg := sum / float64(trials)
	if math.Abs(avg-a.Frob2()) > 1e-9 {
		// Each row maps to exactly one bucket with ±1: norm is preserved
		// exactly per row, so even the per-trial value is exact.
		t.Fatalf("E‖Sx‖² = %v, want %v", avg, a.Frob2())
	}
}

func TestCountSketchSubspaceEmbeddingQuality(t *testing.T) {
	// With m ≫ rank, top right singular vectors of S·A approximate those of
	// A: quality ratio close to 1 on a strongly low-rank matrix.
	rng := rand.New(rand.NewSource(10))
	a := workload.LowRankPlusNoise(rng, 600, 12, 3, 40, 0.8, 0.1)
	sk := NewCountSketch(11, 200)
	y := sk.ApplyRows(a, 0)
	v, err := TopKRightSV(y, 3)
	if err != nil {
		t.Fatal(err)
	}
	ratio, err := QualityRatio(a, v, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ratio > 1.5 {
		t.Fatalf("embedding PCs ratio %v", ratio)
	}
}

func TestCountSketchColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := workload.Gaussian(rng, 10, 20)
	sk := NewCountSketch(5, 6)
	out := sk.ApplyColumns(a)
	if out.Rows() != 10 || out.Cols() != 6 {
		t.Fatalf("dims %d×%d", out.Rows(), out.Cols())
	}
	// Row-wise norm preservation in expectation is inexact (collisions),
	// but linearity must hold: applying to A+B equals sum of applications.
	b := workload.Gaussian(rng, 10, 20)
	left := sk.ApplyColumns(a.Add(b))
	right := sk.ApplyColumns(a).Add(sk.ApplyColumns(b))
	if !left.EqualApprox(right, 1e-10) {
		t.Fatal("column sketch not linear")
	}
}

func TestConstructorPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewCountSketch(1, 0) },
		func() { TopKRightSV(matrix.New(2, 2), -1) },
		func() { ProjectionCost(matrix.New(2, 3), matrix.New(2, 1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}
