package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
	"repro/internal/matrix"
	"repro/internal/workload"
)

func TestSampleSize(t *testing.T) {
	if got := SampleSize(0.1); got != 100 {
		t.Fatalf("SampleSize(0.1) = %d", got)
	}
	if got := SampleSize(0.5); got != 4 {
		t.Fatalf("SampleSize(0.5) = %d", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SampleSize(0)
}

// rowsOf iterates over the rows of a.
func rowsOf(a *matrix.Dense) RowIter {
	i := 0
	return func() ([]float64, bool) {
		if i == a.Rows() {
			return nil, false
		}
		i++
		return a.Row(i - 1), true
	}
}

// sampleAll draws m rows from the whole of a through SampleStream, the way a
// single server holding all of A would: local mass = global mass, count = m.
func sampleAll(a *matrix.Dense, m int, rng *rand.Rand) *matrix.Dense {
	return SampleStream(rowsOf(a), a.Cols(), m, m, a.Frob2(), a.Frob2(), rng)
}

func TestSampleUnbiased(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := workload.LowRankPlusNoise(rng, 60, 8, 3, 10, 0.8, 0.3)
	trials, m := 500, 25
	sum := matrix.New(8, 8)
	for i := 0; i < trials; i++ {
		b := sampleAll(a, m, rng)
		if b.Rows() != m {
			t.Fatalf("rows = %d, want %d", b.Rows(), m)
		}
		sum = sum.Add(b.Gram())
	}
	avg := sum.Scale(1 / float64(trials))
	norm, err := linalg.SpectralNormSym(avg.Sub(a.Gram()))
	if err != nil {
		t.Fatal(err)
	}
	if norm > 0.15*a.Frob2() {
		t.Fatalf("sample biased by %v (‖A‖F²=%v)", norm, a.Frob2())
	}
}

func TestSampleErrorBound(t *testing.T) {
	// ‖AᵀA−BᵀB‖₂ ≤ ε‖A‖F² with constant probability at m = 1/ε².
	rng := rand.New(rand.NewSource(2))
	eps := 0.35
	m := SampleSize(eps)
	ok := 0
	const trials = 20
	for i := 0; i < trials; i++ {
		a := workload.Gaussian(rng, 100, 10)
		b := sampleAll(a, m, rng)
		ce, err := linalg.CovarianceError(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if ce <= 2*eps*a.Frob2() { // constant-probability guarantee: margin 2
			ok++
		}
	}
	if ok < trials*3/5 {
		t.Fatalf("only %d/%d trials within 2ε‖A‖F²", ok, trials)
	}
}

func TestSampleDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	if b := sampleAll(matrix.New(5, 4), 3, rng); b.Rows() != 0 {
		t.Fatal("zero matrix should yield empty sample")
	}
	if b := sampleAll(matrix.New(0, 4), 3, rng); b.Rows() != 0 {
		t.Fatal("empty matrix should yield empty sample")
	}
	a := workload.Gaussian(rng, 5, 4)
	if b := sampleAll(a, 0, rng); b.Rows() != 0 {
		t.Fatal("m=0 should yield empty sample")
	}
}

func TestSampleSkipsZeroRows(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := matrix.New(4, 3)
	a.SetRow(1, []float64{1, 2, 3}) // only nonzero row
	b := sampleAll(a, 10, rng)
	if b.Rows() != 10 {
		t.Fatalf("rows = %d", b.Rows())
	}
	// Every sampled row must be a rescaled copy of row 1: p=1 ⇒ w = 1/√10.
	w := 1 / math.Sqrt(10)
	for i := 0; i < 10; i++ {
		if math.Abs(b.At(i, 0)-w*1) > 1e-12 {
			t.Fatalf("sampled row %d wrong: %v", i, b.Row(i))
		}
	}
}

func TestSampleStreamEndsBeforeLastTarget(t *testing.T) {
	// The caller's localMass is larger than what the stream delivers (mass
	// rounding between the two passes, or a stream cut short), so the
	// cumulative walk ends below the largest targets. Those slots are clamped
	// to the last positive-norm row: every slot is filled, none with zeros.
	rng := rand.New(rand.NewSource(5))
	a := matrix.NewFromRows([][]float64{{3, 0}, {0, 0}, {0, 4}, {0, 0}}) // mass 25, trailing zero row
	const count, m = 40, 40
	b := SampleStream(rowsOf(a), 2, count, m, 100, 100, rng) // walk stops at run = 0.25
	if b.Rows() != count {
		t.Fatalf("rows = %d, want %d", b.Rows(), count)
	}
	clamped := 0
	for r := 0; r < count; r++ {
		switch row := b.Row(r); {
		case matrix.Norm2(row) == 0:
			t.Fatalf("slot %d left all-zero", r)
		case row[0] == 0:
			// A copy of {0,4}: p = 16/100, so w = 1/√(m·p).
			if want := 4 / math.Sqrt(m*0.16); math.Abs(row[1]-want) > 1e-12 {
				t.Fatalf("slot %d = %v, want {0,%v}", r, row, want)
			}
			clamped++
		}
	}
	// Targets above 0.25 (about three quarters of them) all land on the clamp row.
	if clamped < count/2 {
		t.Fatalf("only %d of %d slots clamped to the last positive row", clamped, count)
	}
}

func TestMultinomialSplitSkipsZeroMassBuckets(t *testing.T) {
	// A draw of exactly 0 used to select bucket 0 even with zero mass
	// (u=0 ≤ run=0 after adding masses[0]=0), assigning samples to servers
	// that then emitted never-populated all-zero rows.
	masses := []float64{0, 2, 0, 3, 0}
	counts := splitMultinomial(masses, 1, func() float64 { return 0 })
	if counts[0] != 0 || counts[1] != 1 {
		t.Fatalf("draw 0 with leading zero mass: counts = %v, want bucket 1", counts)
	}
	// Property: across many random draws no zero-mass bucket ever receives a
	// sample and no sample is lost.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		counts := MultinomialSplit(masses, 200, rng)
		total := 0
		for i, c := range counts {
			if masses[i] == 0 && c != 0 {
				t.Fatalf("trial %d: zero-mass bucket %d got %d samples", trial, i, c)
			}
			total += c
		}
		if total != 200 {
			t.Fatalf("trial %d: %d of 200 samples assigned", trial, total)
		}
	}
}

func TestMultinomialSplitClampsRoundingOverflow(t *testing.T) {
	// If floating-point rounding leaves u beyond the accumulated mass, the
	// cumulative walk finds no bucket; the old code silently dropped the
	// sample. The split must clamp such draws to the last positive-mass
	// bucket instead.
	masses := []float64{1, 3, 0} // trailing zero: clamp must land on 1, not 2
	counts := splitMultinomial(masses, 3, func() float64 { return 1.0000000000000002 })
	if counts[1] != 3 {
		t.Fatalf("overflow draws not clamped to last positive bucket: %v", counts)
	}
	if counts[0]+counts[1]+counts[2] != 3 {
		t.Fatalf("samples dropped: %v", counts)
	}
}

func TestMultinomialSplitDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, tc := range []struct {
		masses []float64
		m      int
	}{
		{nil, 5},
		{[]float64{}, 5},
		{[]float64{0, 0}, 5},
		{[]float64{1, 2}, 0},
	} {
		counts := MultinomialSplit(tc.masses, tc.m, rng)
		if len(counts) != len(tc.masses) {
			t.Fatalf("len(counts) = %d, want %d", len(counts), len(tc.masses))
		}
		for _, c := range counts {
			if c != 0 {
				t.Fatalf("degenerate input %v m=%d: counts = %v", tc.masses, tc.m, counts)
			}
		}
	}
}
