package linalg

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/matrix"
)

func randSym(rng *rand.Rand, n int) *matrix.Dense {
	a := randDense(rng, n, n)
	return a.Add(a.T()).Scale(0.5)
}

func TestEigSymReconstruct(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 5, 10, 20} {
		s := randSym(rng, n)
		e, err := ComputeEigSym(s)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !e.Reconstruct().EqualApprox(s, 1e-9) {
			t.Fatalf("n=%d: reconstruction failed", n)
		}
		if !IsOrthonormalColumns(e.V, 1e-9) {
			t.Fatalf("n=%d: V not orthonormal", n)
		}
		if !sort.IsSorted(sort.Reverse(sort.Float64Slice(e.Values))) {
			t.Fatalf("n=%d: eigenvalues not sorted desc: %v", n, e.Values)
		}
	}
}

func TestEigSymKnown(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 3 and 1.
	s := matrix.NewFromRows([][]float64{{2, 1}, {1, 2}})
	e, err := ComputeEigSym(s)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e.Values[0]-3) > 1e-12 || math.Abs(e.Values[1]-1) > 1e-12 {
		t.Fatalf("eigenvalues = %v, want [3 1]", e.Values)
	}
}

func TestEigSymDiagonal(t *testing.T) {
	s := matrix.Diag([]float64{-5, 2, 7})
	e, err := ComputeEigSym(s)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{7, 2, -5}
	for i, w := range want {
		if math.Abs(e.Values[i]-w) > 1e-12 {
			t.Fatalf("eigenvalues = %v, want %v", e.Values, want)
		}
	}
}

func TestEigSymZeroAndEmpty(t *testing.T) {
	e, err := ComputeEigSym(matrix.New(3, 3))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range e.Values {
		if v != 0 {
			t.Fatal("zero matrix eigenvalues must be 0")
		}
	}
	e2, err := ComputeEigSym(matrix.New(0, 0))
	if err != nil || len(e2.Values) != 0 {
		t.Fatal("empty eig failed")
	}
}

func TestEigSymNonSquarePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ComputeEigSym(matrix.New(2, 3))
}

func TestSpectralNormSym(t *testing.T) {
	s := matrix.Diag([]float64{3, -7, 2})
	got, err := SpectralNormSym(s)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-7) > 1e-12 {
		t.Fatalf("SpectralNormSym = %v, want 7", got)
	}
}

func TestEigSymVsSVDOnGram(t *testing.T) {
	// λ_i(AᵀA) == σ_i(A)².
	rng := rand.New(rand.NewSource(14))
	a := randDense(rng, 10, 5)
	e, err := ComputeEigSym(a.Gram())
	if err != nil {
		t.Fatal(err)
	}
	sig, err := SingularValues(a)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sig {
		if math.Abs(e.Values[i]-sig[i]*sig[i]) > 1e-8*math.Max(1, sig[i]*sig[i]) {
			t.Fatalf("λ[%d] = %v, σ² = %v", i, e.Values[i], sig[i]*sig[i])
		}
	}
}

// Property: trace(S) == Σ eigenvalues.
func TestPropEigTrace(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		s := randSym(rng, n)
		e, err := ComputeEigSym(s)
		if err != nil {
			return false
		}
		sum := 0.0
		for _, v := range e.Values {
			sum += v
		}
		return math.Abs(sum-s.Trace()) < 1e-9*(1+math.Abs(s.Trace()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
