package linalg

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/matrix"
)

func randDense(rng *rand.Rand, r, c int) *matrix.Dense {
	m := matrix.New(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			m.Set(i, j, rng.NormFloat64())
		}
	}
	return m
}

// matrixWithSpectrum builds an n×d matrix with the prescribed singular values.
func matrixWithSpectrum(rng *rand.Rand, n, d int, sigma []float64) *matrix.Dense {
	u := orthonormalizeColumns(randDense(rng, n, len(sigma)), 0)
	v := orthonormalizeColumns(randDense(rng, d, len(sigma)), 0)
	s := &SVD{U: u, Sigma: sigma, V: v}
	return s.Reconstruct()
}

func TestSVDReconstruct(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dims := range [][2]int{{8, 5}, {5, 8}, {6, 6}, {1, 4}, {4, 1}, {20, 3}} {
		a := randDense(rng, dims[0], dims[1])
		s, err := ComputeSVD(a)
		if err != nil {
			t.Fatalf("%v: %v", dims, err)
		}
		if !s.Reconstruct().EqualApprox(a, 1e-9) {
			t.Fatalf("%v: reconstruction failed", dims)
		}
	}
}

func TestSVDOrthonormalFactors(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randDense(rng, 10, 6)
	s, err := ComputeSVD(a)
	if err != nil {
		t.Fatal(err)
	}
	if !IsOrthonormalColumns(s.U, 1e-9) {
		t.Fatal("U not orthonormal")
	}
	if !IsOrthonormalColumns(s.V, 1e-9) {
		t.Fatal("V not orthonormal")
	}
}

func TestSVDSingularValuesSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randDense(rng, 12, 7)
	s, err := ComputeSVD(a)
	if err != nil {
		t.Fatal(err)
	}
	if !sort.IsSorted(sort.Reverse(sort.Float64Slice(s.Sigma))) {
		t.Fatalf("singular values not sorted: %v", s.Sigma)
	}
	for _, v := range s.Sigma {
		if v < 0 {
			t.Fatalf("negative singular value %v", v)
		}
	}
}

func TestSVDKnownSpectrum(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	want := []float64{9, 4, 1, 0.25}
	a := matrixWithSpectrum(rng, 10, 6, want)
	got, err := SingularValues(a)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range want {
		if math.Abs(got[i]-w) > 1e-8 {
			t.Fatalf("sigma[%d] = %v, want %v", i, got[i], w)
		}
	}
	for i := len(want); i < len(got); i++ {
		if got[i] > 1e-8 {
			t.Fatalf("sigma[%d] = %v, want ~0", i, got[i])
		}
	}
}

func TestSVDDiagonal(t *testing.T) {
	a := matrix.Diag([]float64{3, -2, 5})
	s, err := ComputeSVD(a)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{5, 3, 2}
	for i, w := range want {
		if math.Abs(s.Sigma[i]-w) > 1e-12 {
			t.Fatalf("sigma = %v, want %v", s.Sigma, want)
		}
	}
}

func TestSVDZeroAndEmpty(t *testing.T) {
	z := matrix.New(4, 3)
	s, err := ComputeSVD(z)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range s.Sigma {
		if v != 0 {
			t.Fatal("zero matrix must have zero singular values")
		}
	}
	if s.Rank(0) != 0 {
		t.Fatal("zero matrix rank must be 0")
	}
	e, err := ComputeSVD(matrix.New(0, 5))
	if err != nil || len(e.Sigma) != 0 {
		t.Fatalf("empty SVD: %v %v", e.Sigma, err)
	}
}

func TestSVDFrobeniusIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randDense(rng, 9, 5)
	sig, err := SingularValues(a)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, v := range sig {
		sum += v * v
	}
	if math.Abs(sum-a.Frob2()) > 1e-9*a.Frob2() {
		t.Fatalf("Σσ² = %v, ‖A‖F² = %v", sum, a.Frob2())
	}
}

// TestAggregatedPreservesGram: agg(A) from RightFactor, built from A tall
// or wide, from its Gram, or from its SVD, has min(n,d) rows, A's Gram and
// the SVD's spectrum.
func TestAggregatedPreservesGram(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, dims := range [][2]int{{11, 6}, {6, 11}} {
		a := randDense(rng, dims[0], dims[1])
		s, err := ComputeSVD(a)
		if err != nil {
			t.Fatal(err)
		}
		var fromA, fromGram RightFactor
		if err := fromA.Factor(a); err != nil {
			t.Fatal(err)
		}
		if err := fromGram.FactorGram(a.Gram(), dims[0]); err != nil {
			t.Fatal(err)
		}
		for name, f := range map[string]*RightFactor{"A": &fromA, "Gram": &fromGram, "SVD": s.RightFactor()} {
			agg := f.Top(len(f.Lambda))
			if f.Rank() != 6 || agg.Rows() != 6 || agg.Cols() != dims[1] {
				t.Fatalf("%v from %s: rank %d, agg %d×%d", dims, name, f.Rank(), agg.Rows(), agg.Cols())
			}
			if !agg.Gram().EqualApprox(a.Gram(), 1e-8) {
				t.Fatalf("%v from %s: agg(A)ᵀagg(A) != AᵀA", dims, name)
			}
			for j := 0; j < 6; j++ {
				if math.Abs(f.Sigma(j)-s.Sigma[j]) > 1e-12*s.Sigma[0] {
					t.Fatalf("%v from %s: σ_%d = %v, Jacobi %v", dims, name, j, f.Sigma(j), s.Sigma[j])
				}
			}
		}
	}
}

func TestTailEnergy(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	sigma := []float64{4, 3, 2, 1}
	a := matrixWithSpectrum(rng, 9, 7, sigma)
	te, err := TailEnergy(a, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(te-5) > 1e-8 { // 2² + 1²
		t.Fatalf("TailEnergy(2) = %v, want 5", te)
	}
	te0, err := TailEnergy(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(te0-a.Frob2()) > 1e-9 {
		t.Fatalf("TailEnergy(0) = %v, want ‖A‖F²", te0)
	}
	if got := TailEnergyOf([]float64{3, 2, 1}, 1); got != 5 {
		t.Fatalf("TailEnergyOf = %v", got)
	}
}

func TestSVDRank(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := matrixWithSpectrum(rng, 10, 8, []float64{5, 2, 1e-14})
	s, err := ComputeSVD(a)
	if err != nil {
		t.Fatal(err)
	}
	if r := s.Rank(0); r != 2 {
		t.Fatalf("Rank = %d, want 2", r)
	}
}

// Property: SVD reconstructs and factors stay orthonormal across random shapes.
func TestPropSVD(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, d := 1+rng.Intn(12), 1+rng.Intn(12)
		a := randDense(rng, n, d)
		s, err := ComputeSVD(a)
		if err != nil {
			return false
		}
		return s.Reconstruct().EqualApprox(a, 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
