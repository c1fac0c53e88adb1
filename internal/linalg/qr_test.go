package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/matrix"
)

// pivotedReconstructs reports whether Q·R equals a with its columns permuted
// by Perm (A·P = Q·R).
func pivotedReconstructs(a *matrix.Dense, pqr *PivotedQR, tol float64) bool {
	qr := pqr.Q.Mul(pqr.R)
	for j, orig := range pqr.Perm {
		for i := 0; i < a.Rows(); i++ {
			if math.Abs(qr.At(i, j)-a.At(i, orig)) > tol {
				return false
			}
		}
	}
	return true
}

// orthonormalizeColumns returns a matrix with the same column span as a but
// orthonormal columns, dropping numerically dependent columns
// (tol relative to the largest column norm; tol <= 0 uses 1e-10).
func orthonormalizeColumns(a *matrix.Dense, tol float64) *matrix.Dense {
	m, n := a.Dims()
	if tol <= 0 {
		tol = 1e-10
	}
	maxNorm := 0.0
	for j := 0; j < n; j++ {
		if v := matrix.Norm(a.Col(j)); v > maxNorm {
			maxNorm = v
		}
	}
	if maxNorm == 0 {
		return matrix.New(m, 0)
	}
	basis := make([][]float64, 0, n)
	for j := 0; j < n; j++ {
		v := a.Col(j)
		// Two rounds of modified Gram–Schmidt for numerical stability.
		for pass := 0; pass < 2; pass++ {
			for _, b := range basis {
				matrix.AxpyVec(v, -matrix.Dot(b, v), b)
			}
		}
		if matrix.Norm(v) > tol*maxNorm {
			matrix.Normalize(v)
			basis = append(basis, v)
		}
	}
	out := matrix.New(m, len(basis))
	for j, b := range basis {
		out.SetCol(j, b)
	}
	return out
}

func TestQRReconstruct(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, dims := range [][2]int{{8, 5}, {5, 8}, {6, 6}, {1, 3}, {10, 1}} {
		a := randDense(rng, dims[0], dims[1])
		pqr := ComputePivotedQR(a, 0)
		if !pivotedReconstructs(a, pqr, 1e-9) {
			t.Fatalf("%v: A·P != Q·R", dims)
		}
		if !IsOrthonormalColumns(pqr.Q, 1e-10) {
			t.Fatalf("%v: Q not orthonormal", dims)
		}
		// R upper triangular.
		r, c := pqr.R.Dims()
		for i := 0; i < r; i++ {
			for j := 0; j < c && j < i; j++ {
				if math.Abs(pqr.R.At(i, j)) > 1e-12 {
					t.Fatalf("%v: R(%d,%d) = %v below diagonal", dims, i, j, pqr.R.At(i, j))
				}
			}
		}
	}
}

func TestQRRankDeficient(t *testing.T) {
	// Two identical columns.
	a := matrix.NewFromRows([][]float64{{1, 1, 2}, {2, 2, 0}, {3, 3, 1}})
	pqr := ComputePivotedQR(a, 1e-9)
	if pqr.Rank != 2 {
		t.Fatalf("Rank = %d, want 2", pqr.Rank)
	}
	if !pivotedReconstructs(a, pqr, 1e-9) {
		t.Fatal("rank-deficient QR reconstruction failed")
	}
}

func TestPivotedQRRank(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	a := matrixWithSpectrum(rng, 9, 7, []float64{5, 3, 1})
	pqr := ComputePivotedQR(a, 1e-9)
	if pqr.Rank != 3 {
		t.Fatalf("Rank = %d, want 3", pqr.Rank)
	}
	if got := Rank(a, 1e-9); got != 3 {
		t.Fatalf("Rank() = %d, want 3", got)
	}
	if got := Rank(a.T(), 1e-9); got != 3 {
		t.Fatalf("Rank(Aᵀ) = %d, want 3", got)
	}
}

func TestPivotedQRReconstruct(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	a := randDense(rng, 7, 5)
	if !pivotedReconstructs(a, ComputePivotedQR(a, 0), 1e-9) {
		t.Fatal("A·P != Q·R")
	}
}

func TestOrthonormalizeColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	a := randDense(rng, 8, 4)
	q := orthonormalizeColumns(a, 0)
	if q.Cols() != 4 {
		t.Fatalf("cols = %d, want 4", q.Cols())
	}
	if !IsOrthonormalColumns(q, 1e-10) {
		t.Fatal("not orthonormal")
	}
	// Dependent columns dropped.
	dep := matrix.New(5, 3)
	dep.SetCol(0, []float64{1, 0, 0, 0, 0})
	dep.SetCol(1, []float64{2, 0, 0, 0, 0})
	dep.SetCol(2, []float64{0, 1, 0, 0, 0})
	q2 := orthonormalizeColumns(dep, 1e-10)
	if q2.Cols() != 2 {
		t.Fatalf("dependent: cols = %d, want 2", q2.Cols())
	}
	// All-zero input.
	if orthonormalizeColumns(matrix.New(4, 2), 0).Cols() != 0 {
		t.Fatal("zero input should give empty basis")
	}
}

func TestPseudoInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	a := randDense(rng, 7, 4) // full column rank w.p. 1
	pinv, err := PseudoInverse(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A⁺A = I for full column rank.
	if !pinv.Mul(a).EqualApprox(identity(4), 1e-8) {
		t.Fatal("A⁺A != I")
	}
	// Moore–Penrose conditions: A·A⁺·A = A, A⁺·A·A⁺ = A⁺.
	if !a.Mul(pinv).Mul(a).EqualApprox(a, 1e-8) {
		t.Fatal("AA⁺A != A")
	}
	if !pinv.Mul(a).Mul(pinv).EqualApprox(pinv, 1e-8) {
		t.Fatal("A⁺AA⁺ != A⁺")
	}
}

func TestPseudoInverseRankDeficient(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	a := matrixWithSpectrum(rng, 6, 5, []float64{4, 2})
	pinv, err := PseudoInverse(a, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Mul(pinv).Mul(a).EqualApprox(a, 1e-7) {
		t.Fatal("AA⁺A != A (rank deficient)")
	}
}

// Property: QR factors reconstruct for random shapes.
func TestPropQR(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, n := 1+rng.Intn(10), 1+rng.Intn(10)
		a := randDense(rng, m, n)
		return pivotedReconstructs(a, ComputePivotedQR(a, 0), 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSVD64x64(b *testing.B) {
	rng := rand.New(rand.NewSource(30))
	a := randDense(rng, 64, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ComputeSVD(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSVD512x64(b *testing.B) {
	rng := rand.New(rand.NewSource(31))
	a := randDense(rng, 512, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ComputeSVD(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEigSym64(b *testing.B) {
	rng := rand.New(rand.NewSource(32))
	s := randSym(rng, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := computeEigSym(s); err != nil {
			b.Fatal(err)
		}
	}
}
