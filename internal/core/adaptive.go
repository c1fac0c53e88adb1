package core

import (
	"fmt"

	"repro/internal/linalg"
	"repro/internal/matrix"
)

// CovErr returns coverr(A,B) = ‖AᵀA−BᵀB‖₂ (Definition 1).
func CovErr(a, b *matrix.Dense) (float64, error) {
	return linalg.CovarianceError(a, b)
}

// EpsKBound returns the (ε,k)-sketch error budget of Definition 3:
// ε‖A−[A]_k‖F²/k, or ε‖A‖F² when k = 0.
func EpsKBound(a *matrix.Dense, eps float64, k int) (float64, error) {
	if k == 0 {
		return eps * a.Frob2(), nil
	}
	tail, err := linalg.TailEnergy(a, k)
	if err != nil {
		return 0, err
	}
	return eps * tail / float64(k), nil
}

// IsEpsKSketch checks Definition 3: whether coverr(A,B) ≤ ε‖A−[A]_k‖F²/k.
// It returns the verdict together with the measured error and the budget.
func IsEpsKSketch(a, b *matrix.Dense, eps float64, k int) (ok bool, err float64, bound float64, e error) {
	err, e = CovErr(a, b)
	if e != nil {
		return false, 0, 0, e
	}
	bound, e = EpsKBound(a, eps, k)
	if e != nil {
		return false, 0, 0, e
	}
	return err <= bound+1e-12, err, bound, nil
}

// ProjectionError returns the k-projection error ‖A − π_B^k(A)‖F² of
// Definition 2: project each row of A onto the span of the top-k right
// singular vectors of B. By the Pythagorean theorem this equals
// ‖A‖F² − ‖A·V_k‖F².
func ProjectionError(a, b *matrix.Dense, k int) (float64, error) {
	if k <= 0 {
		return a.Frob2(), nil
	}
	svd, err := linalg.ComputeSVD(b)
	if err != nil {
		return 0, err
	}
	d, r := svd.V.Dims()
	if a.Cols() != d {
		panic(fmt.Sprintf("core: ProjectionError dim mismatch %d vs %d", a.Cols(), d))
	}
	if k > r {
		k = r
	}
	vk := matrix.New(d, k)
	for j := 0; j < k; j++ {
		vk.SetCol(j, svd.V.Col(j))
	}
	proj := a.Mul(vk) // n×k
	return a.Frob2() - proj.Frob2(), nil
}
