package core

import (
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
