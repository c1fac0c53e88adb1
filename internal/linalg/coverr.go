package linalg

import "repro/internal/matrix"

// CovarianceError returns the paper's central error measure
// coverr(A,B) = ‖AᵀA − BᵀB‖₂ (Definition 1), computed exactly via an
// eigendecomposition of the d×d difference (Jacobi for small d, the
// tridiagonal QL path for larger). a and b must have the same number of
// columns.
func CovarianceError(a, b *matrix.Dense) (float64, error) {
	return SpectralNormSymFast(a.Gram().Sub(b.Gram()))
}
