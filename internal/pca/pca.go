// Package pca implements the Principal Component Analysis machinery of §4:
// extracting approximate top-k principal components from covariance
// sketches (Lemma 8 / Theorem 9), the CountSketch subspace embedding used by
// the batch "solve" baseline standing in for Boutsidis–Woodruff–Zhong [5],
// and quality metrics (Definition 4's (1+ε) Frobenius ratio).
package pca

import (
	"fmt"
	"math"

	"repro/internal/linalg"
	"repro/internal/matrix"
)

// TopKRightSV returns the top-k right singular vectors of a as the columns
// of a d×k matrix (k is clamped to min(n,d)); where a wide a has a zero
// singular value (linalg.RightFactor), that column is zero.
func TopKRightSV(a *matrix.Dense, k int) (*matrix.Dense, error) {
	if k < 0 {
		panic(fmt.Sprintf("pca: negative k=%d", k))
	}
	var agg linalg.RightFactor
	if err := agg.Factor(a); err != nil {
		return nil, err
	}
	k = min(k, len(agg.Lambda))
	v := matrix.New(a.Cols(), k)
	col := make([]float64, a.Cols())
	for j := 0; j < k; j++ {
		agg.Row(col, j, 1)
		v.SetCol(j, col)
	}
	return v, nil
}

// ProjectionCost returns ‖A − A·V·Vᵀ‖F² for an orthonormal d×k matrix V —
// the objective of Definition 4. By the Pythagorean theorem it equals
// ‖A‖F² − ‖A·V‖F².
func ProjectionCost(a, v *matrix.Dense) float64 {
	if a.Cols() != v.Rows() {
		panic(fmt.Sprintf("pca: dim mismatch A %d cols vs V %d rows", a.Cols(), v.Rows()))
	}
	cost := a.Frob2() - a.Mul(v).Frob2()
	if cost < 0 {
		return 0 // numerical guard; the true quantity is non-negative
	}
	return cost
}

// QualityRatio returns ‖A−AVVᵀ‖F² / ‖A−[A]_k‖F², the PCA approximation
// ratio of Definition 4 — a (1+ε)-approximate answer has ratio ≤ 1+ε.
// Returns +Inf when the optimum is 0 but V misses mass, and 1 when both are
// zero.
func QualityRatio(a, v *matrix.Dense, k int) (float64, error) {
	opt, err := linalg.TailEnergy(a, k)
	if err != nil {
		return 0, err
	}
	cost := ProjectionCost(a, v)
	if opt <= 1e-12*a.Frob2() {
		if cost <= 1e-9*a.Frob2() {
			return 1, nil
		}
		return math.Inf(1), nil
	}
	return cost / opt, nil
}

// SketchPCs runs the Theorem 9 "solve at the coordinator" step: the top-k
// right singular vectors of an (ε/2,k)-sketch Q are (1+O(ε))-approximate
// principal components of A (Lemma 8 with the exact solver).
func SketchPCs(q *matrix.Dense, k int) (*matrix.Dense, error) {
	return TopKRightSV(q, k)
}
