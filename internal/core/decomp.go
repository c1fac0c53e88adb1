package core

import (
	"fmt"

	"repro/internal/linalg"
	"repro/internal/matrix"
)

// Decomp implements Lemma 6: it splits B into (T, R) with
//
//	BᵀB = TᵀT + RᵀR  and  ‖R‖F² = ‖B − [B]_k‖F²,
//
// where T holds the top-k rows of the aggregated form ΣVᵀ and R the
// remaining rows, zero rows included. R is empty when k ≥ min(rows, cols).
func Decomp(b *matrix.Dense, k int) (t, r *matrix.Dense, err error) {
	if k < 0 {
		panic(fmt.Sprintf("core: Decomp with negative k=%d", k))
	}
	var agg linalg.RightFactor
	if err := agg.Factor(b); err != nil {
		return nil, nil, err
	}
	n := len(agg.Lambda)
	k = min(k, n)
	return agg.Rows(0, k), agg.Rows(k, n), nil
}
