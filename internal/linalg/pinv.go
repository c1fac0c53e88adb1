package linalg

import (
	"repro/internal/matrix"
)

// PseudoInverse returns the Moore–Penrose pseudoinverse A⁺ = V·Σ⁺·Uᵀ,
// treating singular values below tol·σ_max as zero (tol <= 0 uses 1e-12).
//
// The §3.3 Case-1 protocol uses Q⁺Q as the orthogonal projector onto the row
// space of Q. It stays on Jacobi: Q's smallest σ can sit near 1e-9·σ₁.
func PseudoInverse(a *matrix.Dense, tol float64) (*matrix.Dense, error) {
	n, d := a.Dims()
	if n == 0 || d == 0 {
		return matrix.New(d, n), nil
	}
	if tol <= 0 {
		tol = 1e-12
	}
	s, err := ComputeSVD(a)
	if err != nil {
		return nil, err
	}
	thresh := 0.0
	if len(s.Sigma) > 0 {
		thresh = tol * s.Sigma[0]
	}
	// A⁺ = Σ_j (1/σ_j) v_j u_jᵀ over σ_j > thresh.
	out := matrix.New(d, n)
	for j, sj := range s.Sigma {
		if sj <= thresh {
			continue
		}
		inv := 1 / sj
		for i := 0; i < d; i++ {
			vij := s.V.At(i, j) * inv
			if vij == 0 {
				continue
			}
			row := out.Row(i)
			for l := 0; l < n; l++ {
				row[l] += vij * s.U.At(l, j)
			}
		}
	}
	return out, nil
}
