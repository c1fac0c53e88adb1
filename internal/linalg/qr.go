package linalg

import (
	"math"

	"repro/internal/matrix"
	"repro/internal/parallel"
)

// applyHouseholder applies H = I − 2vvᵀ (v spanning rows [j,m) of r) to
// columns [cFrom, cTo) of r. Columns are independent, so the panel update
// runs in parallel on the shared worker pool; each column's arithmetic is
// unchanged, keeping results bit-identical to serial.
func applyHouseholder(r *matrix.Dense, v []float64, j, cFrom, cTo int) {
	m, _ := r.Dims()
	parallel.For(cTo-cFrom, parallel.Grain(4*(m-j)), func(lo, hi int) {
		for c := cFrom + lo; c < cFrom+hi; c++ {
			dot := 0.0
			for i := j; i < m; i++ {
				dot += v[i-j] * r.At(i, c)
			}
			dot *= 2
			for i := j; i < m; i++ {
				r.Set(i, c, r.At(i, c)-dot*v[i-j])
			}
		}
	})
}

// PivotedQR holds a column-pivoted QR factorization A·P = Q·R. Perm[j] gives
// the original column index moved to position j; Rank is the numerical rank
// detected during elimination.
type PivotedQR struct {
	Q    *matrix.Dense
	R    *matrix.Dense
	Perm []int
	Rank int
}

// ComputePivotedQR computes a column-pivoted Householder QR of a, stopping
// when the largest remaining column norm falls below tol times the largest
// initial column norm (tol <= 0 uses 1e-10). It is the workhorse behind
// "select a maximal set of linearly independent rows" in §3.3 of the paper
// (applied to Aᵀ).
func ComputePivotedQR(a *matrix.Dense, tol float64) *PivotedQR {
	m, n := a.Dims()
	if tol <= 0 {
		tol = 1e-10
	}
	k := m
	if n < k {
		k = n
	}
	r := a.Clone()
	perm := make([]int, n)
	for j := range perm {
		perm[j] = j
	}
	colNorm2 := make([]float64, n)
	maxInit := 0.0
	for j := 0; j < n; j++ {
		colNorm2[j] = matrix.Norm2(r.Col(j))
		if colNorm2[j] > maxInit {
			maxInit = colNorm2[j]
		}
	}
	thresh := tol * tol * maxInit
	vs := make([][]float64, 0, k)
	rank := 0
	for j := 0; j < k; j++ {
		// Pivot: bring the column with the largest remaining norm to front.
		// Recompute norms exactly (avoids downdating drift) in parallel,
		// then take the argmax serially so ties break deterministically.
		parallel.For(n-j, parallel.Grain(2*(m-j)), func(lo, hi int) {
			for c := j + lo; c < j+hi; c++ {
				v := 0.0
				for i := j; i < m; i++ {
					x := r.At(i, c)
					v += x * x
				}
				colNorm2[c] = v
			}
		})
		best, bestVal := j, -1.0
		for c := j; c < n; c++ {
			if v := colNorm2[c]; v > bestVal {
				best, bestVal = c, v
			}
		}
		if bestVal <= thresh {
			break
		}
		if best != j {
			swapCols(r, j, best)
			perm[j], perm[best] = perm[best], perm[j]
			colNorm2[j], colNorm2[best] = colNorm2[best], colNorm2[j]
		}
		rank++
		v := make([]float64, m-j)
		for i := j; i < m; i++ {
			v[i-j] = r.At(i, j)
		}
		alpha := matrix.Norm(v)
		if v[0] > 0 {
			alpha = -alpha
		}
		v[0] -= alpha
		vn := matrix.Norm(v)
		if vn == 0 {
			vs = append(vs, nil)
			continue
		}
		matrix.ScaleVec(v, 1/vn)
		applyHouseholder(r, v, j, j, n)
		vs = append(vs, v)
	}
	q := matrix.New(m, rank)
	for j := 0; j < rank; j++ {
		q.Set(j, j, 1)
	}
	for j := rank - 1; j >= 0; j-- {
		v := vs[j]
		if v == nil {
			continue
		}
		applyHouseholder(q, v, j, 0, rank)
	}
	rOut := matrix.New(rank, n)
	for i := 0; i < rank; i++ {
		for j := i; j < n; j++ {
			rOut.Set(i, j, r.At(i, j))
		}
	}
	return &PivotedQR{Q: q, R: rOut, Perm: perm, Rank: rank}
}

func swapCols(m *matrix.Dense, a, b int) {
	rows, _ := m.Dims()
	for i := 0; i < rows; i++ {
		va, vb := m.At(i, a), m.At(i, b)
		m.Set(i, a, vb)
		m.Set(i, b, va)
	}
}

// Rank returns the numerical rank of a.
func Rank(a *matrix.Dense, tol float64) int {
	m, n := a.Dims()
	if m == 0 || n == 0 {
		return 0
	}
	if m < n {
		a = a.T()
	}
	return ComputePivotedQR(a, tol).Rank
}

// IsOrthonormalColumns reports whether qᵀq ≈ I within tol.
func IsOrthonormalColumns(q *matrix.Dense, tol float64) bool {
	_, k := q.Dims()
	g := q.Gram()
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(g.At(i, j)-want) > tol {
				return false
			}
		}
	}
	return true
}
