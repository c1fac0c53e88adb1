// Package linalg implements the dense numerical routines the sketching
// algorithms are built on, from scratch against the stdlib: symmetric
// eigendecomposition (Householder tridiagonalization and the values-only
// implicit-shift QL, which records its rotations so that only the
// eigenvectors a caller reads are built afterwards), agg(A) = ΣVᵀ read off
// it (RightFactor, the source of every sketch row the runtime emits), the
// one-sided Jacobi SVD, pivoted Householder QR, pseudoinverse and spectral
// norms. Jacobi is the independent oracle behind
// SpectralNormSym, SingularValues and TailEnergy, and factors the
// pseudoinverse, whose small singular values a Gram cannot resolve.
package linalg

import (
	"errors"
	"math"
	"sort"
	"sync/atomic"

	"repro/internal/matrix"
	"repro/internal/parallel"
)

// ErrNoConvergence is returned when an iterative routine exceeds its sweep or
// iteration budget without reaching its tolerance.
var ErrNoConvergence = errors.New("linalg: iteration did not converge")

// SVD holds a thin singular value decomposition A = U·diag(Sigma)·Vᵀ with
// singular values sorted in non-increasing order.
//
// U is n×r and V is d×r with r = min(n,d). Columns of U corresponding to
// zero singular values are zero vectors (they never matter in products with
// Sigma but are not valid orthonormal directions).
type SVD struct {
	U     *matrix.Dense
	Sigma []float64
	V     *matrix.Dense
}

const (
	jacobiMaxSweeps = 60
	jacobiTol       = 1e-14
)

// ComputeSVD computes a thin SVD of a using the one-sided Jacobi (Hestenes)
// method, the oracle and pseudoinverse route: the columns of a are
// orthogonalized by right rotations which are
// accumulated into V; singular values are the resulting column norms.
//
// The method is applied to whichever of a, aᵀ has fewer columns, so the cost
// is O(min(n,d)² · max(n,d)) per sweep.
//
// Pairs are visited in round-robin tournament order: each sweep consists of
// d−1 rounds of ⌊d/2⌋ pairwise-disjoint rotations, which run in parallel on
// the shared worker pool. Disjoint rotations commute exactly, so the result
// is bit-identical for any pool width (including the serial fallback).
func ComputeSVD(a *matrix.Dense) (*SVD, error) {
	return computeSVDWorkspace(a, nil)
}

// SVDWorkspace holds reusable buffers for repeated SVDs of equally-shaped
// inputs (kept for the reference benchmark's SVD replay). The zero value
// is ready to use; pass the same workspace to successive ComputeSVDWith
// calls. The returned SVD aliases
// the workspace buffers, so it is valid only until the next call with the
// same workspace.
type SVDWorkspace struct {
	w, vt, u, v *matrix.Dense
	sigma       []float64
	order       []int
	pairs       []int32
}

// ComputeSVDWith is ComputeSVD with caller-managed scratch: all large
// intermediates (the working transpose, rotation accumulator, and output
// factors) are reused from ws across calls.
func ComputeSVDWith(a *matrix.Dense, ws *SVDWorkspace) (*SVD, error) {
	return computeSVDWorkspace(a, ws)
}

// reuse returns a zeroed r×c matrix backed by *m when its capacity
// suffices, (re)allocating and caching into *m otherwise.
func reuse(m **matrix.Dense, r, c int) *matrix.Dense {
	if m == nil {
		return matrix.New(r, c)
	}
	if *m == nil || cap((*m).Data()) < r*c {
		*m = matrix.New(r, c)
		return *m
	}
	out := matrix.NewFromData(r, c, (*m).Data()[:r*c])
	for i, data := 0, out.Data(); i < len(data); i++ {
		data[i] = 0
	}
	*m = out
	return out
}

func computeSVDWorkspace(a *matrix.Dense, ws *SVDWorkspace) (*SVD, error) {
	n, d := a.Dims()
	if n == 0 || d == 0 {
		return &SVD{U: matrix.New(n, 0), Sigma: nil, V: matrix.New(d, 0)}, nil
	}
	if d > n {
		// SVD(Aᵀ) = (V, Σ, U).
		s, err := computeSVDWorkspace(a.T(), ws)
		if err != nil {
			return nil, err
		}
		return &SVD{U: s.V, Sigma: s.Sigma, V: s.U}, nil
	}
	// Work on W = Aᵀ stored row-major so each column of A is a contiguous
	// row of W; rotations touch two rows at a time.
	var wBuf, vtBuf, uBuf, vBuf **matrix.Dense
	if ws != nil {
		wBuf, vtBuf, uBuf, vBuf = &ws.w, &ws.vt, &ws.u, &ws.v
	}
	w := reuse(wBuf, d, n) // d×n, row j = column j of A
	for i := 0; i < n; i++ {
		ai := a.Row(i)
		for j := 0; j < d; j++ {
			w.Row(j)[i] = ai[j]
		}
	}
	vt := reuse(vtBuf, d, d)
	for j := 0; j < d; j++ {
		vt.Row(j)[j] = 1
	}

	// Columns whose norm is negligible relative to the matrix scale are
	// zeroed outright: after heavy cancellation they carry only rounding
	// noise, and chasing their rotations can cycle forever.
	negligible2 := w.Frob2() * 1e-28

	// Round-robin tournament schedule over an even number of slots (an odd
	// d gets one bye slot per round). players holds the column indices;
	// round r pairs players[i] with players[m−1−i].
	m := d
	if m%2 == 1 {
		m++
	}
	var players []int32
	if ws != nil {
		if cap(ws.pairs) < m {
			ws.pairs = make([]int32, m)
		}
		players = ws.pairs[:m]
	} else {
		players = make([]int32, m)
	}
	for i := range players {
		players[i] = int32(i)
	}
	grain := parallel.Grain(12 * n) // ~6 length-n passes per rotated pair

	converged := false
	for sweep := 0; sweep < jacobiMaxSweeps && !converged; sweep++ {
		var rotated atomic.Bool
		for round := 0; round < m-1; round++ {
			parallel.For(m/2, grain, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					p, q := int(players[i]), int(players[m-1-i])
					if p >= d || q >= d {
						continue // bye slot of an odd d
					}
					if q < p {
						p, q = q, p
					}
					if jacobiRotatePair(w, vt, p, q, negligible2) {
						rotated.Store(true)
					}
				}
			})
			// Rotate all slots but the first by one position.
			last := players[m-1]
			copy(players[2:], players[1:m-1])
			players[1] = last
		}
		converged = !rotated.Load()
	}
	if !converged {
		return nil, ErrNoConvergence
	}

	// Extract singular values and sort non-increasing.
	var sigma []float64
	var order []int
	if ws != nil {
		if cap(ws.sigma) < d {
			ws.sigma, ws.order = make([]float64, d), make([]int, d)
		}
		sigma, order = ws.sigma[:d], ws.order[:d]
	} else {
		sigma, order = make([]float64, d), make([]int, d)
	}
	for j := 0; j < d; j++ {
		sigma[j] = matrix.Norm(w.Row(j))
		order[j] = j
	}
	sort.SliceStable(order, func(i, j int) bool { return sigma[order[i]] > sigma[order[j]] })

	u := reuse(uBuf, n, d)
	v := reuse(vBuf, d, d)
	outSigma := make([]float64, d)
	for out, j := range order {
		outSigma[out] = sigma[j]
		wj := w.Row(j)
		if sigma[j] > 0 {
			inv := 1 / sigma[j]
			for i := 0; i < n; i++ {
				u.Set(i, out, wj[i]*inv)
			}
		}
		vj := vt.Row(j)
		for i := 0; i < d; i++ {
			v.Set(i, out, vj[i])
		}
	}
	return &SVD{U: u, Sigma: outSigma, V: v}, nil
}

// jacobiRotatePair orthogonalizes columns p and q of the implicit A (rows p,
// q of w), accumulating the rotation into vt. It reports whether a rotation
// was applied. Row pairs are disjoint across a tournament round, so
// concurrent calls within a round are race-free and commute exactly.
func jacobiRotatePair(w, vt *matrix.Dense, p, q int, negligible2 float64) bool {
	wp, wq := w.Row(p), w.Row(q)
	if dropNegligible(wp, negligible2) || dropNegligible(wq, negligible2) {
		return false
	}
	alpha := matrix.Norm2(wp)
	beta := matrix.Norm2(wq)
	gamma := matrix.Dot(wp, wq)
	if math.Abs(gamma) <= jacobiTol*math.Sqrt(alpha*beta) || gamma == 0 {
		return false
	}
	zeta := (beta - alpha) / (2 * gamma)
	t := math.Copysign(1, zeta) / (math.Abs(zeta) + math.Sqrt(1+zeta*zeta))
	c := 1 / math.Sqrt(1+t*t)
	s := c * t
	rotateRows(wp, wq, c, s)
	rotateRows(vt.Row(p), vt.Row(q), c, s)
	return true
}

// dropNegligible zeroes v if ‖v‖² ≤ thresh2, reporting whether it did (or
// the vector was already zero).
func dropNegligible(v []float64, thresh2 float64) bool {
	n2 := matrix.Norm2(v)
	if n2 == 0 {
		return true
	}
	if n2 <= thresh2 {
		for i := range v {
			v[i] = 0
		}
		return true
	}
	return false
}

// rotateRows applies the Givens rotation [c −s; s c] to the row pair (x, y):
// x' = c·x − s·y, y' = s·x + c·y.
func rotateRows(x, y []float64, c, s float64) {
	for i := range x {
		xi, yi := x[i], y[i]
		x[i] = c*xi - s*yi
		y[i] = s*xi + c*yi
	}
}

// SingularValues returns the singular values of a in non-increasing order.
func SingularValues(a *matrix.Dense) ([]float64, error) {
	s, err := ComputeSVD(a)
	if err != nil {
		return nil, err
	}
	return s.Sigma, nil
}

// SpectralNormSym returns ‖S‖₂ = max(|λ₁|, |λ_n|) of a symmetric matrix as
// its largest singular value from the one-sided Jacobi SVD. That keeps the
// small-d oracle behind CovarianceError independent of the QL path the
// shipped eigensolver runs. For large d prefer SpectralNormSymFast.
//
// Jacobi's convergence test multiplies squared column norms, which
// underflows for entries near 1e-150, so S is first scaled by the power of
// two that brings its largest entry into [½, 1). A power-of-two scaling
// rounds nothing above the subnormal range, and Jacobi is equivariant under
// it, so normally scaled inputs get the same bits as unscaled ones.
func SpectralNormSym(s *matrix.Dense) (float64, error) {
	if !s.IsFinite() {
		return 0, ErrNoConvergence // as the QL path reports a NaN or Inf
	}
	m := s.MaxAbs()
	if m == 0 {
		return 0, nil
	}
	_, e := math.Frexp(m)
	sig, err := SingularValues(s.Scale(math.Ldexp(1, -e)))
	if err != nil {
		return 0, err
	}
	return math.Ldexp(sig[0], e), nil
}

// Reconstruct returns U·diag(Sigma)·Vᵀ.
func (s *SVD) Reconstruct() *matrix.Dense {
	n, _ := s.U.Dims()
	d, _ := s.V.Dims()
	out := matrix.New(n, d)
	for j, sj := range s.Sigma {
		if sj == 0 {
			continue
		}
		for i := 0; i < n; i++ {
			uij := s.U.At(i, j) * sj
			if uij == 0 {
				continue
			}
			row := out.Row(i)
			for l := 0; l < d; l++ {
				row[l] += uij * s.V.At(l, j)
			}
		}
	}
	return out
}

// Rank returns the numerical rank: the number of singular values exceeding
// tol·σ_max. With tol <= 0 a default of 1e-12 is used.
func (s *SVD) Rank(tol float64) int {
	if len(s.Sigma) == 0 {
		return 0
	}
	if tol <= 0 {
		tol = 1e-12
	}
	thresh := tol * s.Sigma[0]
	r := 0
	for _, v := range s.Sigma {
		if v > thresh {
			r++
		}
	}
	return r
}

// TailEnergy returns ‖A − [A]_k‖F² = Σ_{j>k} σ_j², the quantity the paper's
// (ε,k)-sketch guarantee is stated against. k <= 0 returns ‖A‖F².
func TailEnergy(a *matrix.Dense, k int) (float64, error) {
	if k <= 0 {
		return a.Frob2(), nil
	}
	sig, err := SingularValues(a)
	if err != nil {
		return 0, err
	}
	return TailEnergyOf(sig, k), nil
}

// TailEnergyOf returns Σ_{j>=k} σ_j² for a sorted singular value slice.
func TailEnergyOf(sigma []float64, k int) float64 {
	s := 0.0
	for j := k; j < len(sigma); j++ {
		s += sigma[j] * sigma[j]
	}
	return s
}
