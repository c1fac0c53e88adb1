package linalg

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/matrix"
)

// EigenvaluesSym returns the eigenvalues of a symmetric matrix in
// non-increasing order, without eigenvectors, via Householder
// tridiagonalization followed by the implicit-shift QL iteration — O(n³)
// for the reduction and O(n²) for the QL phase. It is the fast path behind
// spectral-norm measurements on the larger benchmark dimensions. Only the
// lower triangle is read. ComputeEigSym runs the same two phases with the
// transforms accumulated and returns bit-identical eigenvalues.
func EigenvaluesSym(s *matrix.Dense) ([]float64, error) {
	n, c := s.Dims()
	if n != c {
		panic(fmt.Sprintf("linalg: EigenvaluesSym of non-square %d×%d", n, c))
	}
	if n == 0 {
		return nil, nil
	}
	diag, off, _ := tridiagonalize(s, false)
	if err := qlImplicit(diag, off, nil); err != nil {
		return nil, err
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(diag)))
	return diag, nil
}

// EigSym holds the eigendecomposition S = V·diag(Values)·Vᵀ of a symmetric
// matrix, with eigenvalues sorted in non-increasing order and eigenvectors
// in the corresponding columns of V.
type EigSym struct {
	Values []float64
	V      *matrix.Dense
}

// ComputeEigSym computes the full eigendecomposition of the symmetric matrix
// s: Householder tridiagonalization and the implicit-shift QL iteration
// with the transforms accumulated. Only the lower triangle is
// read; the input is not modified. Values are bit-identical to
// EigenvaluesSym(s).
func ComputeEigSym(s *matrix.Dense) (*EigSym, error) {
	n, c := s.Dims()
	if n != c {
		panic(fmt.Sprintf("linalg: ComputeEigSym of non-square %d×%d", n, c))
	}
	if n == 0 {
		return &EigSym{Values: nil, V: matrix.New(0, 0)}, nil
	}
	diag, off, zt := tridiagonalize(s, true)
	if err := qlImplicit(diag, off, zt); err != nil {
		return nil, err
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return diag[order[i]] > diag[order[j]] })
	values := make([]float64, n)
	v := matrix.New(n, n)
	vd := v.Data()
	for out, j := range order {
		values[out] = diag[j]
		for i, x := range zt.Row(j) {
			vd[i*n+out] = x
		}
	}
	return &EigSym{Values: values, V: v}, nil
}

// Reconstruct returns V·diag(Values)·Vᵀ.
func (e *EigSym) Reconstruct() *matrix.Dense {
	n, _ := e.V.Dims()
	out := matrix.New(n, n)
	for j, lambda := range e.Values {
		if lambda == 0 {
			continue
		}
		for i := 0; i < n; i++ {
			vij := e.V.At(i, j) * lambda
			if vij == 0 {
				continue
			}
			row := out.Row(i)
			for l := 0; l < n; l++ {
				row[l] += vij * e.V.At(l, j)
			}
		}
	}
	return out
}

// tridiagonalize reduces a symmetric matrix to tridiagonal form by
// Householder reflections (Numerical Recipes tred2), returning the diagonal
// and subdiagonal. Only the lower triangle of s is read.
//
// With vectors set it also accumulates the orthogonal transform Q and
// returns its transpose qt, so that row j of qt is column j of Q and the QL
// rotations touch two contiguous rows. The reduction stores the scaled
// Householder vectors in the upper triangle, which the values-only
// reduction never reads, so diag and off are the same bits either way.
func tridiagonalize(s *matrix.Dense, vectors bool) (diag, off []float64, qt *matrix.Dense) {
	n, _ := s.Dims()
	a := s.Clone()
	ad := a.Data()
	diag = make([]float64, n)
	off = make([]float64, n)
	for i := n - 1; i >= 1; i-- {
		l := i - 1
		ri := ad[i*n : i*n+i] // the lower part of row i, columns 0..l
		h, scale := 0.0, 0.0
		if l > 0 {
			for k := 0; k <= l; k++ {
				scale += math.Abs(ri[k])
			}
			if scale == 0 {
				off[i] = ri[l]
			} else {
				for k := 0; k <= l; k++ {
					v := ri[k] / scale
					ri[k] = v
					h += v * v
				}
				f := ri[l]
				g := math.Sqrt(h)
				if f > 0 {
					g = -g
				}
				off[i] = scale * g
				h -= f * g
				ri[l] = f - g
				f = 0
				for j := 0; j <= l; j++ {
					if vectors {
						ad[j*n+i] = ri[j] / h
					}
					g := 0.0
					rj := ad[j*n : j*n+j+1]
					for k, v := range rj {
						g += v * ri[k]
					}
					for k := j + 1; k <= l; k++ {
						g += ad[k*n+j] * ri[k]
					}
					off[j] = g / h
					f += off[j] * ri[j]
				}
				hh := f / (h + h)
				for j := 0; j <= l; j++ {
					f := ri[j]
					g := off[j] - hh*f
					off[j] = g
					rj := ad[j*n : j*n+j+1]
					for k := range rj {
						rj[k] = rj[k] - f*off[k] - g*ri[k]
					}
				}
			}
		} else {
			off[i] = ri[l]
		}
		diag[i] = h
	}
	off[0] = 0
	if !vectors {
		for i := 0; i < n; i++ {
			diag[i] = ad[i*n+i]
		}
		return diag, off, nil
	}
	// Accumulate Q from the stored reflections: for each i with a
	// non-trivial reflection (diag[i] still holds its h), Q[:i,:i] −=
	// (u/h)·(uᵀQ[:i,:i]), with u in row i and u/h in column i. The product
	// uᵀQ is formed row by row so every pass is contiguous.
	g := make([]float64, n)
	for i := 0; i < n; i++ {
		if diag[i] != 0 {
			gi := g[:i]
			for j := range gi {
				gi[j] = 0
			}
			for k := 0; k < i; k++ {
				if v := ad[i*n+k]; v != 0 {
					axpy(gi, v, ad[k*n:k*n+i])
				}
			}
			for k := 0; k < i; k++ {
				if v := ad[k*n+i]; v != 0 {
					axpy(ad[k*n:k*n+i], -v, gi)
				}
			}
		}
		diag[i] = ad[i*n+i]
		ad[i*n+i] = 1
		for j := 0; j < i; j++ {
			ad[j*n+i], ad[i*n+j] = 0, 0
		}
	}
	return diag, off, a.T()
}

// axpy sets y += a·x.
func axpy(y []float64, a float64, x []float64) {
	x = x[:len(y)]
	for i, v := range x {
		y[i] += a * v
	}
}

// qlImplicit runs the implicit-shift QL iteration on a tridiagonal matrix
// given by diag (modified in place to the eigenvalues) and off (the
// subdiagonal, off[0] unused). When zt is non-nil each rotation is also
// applied to rows i, i+1 of zt, so that on entry Qᵀ from tridiagonalize
// becomes the eigenvectors, row j belonging to diag[j]. Non-convergence and
// a non-finite result (a NaN or Inf input) are ErrNoConvergence.
func qlImplicit(diag, off []float64, zt *matrix.Dense) error {
	n := len(diag)
	if n == 0 {
		return nil
	}
	// Shift the subdiagonal for convenient indexing: e[i] couples i and i+1.
	e := make([]float64, n)
	copy(e, off[1:])
	const maxIter = 60
	for l := 0; l < n; l++ {
	iterate:
		for iter := 0; ; iter++ {
			// Find a small off-diagonal to split at.
			m := l
			for ; m < n-1; m++ {
				dd := math.Abs(diag[m]) + math.Abs(diag[m+1])
				if math.Abs(e[m]) <= 1e-15*dd {
					break
				}
			}
			if m == l {
				break
			}
			if iter == maxIter {
				return ErrNoConvergence
			}
			// Implicit shift from the trailing 2×2.
			g := (diag[l+1] - diag[l]) / (2 * e[l])
			r := math.Hypot(g, 1)
			g = diag[m] - diag[l] + e[l]/(g+math.Copysign(r, g))
			s, c := 1.0, 1.0
			p := 0.0
			for i := m - 1; i >= l; i-- {
				f := s * e[i]
				b := c * e[i]
				r := math.Hypot(f, g)
				e[i+1] = r
				if r == 0 {
					// Underflow: the matrix splits at i+1; restart the
					// sweep without the final update (tqli's "continue").
					diag[i+1] -= p
					e[m] = 0
					continue iterate
				}
				s = f / r
				c = g / r
				g = diag[i+1] - p
				r = (diag[i]-g)*s + 2*c*b
				p = s * r
				diag[i+1] = g + p
				g = c*r - b
				if zt != nil {
					rotateRows(zt.Row(i), zt.Row(i+1), c, s)
				}
			}
			diag[l] -= p
			e[l] = g
			e[m] = 0
		}
	}
	for _, v := range diag {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return ErrNoConvergence
		}
	}
	return nil
}

// SpectralNormSymFast returns ‖S‖₂ via the tridiagonal eigenvalue path for
// larger matrices, falling back to the exact Jacobi result for small ones
// (where the crossover does not matter).
func SpectralNormSymFast(s *matrix.Dense) (float64, error) {
	n, _ := s.Dims()
	if n == 0 {
		return 0, nil
	}
	if n <= 32 {
		return SpectralNormSym(s)
	}
	vals, err := EigenvaluesSym(s)
	if err != nil {
		// Robust fallback: Jacobi is slower but essentially always
		// converges.
		return SpectralNormSym(s)
	}
	return math.Max(math.Abs(vals[0]), math.Abs(vals[len(vals)-1])), nil
}
