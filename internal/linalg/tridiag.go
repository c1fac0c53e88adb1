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
// for the reduction with a much smaller constant than cyclic Jacobi, and
// O(n²) for the QL phase. It is the fast path behind spectral-norm
// measurements on the larger benchmark dimensions.
func EigenvaluesSym(s *matrix.Dense) ([]float64, error) {
	n, c := s.Dims()
	if n != c {
		panic(fmt.Sprintf("linalg: EigenvaluesSym of non-square %d×%d", n, c))
	}
	if n == 0 {
		return nil, nil
	}
	diag, off := tridiagonalize(s)
	if err := qlImplicit(diag, off); err != nil {
		return nil, err
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(diag)))
	return diag, nil
}

// tridiagonalize reduces a symmetric matrix to tridiagonal form by
// Householder reflections (values-only variant of Numerical Recipes tred2),
// returning the diagonal and subdiagonal.
func tridiagonalize(s *matrix.Dense) (diag, off []float64) {
	n, _ := s.Dims()
	a := s.Clone()
	diag = make([]float64, n)
	off = make([]float64, n)
	for i := n - 1; i >= 1; i-- {
		l := i - 1
		h, scale := 0.0, 0.0
		if l > 0 {
			for k := 0; k <= l; k++ {
				scale += math.Abs(a.At(i, k))
			}
			if scale == 0 {
				off[i] = a.At(i, l)
			} else {
				for k := 0; k <= l; k++ {
					v := a.At(i, k) / scale
					a.Set(i, k, v)
					h += v * v
				}
				f := a.At(i, l)
				g := math.Sqrt(h)
				if f > 0 {
					g = -g
				}
				off[i] = scale * g
				h -= f * g
				a.Set(i, l, f-g)
				f = 0
				for j := 0; j <= l; j++ {
					g := 0.0
					for k := 0; k <= j; k++ {
						g += a.At(j, k) * a.At(i, k)
					}
					for k := j + 1; k <= l; k++ {
						g += a.At(k, j) * a.At(i, k)
					}
					off[j] = g / h
					f += off[j] * a.At(i, j)
				}
				hh := f / (h + h)
				for j := 0; j <= l; j++ {
					f := a.At(i, j)
					g := off[j] - hh*f
					off[j] = g
					for k := 0; k <= j; k++ {
						a.Set(j, k, a.At(j, k)-f*off[k]-g*a.At(i, k))
					}
				}
			}
		} else {
			off[i] = a.At(i, l)
		}
		diag[i] = h
	}
	off[0] = 0
	for i := 0; i < n; i++ {
		diag[i] = a.At(i, i)
	}
	return diag, off
}

// qlImplicit runs the implicit-shift QL iteration on a tridiagonal matrix
// given by diag (modified in place to the eigenvalues) and off (the
// subdiagonal, off[0] unused).
func qlImplicit(diag, off []float64) error {
	n := len(diag)
	if n == 0 {
		return nil
	}
	// Shift the subdiagonal for convenient indexing: e[i] couples i and i+1.
	e := make([]float64, n)
	copy(e, off[1:])
	const maxIter = 60
	for l := 0; l < n; l++ {
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
					diag[i+1] -= p
					e[m] = 0
					break
				}
				s = f / r
				c = g / r
				g = diag[i+1] - p
				r = (diag[i]-g)*s + 2*c*b
				p = s * r
				diag[i+1] = g + p
				g = c*r - b
			}
			diag[l] -= p
			e[l] = g
			e[m] = 0
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
