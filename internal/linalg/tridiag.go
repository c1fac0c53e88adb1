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

// RightFactor is agg(A) = Σ·Vᵀ of an n×d matrix A (§3.1), row j = σ_j·v_jᵀ
// for j < r = min(n,d): every sketch row the FD shrink, SVS, Decomp, PCA and
// the exact protocol emit. Factor eigendecomposes the Gram of A's smaller
// side, AᵀA (the v_j) or AAᵀ (the u_j, v_j = Aᵀu_j/σ_j); squaring loses
// accuracy only below √(max(n,d)·u)·σ₁, where the cutoff zeroes λ_j. The
// zero value is ready; reusing one allocates a constant count per Factor.
type RightFactor struct {
	// Lambda holds λ_j = σ_j²·4^−Exp in non-increasing order, r entries;
	// λ_j ≤ max(n,m)·u·λ₁ (an m×m Gram's rounding noise) is exactly 0.
	Lambda []float64
	// Exp is the prescale: Factor works on Ā = 2^−Exp·A, Exp ≠ 0 only when
	// max|a_ij| ∉ [2^−400, 2^400], where AᵀA would leave the normal range.
	// A power of two rounds nothing there and the eigensolver is
	// equivariant under it, so normally scaled results keep every bit.
	Exp int

	d    int
	vecs *matrix.Dense // v_j in columns (d×r); u_j (n×n) when wide is set
	wide *matrix.Dense // Ā when A is wide; it aliases buf
	buf  matrix.Dense  // Ā's reused backing
}

// prescaleExp bounds the exponent of max|a_ij| squared as it is: AᵀA then
// neither overflows nor underflows a product above u·λ₁·2^−170.
const prescaleExp = 400

// Factor computes agg(a). a is neither modified nor retained.
func (f *RightFactor) Factor(a *matrix.Dense) error {
	n, d := a.Dims()
	f.Exp = 0
	if _, e := math.Frexp(a.MaxAbs()); e < -prescaleExp || e > prescaleExp {
		f.Exp = e
	}
	data := append(f.buf.Data()[:0], a.Data()...) // Ā, in a reused buffer
	if f.Exp != 0 {
		for i, x := range data {
			data[i] = math.Ldexp(x, -f.Exp)
		}
	}
	f.buf.Reuse(n, d, data)
	if n >= d {
		return f.fromGram(f.buf.Gram(), n, nil)
	}
	return f.fromGram(f.buf.MulT(&f.buf), n, &f.buf)
}

// FactorGram computes agg(A) for an A with n rows known only through its
// Gram g = AᵀA, which determines agg(A). Only g's lower triangle is read.
func (f *RightFactor) FactorGram(g *matrix.Dense, n int) error {
	f.Exp = 0
	return f.fromGram(g, n, nil)
}

// fromGram eigendecomposes the m×m Gram s of a matrix with n rows (ĀᵀĀ, or
// ĀĀᵀ with wide set to Ā) and keeps r = min(n,m) pairs under the cutoff.
func (f *RightFactor) fromGram(s *matrix.Dense, n int, wide *matrix.Dense) error {
	m := s.Rows()
	f.d, f.wide, f.vecs, f.Lambda = m, wide, nil, nil
	if wide != nil {
		f.d = wide.Cols()
	}
	r := min(n, m)
	if r == 0 {
		return nil
	}
	e, err := ComputeEigSym(s)
	if err != nil {
		return err
	}
	f.vecs, f.Lambda = e.V, e.Values[:r]
	tol := float64(max(n, m)) * 0x1p-52 * f.Lambda[0]
	for j, l := range f.Lambda {
		if l <= tol {
			f.Lambda[j] = 0
		}
	}
	return nil
}

// RightFactor returns agg(A) read off this SVD, without the cutoff.
func (s *SVD) RightFactor() *RightFactor {
	f := &RightFactor{d: s.V.Rows(), vecs: s.V}
	for _, x := range s.Sigma {
		f.Lambda = append(f.Lambda, x*x)
	}
	return f
}

// Sigma returns σ_j in A's units.
func (f *RightFactor) Sigma(j int) float64 { return math.Ldexp(math.Sqrt(f.Lambda[j]), f.Exp) }

// Rank returns the number of positive λ_j.
func (f *RightFactor) Rank() int {
	r := 0
	for r < len(f.Lambda) && f.Lambda[r] > 0 {
		r++
	}
	return r
}

// Row writes w·v_jᵀ into dst (length d): w = c·σ_j gives c times row
// j of agg(A), w = 1 the right singular vector. A wide A has no v_j where
// σ_j = 0; dst is then zero.
func (f *RightFactor) Row(dst []float64, j int, w float64) {
	if f.wide == nil {
		for l := range dst {
			dst[l] = w * f.vecs.At(l, j)
		}
		return
	}
	clear(dst)
	if w == 0 || f.Lambda[j] == 0 {
		return
	}
	// √Lambda[j] = 2^−Exp·σ_j, so c·Ā = (w/σ_j)·A.
	c := w / math.Sqrt(f.Lambda[j])
	for i := 0; i < f.wide.Rows(); i++ {
		if x := c * f.vecs.At(i, j); x != 0 {
			for l, y := range f.wide.Row(i) {
				dst[l] += x * y
			}
		}
	}
}

// Rows returns rows [from, to) of agg(A) as a new matrix.
func (f *RightFactor) Rows(from, to int) *matrix.Dense {
	out := matrix.New(to-from, f.d)
	for j := from; j < to; j++ {
		f.Row(out.Row(j-from), j, f.Sigma(j))
	}
	return out
}
