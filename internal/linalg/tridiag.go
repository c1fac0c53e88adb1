package linalg

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/matrix"
)

// EigenvaluesSym returns the eigenvalues of a symmetric matrix in
// non-increasing order, without eigenvectors, via Householder
// tridiagonalization followed by the implicit-shift QL iteration — O(n³)
// for the reduction and O(n²) for the QL phase. It is the fast path behind
// spectral-norm measurements on the larger benchmark dimensions. Only the
// lower triangle is read. RightFactor runs the same two phases, recording
// the rotations for its eigenvectors, and gets bit-identical eigenvalues.
func EigenvaluesSym(s *matrix.Dense) ([]float64, error) {
	n, c := s.Dims()
	if n != c {
		panic(fmt.Sprintf("linalg: EigenvaluesSym of non-square %d×%d", n, c))
	}
	if n == 0 {
		return nil, nil
	}
	diag, off, _ := tridiagonalize(s.Clone())
	if err := qlImplicit(diag, off, nil); err != nil {
		return nil, err
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(diag)))
	return diag, nil
}

// symEig is the eigendecomposition S = V·diag(values)·Vᵀ of a symmetric
// m×m matrix in two phases. factor reduces S to tridiagonal form without
// accumulating Q, keeping the Householder vectors, and runs the values-only
// QL while recording its rotations, so every λ is EigenvaluesSym's, bit for
// bit. vectors then builds only the v_j a caller asks for: it replays the
// record backwards on e_j and applies the reflectors. The rotations are the
// ones a full accumulation applies, so the accuracy is the same, and each
// v_j is computed alone: any subset is bit-identical to the same vectors of
// a full request.
type symEig struct {
	values []float64     // λ in non-increasing order
	order  []int         // order[j]: the QL index of values[j]
	a      *matrix.Dense // reflector i's u_i in row i, columns < i
	h      []float64     // reflector i is I − u_i·u_iᵀ/h_i; 0 where there is none
	rot    rotations
}

// factor computes the eigenvalues of s and keeps what vectors needs. Only
// the lower triangle of s is read, and s is overwritten.
func (e *symEig) factor(s *matrix.Dense) error {
	m, c := s.Dims()
	if m != c {
		panic(fmt.Sprintf("linalg: eigendecomposition of non-square %d×%d", m, c))
	}
	e.values, e.order = e.values[:0], e.order[:0]
	if m == 0 {
		return nil
	}
	diag, off, h := tridiagonalize(s)
	e.a, e.h = s, h
	// 0.95–1.08·m² rotations on the FD and SVS Grams, two trailer words
	// per sweep: one allocation almost always suffices.
	e.rot = make(rotations, 0, m*m+m*m/8+8*m)
	if err := qlImplicit(diag, off, &e.rot); err != nil {
		e.release()
		return err
	}
	for i := range diag {
		e.order = append(e.order, i)
	}
	slices.SortStableFunc(e.order, func(i, j int) int { return cmp.Compare(diag[j], diag[i]) })
	for _, i := range e.order {
		e.values = append(e.values, diag[i])
	}
	return nil
}

// release drops the reflectors and the rotation record; values stay.
func (e *symEig) release() { e.a, e.h, e.rot = nil, nil, nil }

// vectors writes v_{js[i]}ᵀ into row i of z (len(js)×m). With Qᵀ·S·Q = T
// for Q = P_{m−1}⋯P_1 and the QL rotations R_1, …, R_K diagonalizing T,
// v_j = Q·R_1ᵀ⋯R_Kᵀ·e_{order[j]}: the record is replayed backwards, then
// P_1, …, P_{m−1} are applied in turn, on an m×len(js) block whose row i
// holds coordinate i of every requested vector. z is written last, so it
// may reuse the reflectors' storage.
func (e *symEig) vectors(z *matrix.Dense, js []int) {
	w := len(js)
	if w == 0 {
		return
	}
	m := len(e.h)
	y := make([]float64, m*w)
	for c, j := range js {
		y[e.order[j]*w+c] = 1
	}
	for end := len(e.rot); end > 0; {
		top, k := int(e.rot[end-2]), int(e.rot[end-1])
		end -= k + 2
		// Backwards, rotation q of the sweep (rows top−q, top−q+1) runs
		// last-to-first and with s negated.
		for q := k - 1; q >= 0; q-- {
			c, s := decodeRot(e.rot[end+q])
			i := (top - q) * w
			rotateRows(y[i:i+w], y[i+w:i+2*w], c, -s)
		}
	}
	ad := e.a.Data()
	t := make([]float64, w)
	for i, h := range e.h {
		if h == 0 {
			continue
		}
		u := ad[i*m : i*m+i]
		clear(t)
		for k, uk := range u {
			axpy(t, uk, y[k*w:(k+1)*w])
		}
		for k, uk := range u {
			axpy(y[k*w:(k+1)*w], -uk/h, t)
		}
	}
	zd := z.Data()
	for i := 0; i < m; i++ {
		for c, v := range y[i*w : (i+1)*w] {
			zd[c*m+i] = v
		}
	}
}

// rotations records the QL's Givens rotations for a backward replay: each
// sweep's rotations, one number each (encodeRot), then a trailer holding
// the row of the sweep's first rotation and the sweep's count.
type rotations []float64

// encodeRot stores the rotation (c, s), c² + s² = 1, as the tangent t of
// its half angle, computed on the side without cancellation: s/(1+c) for
// c ≥ 0, else (1−c)/s (±Inf at s = 0).
func encodeRot(c, s float64) float64 {
	if c >= 0 {
		return s / (1 + c)
	}
	return (1 - c) / s
}

// decodeRot inverts encodeRot to rounding: c = (1−t²)/(1+t²) and
// s = 2t/(1+t²), through 1/t when |t| > 1.
func decodeRot(t float64) (c, s float64) {
	if math.Abs(t) <= 1 {
		t2 := t * t
		d := 1 / (1 + t2)
		return (1 - t2) * d, 2 * t * d
	}
	u := 1 / t
	u2 := u * u
	d := 1 / (1 + u2)
	return (u2 - 1) * d, 2 * u * d
}

// tridiagonalize reduces a symmetric matrix to tridiagonal form in place by
// Householder reflections (Numerical Recipes tred2, without accumulating
// Q), returning the diagonal, the subdiagonal and h. Only the lower
// triangle of a is read. Reflector i (h_i ≠ 0) is P_i = I − u_i·u_iᵀ/h_i
// with u_i left in row i, columns < i, and Qᵀ·A·Q is the tridiagonal for
// Q = P_{n−1}⋯P_1.
func tridiagonalize(a *matrix.Dense) (diag, off, h []float64) {
	n, _ := a.Dims()
	ad := a.Data()
	diag = make([]float64, n)
	off = make([]float64, n)
	h = make([]float64, n)
	for i := n - 1; i >= 1; i-- {
		l := i - 1
		ri := ad[i*n : i*n+i] // the lower part of row i, columns 0..l
		hi, scale := 0.0, 0.0
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
					hi += v * v
				}
				f := ri[l]
				g := math.Sqrt(hi)
				if f > 0 {
					g = -g
				}
				off[i] = scale * g
				hi -= f * g
				ri[l] = f - g
				f = 0
				for j := 0; j <= l; j++ {
					g := 0.0
					rj := ad[j*n : j*n+j+1]
					for k, v := range rj {
						g += v * ri[k]
					}
					for k := j + 1; k <= l; k++ {
						g += ad[k*n+j] * ri[k]
					}
					off[j] = g / hi
					f += off[j] * ri[j]
				}
				hh := f / (hi + hi)
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
		h[i] = hi
	}
	off[0] = 0
	for i := 0; i < n; i++ {
		diag[i] = ad[i*n+i]
	}
	return diag, off, h
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
// subdiagonal, off[0] unused). When rec is non-nil every rotation is
// appended to it, each sweep closed by its trailer. Non-convergence and a
// non-finite result (a NaN or Inf input) are ErrNoConvergence.
func qlImplicit(diag, off []float64, rec *rotations) error {
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
			k := 0 // rotations this sweep has recorded
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
					rec.endSweep(m-1, k)
					continue iterate
				}
				s = f / r
				c = g / r
				g = diag[i+1] - p
				r = (diag[i]-g)*s + 2*c*b
				p = s * r
				diag[i+1] = g + p
				g = c*r - b
				if rec != nil {
					*rec = append(*rec, encodeRot(c, s))
					k++
				}
			}
			rec.endSweep(m-1, k)
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

// endSweep closes a sweep of k rotations, its first on rows top, top+1. A
// nil record and an empty sweep are left alone.
func (rec *rotations) endSweep(top, k int) {
	if rec != nil && k > 0 {
		*rec = append(*rec, float64(top), float64(k))
	}
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
// accuracy only below √(max(n,d)·u)·σ₁, where the cutoff zeroes λ_j.
// Factor yields every λ_j; the eigenvectors are built on request, by one
// Rows call for just the rows the caller reads. The zero value is ready;
// reusing one allocates a constant count per Factor, and keeps nothing
// between calls beyond Ā and the λ_j.
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
	eig  symEig        // of the Gram; v_j (tall) or u_j (wide) on request
	wide *matrix.Dense // Ā when A is wide; it aliases buf
	buf  matrix.Dense  // Ā's reused backing
	v    *matrix.Dense // v_j in columns, when read off a Jacobi SVD
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
// Gram g = AᵀA, which determines agg(A). Only g's lower triangle is read;
// g is not modified.
func (f *RightFactor) FactorGram(g *matrix.Dense, n int) error {
	f.Exp = 0
	return f.fromGram(g.Clone(), n, nil)
}

// fromGram eigendecomposes the m×m Gram s of a matrix with n rows (ĀᵀĀ, or
// ĀĀᵀ with wide set to Ā), overwriting s, and keeps r = min(n,m) values
// under the cutoff.
func (f *RightFactor) fromGram(s *matrix.Dense, n int, wide *matrix.Dense) error {
	m := s.Rows()
	f.d, f.wide, f.v, f.Lambda = m, wide, nil, nil
	f.eig.release()
	if wide != nil {
		f.d = wide.Cols()
	}
	r := min(n, m)
	if r == 0 {
		return nil
	}
	if err := f.eig.factor(s); err != nil {
		return err
	}
	f.Lambda = f.eig.values[:r]
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
	f := &RightFactor{d: s.V.Rows(), v: s.V}
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

// Rows writes w[i]·v_jᵀ, j = js[i], into row i of dst (len(js)×d): w[i] =
// c·σ_j gives c times row j of agg(A), w[i] = 1 the right singular vector.
// A wide A has no v_j where σ_j = 0; that row is then zero. Only the
// requested v_j are built, each bit-identical to the same row of any other
// request. Rows is the factorization's one vector pass: it releases the
// reflectors and the rotation record, so it runs once per Factor. dst may
// share storage with the matrix Factor read.
func (f *RightFactor) Rows(dst *matrix.Dense, js []int, w []float64) {
	if f.v != nil {
		for i, j := range js {
			row := dst.Row(i)
			for l := range row {
				row[l] = w[i] * f.v.At(l, j)
			}
		}
		return
	}
	if len(js) == 0 {
		f.eig.release()
		return
	}
	if f.eig.a == nil {
		panic("linalg: RightFactor.Rows without a Factor since the last call")
	}
	if f.wide == nil {
		f.eig.vectors(dst, js)
		for i := range js {
			matrix.ScaleVec(dst.Row(i), w[i])
		}
	} else {
		// √Lambda[j] = 2^−Exp·σ_j, so (w/σ_j)·Aᵀu_j = (w/√Lambda[j])·Āᵀu_j.
		// The u_j take the reflectors' storage when they fit in it.
		m := f.wide.Rows()
		buf := f.eig.a.Data()
		if len(js)*m > len(buf) {
			buf = make([]float64, len(js)*m)
		}
		u := matrix.NewFromData(len(js), m, buf[:len(js)*m])
		f.eig.vectors(u, js)
		for i, j := range js {
			c := 0.0
			if w[i] != 0 && f.Lambda[j] != 0 {
				c = w[i] / math.Sqrt(f.Lambda[j])
			}
			matrix.ScaleVec(u.Row(i), c)
		}
		u.MulInto(dst, f.wide)
	}
	f.eig.release()
}

// Top returns rows [0, k) of agg(A) as a new matrix.
func (f *RightFactor) Top(k int) *matrix.Dense {
	out := matrix.New(k, f.d)
	js, w := make([]int, k), make([]float64, k)
	for j := range js {
		js[j], w[j] = j, f.Sigma(j)
	}
	f.Rows(out, js, w)
	return out
}
