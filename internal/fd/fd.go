// Package fd implements the Frequent Directions matrix sketch of Liberty
// (KDD'13) with the improved analysis of Ghashami–Phillips (SODA'14), the
// deterministic building block of the paper (§2, Theorem 1):
//
// Given A ∈ R^{n×d}, FD maintains in one pass over the rows a sketch
// B ∈ R^{ℓ×d} using O(ℓd) working space such that, for every k < ℓ,
//
//	‖AᵀA − BᵀB‖₂ ≤ ‖A − [A]_k‖F² / (ℓ − k).
//
// Choosing ℓ = k + ⌈k/ε⌉ yields an (ε,k)-sketch in the paper's sense.
// FD sketches are mergeable (Agarwal et al., TODS'13): feeding the rows of
// two sketches into a fresh sketch preserves the guarantee, which is exactly
// the deterministic distributed algorithm of Theorem 2.
//
// The implementation uses the standard doubling buffer: rows accumulate in a
// buffer of bufferRows ≥ ℓ+1 rows; when full, one shrink reduces the
// spectrum by δ = σ_{ℓ+1}² (squared (ℓ+1)-st singular value), zeroing all
// but at most ℓ rows, in Liberty's covariance form: σ² and V come off the
// Gram of the buffer's smaller side (linalg.RightFactor). Each shrink adds
// at most δ to the covariance error and removes at least (ℓ+1)·δ of
// Frobenius mass, which gives the bound above.
//
// The shrink rule is α-FD with a single parameter Options.Alpha ∈ (0,1]
// (Desai–Ghashami–Phillips): only the bottom ⌈αℓ⌉ retained directions absorb
// δ, and the a-priori bound becomes ‖A‖F²/(⌈αℓ⌉+1). The default α = 1 is the
// rule above. Every α keeps the mass-drain argument, so every sketch this
// package builds is mergeable, and TotalShrinkage/ErrorBound stay valid
// certificates at any α.
package fd

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/linalg"
	"repro/internal/matrix"
	"repro/internal/obs"
)

// Sketch is a streaming Frequent Directions sketch. It is not safe for
// concurrent use.
type Sketch struct {
	d          int
	ell        int
	bufferRows int
	alpha      float64 // resolved shrink parameter, in (0,1]
	buf        *matrix.Dense
	agg        linalg.RightFactor // reused across shrinks
	sig2       []float64          // reused shrunk-spectrum scratch
	used       int
	obs        *obs.Observer

	shrinks    int
	totalDelta float64 // Σ δ_i — an a-posteriori certificate for the error
	inputFrob2 float64
	inputRows  int
	err        error // latched shrink failure
}

// Options configures a Sketch beyond the required (d, ℓ).
type Options struct {
	// BufferRows sets the in-memory buffer size. 0 selects the 2ℓ doubling
	// buffer; any other value must be at least ℓ+1 — a smaller positive
	// value is a configuration error and panics, since a buffer below ℓ+1
	// cannot hold even one row beyond the sketch and would have to be
	// silently reinterpreted. Larger buffers mean fewer,
	// larger shrinks with identical guarantees; ℓ+1 reproduces Liberty's
	// original one-row-at-a-time shrink schedule.
	BufferRows int
	// Alpha is the shrink rule's α ∈ (0,1]: the fraction of the ℓ retained
	// directions that absorb each shrink's δ (see CheckAlpha and Rule). 0
	// means 1, the classic FD shrink; New panics on any other value outside
	// (0,1].
	Alpha float64
	// Obs records each shrink (count, δ, rows shrunk) on the observability
	// layer; nil falls back to the process-wide obs.Default(). Either way a
	// shrink allocates a constant count (TestShrinkAllocsConstant: ≤ 24).
	Obs *obs.Observer
}

// New returns a sketch of dimension d producing at most ell rows. It panics
// on non-positive dimensions, on a BufferRows that is positive but below
// ℓ+1 (see Options.BufferRows), and on an Alpha outside (0,1].
func New(d, ell int, opts Options) *Sketch {
	if d <= 0 || ell <= 0 {
		panic(fmt.Sprintf("fd: invalid dimensions d=%d ell=%d", d, ell))
	}
	if err := CheckAlpha(opts.Alpha); err != nil {
		panic(err.Error())
	}
	alpha := opts.Alpha
	if alpha == 0 {
		alpha = 1
	}
	br := opts.BufferRows
	if br == 0 {
		br = 2 * ell
	} else if br < ell+1 {
		panic(fmt.Sprintf("fd: BufferRows=%d below minimum ℓ+1=%d", br, ell+1))
	}
	return &Sketch{d: d, ell: ell, bufferRows: br, alpha: alpha, buf: matrix.New(br, d), obs: opts.Obs}
}

// SketchSize returns the number of rows ℓ for an (ε,k)-sketch:
// ℓ = k + ⌈k/ε⌉, so that ‖A−[A]_k‖F²/(ℓ−k) ≤ ε‖A−[A]_k‖F²/k (Theorem 1).
// k = 0 is the paper's (ε,0) convention with guarantee ε‖A‖F², which needs
// ℓ = ⌈1/ε⌉.
func SketchSize(eps float64, k int) int {
	if eps <= 0 || eps >= 1 {
		panic(fmt.Sprintf("fd: epsilon %v out of (0,1)", eps))
	}
	if k < 0 {
		panic(fmt.Sprintf("fd: negative k=%d", k))
	}
	if k == 0 {
		return int(math.Ceil(1 / eps))
	}
	return k + int(math.Ceil(float64(k)/eps))
}

// NewEpsK returns a sketch guaranteeing the paper's (ε,k)-sketch bound
// ‖AᵀA−BᵀB‖₂ ≤ ε‖A−[A]_k‖F²/k (or ε‖A‖F² for k=0).
func NewEpsK(d int, eps float64, k int) *Sketch {
	return New(d, SketchSize(eps, k), Options{})
}

// Dim returns the row dimension d.
func (s *Sketch) Dim() int { return s.d }

// Ell returns the maximum number of sketch rows ℓ.
func (s *Sketch) Ell() int { return s.ell }

// WorkingSpaceRows returns the buffer size in rows, the O(ℓ) = O(k/ε)
// working-space figure of Theorem 1 (total space is this times d).
func (s *Sketch) WorkingSpaceRows() int { return s.bufferRows }

// Shrinks returns how many shrink steps have run.
func (s *Sketch) Shrinks() int { return s.shrinks }

// TotalShrinkage returns the accumulated per-shrink error charges Σ δ_i, a
// deterministic upper bound on the covariance error of the current sketch
// with respect to everything fed in — valid at every α, since each charge
// bounds that shrink's spectral-norm change.
func (s *Sketch) TotalShrinkage() float64 { return s.totalDelta }

// InputRows returns the number of rows fed in so far.
func (s *Sketch) InputRows() int { return s.inputRows }

// InputFrob2 returns the squared Frobenius norm of the input so far.
func (s *Sketch) InputFrob2() float64 { return s.inputFrob2 }

// Err returns the first shrink failure encountered, if any.
func (s *Sketch) Err() error { return s.err }

// errNorm2 rejects a row whose squared norm would poison every later shrink.
var errNorm2 = errors.New("fd: row has a NaN or Inf entry, or its squared norm overflows float64")

// Update feeds one row into the sketch. A row whose squared norm is not
// finite is rejected (errNorm2).
func (s *Sketch) Update(row []float64) error {
	if len(row) != s.d {
		panic(fmt.Sprintf("fd: row length %d != d=%d", len(row), s.d))
	}
	if s.err != nil {
		return s.err
	}
	n2 := matrix.Norm2(row)
	if math.IsNaN(n2) || math.IsInf(n2, 0) {
		return errNorm2
	}
	if s.used == s.bufferRows {
		if err := s.shrink(); err != nil {
			return err
		}
	}
	s.buf.SetRow(s.used, row)
	s.used++
	s.inputRows++
	s.inputFrob2 += n2
	return nil
}

// UpdateSparse feeds one sparse row into the sketch. The buffer itself is
// dense (FD's state is inherently dense after the first shrink), but the
// insert costs O(d) zeroing plus O(nnz) scatter.
func (s *Sketch) UpdateSparse(row *matrix.SparseVector) error {
	if row.Len != s.d {
		panic(fmt.Sprintf("fd: sparse row length %d != d=%d", row.Len, s.d))
	}
	if s.err != nil {
		return s.err
	}
	n2 := row.Norm2()
	if math.IsNaN(n2) || math.IsInf(n2, 0) {
		return errNorm2
	}
	if s.used == s.bufferRows {
		if err := s.shrink(); err != nil {
			return err
		}
	}
	dst := s.buf.Row(s.used)
	for i := range dst {
		dst[i] = 0
	}
	row.AddTo(dst, 1)
	s.used++
	s.inputRows++
	s.inputFrob2 += n2
	return nil
}

// UpdateSparseMatrix feeds every row of m into the sketch.
func (s *Sketch) UpdateSparseMatrix(m *matrix.Sparse) error {
	r, c := m.Dims()
	if c != s.d {
		panic(fmt.Sprintf("fd: sparse matrix cols %d != d=%d", c, s.d))
	}
	for i := 0; i < r; i++ {
		if err := s.UpdateSparse(m.Row(i)); err != nil {
			return err
		}
	}
	return nil
}

// UpdateMatrix feeds every row of m into the sketch.
func (s *Sketch) UpdateMatrix(m *matrix.Dense) error {
	r, c := m.Dims()
	if c != s.d {
		panic(fmt.Sprintf("fd: matrix cols %d != d=%d", c, s.d))
	}
	for i := 0; i < r; i++ {
		if err := s.Update(m.Row(i)); err != nil {
			return err
		}
	}
	return nil
}

// shrink reduces the buffer to at most ℓ rows under the sketch's α:
// shrinkSpectrum maps agg(B)'s λ_j to σ'²_j, and row j of agg(B) is scaled
// by √(σ'²_j/λ_j). Its allocation count is constant whatever ℓ and d.
func (s *Sketch) shrink() error {
	agg := &s.agg
	if err := agg.Factor(s.buf.SliceRows(0, s.used)); err != nil {
		s.err = fmt.Errorf("fd: shrink: %w", err)
		return s.err
	}
	// sig2 is in the factor's prescaled units; charge and weights are not.
	sig2 := append(s.sig2[:0], agg.Lambda...)
	s.sig2 = sig2
	charge := math.Ldexp(shrinkSpectrum(sig2, s.ell, s.alpha), 2*agg.Exp)
	out := 0
	for ; out < len(sig2) && sig2[out] > 0; out++ { // non-increasing: the rest is zero
		agg.Row(s.buf.Row(out), out, math.Ldexp(math.Sqrt(sig2[out]), agg.Exp))
	}
	for i := out; i < s.used; i++ {
		clear(s.buf.Row(i))
	}
	shrunk := s.used
	s.used = out
	s.shrinks++
	ob := s.obs
	if ob == nil {
		ob = obs.Default()
	}
	ob.FDShrink(shrunk, charge)
	s.totalDelta += charge
	return nil
}

// Matrix returns the current sketch B with at most ℓ non-zero rows,
// shrinking first if the buffer holds more than ℓ rows. The result is a
// copy; the sketch remains usable for further updates.
func (s *Sketch) Matrix() (*matrix.Dense, error) {
	if s.err != nil {
		return nil, s.err
	}
	if s.used > s.ell {
		if err := s.shrink(); err != nil {
			return nil, err
		}
	}
	return s.buf.CopyRows(0, s.used), nil
}

// Snapshot returns the current sketch matrix (at most ℓ non-zero rows)
// without mutating s: when the buffer holds more than ℓ rows, the shrink
// runs on a private copy, leaving s's buffer, certificate (Shrinks,
// TotalShrinkage) and accounting untouched.
func (s *Sketch) Snapshot() (*matrix.Dense, error) {
	if s.err != nil {
		return nil, s.err
	}
	if s.used <= s.ell {
		return s.buf.CopyRows(0, s.used), nil
	}
	tmp := &Sketch{
		d: s.d, ell: s.ell, bufferRows: s.bufferRows, alpha: s.alpha,
		buf: s.buf.CopyRows(0, s.bufferRows), used: s.used,
		obs: s.obs,
	}
	if err := tmp.shrink(); err != nil {
		return nil, err
	}
	return tmp.buf.CopyRows(0, tmp.used), nil
}

// Merge feeds the rows of other's current sketch into s (FD mergeability).
// Both sketches must share the same dimension d. other is never mutated (a
// pending shrink of its buffer runs on a private copy — see Snapshot), and
// on error s's input accounting is rolled back to its pre-merge values, so
// a failed merge never leaves the certificate counters corrupted. The two
// sketches may use different α: each shrink still drains its own share of
// the one mass budget, so the merge keeps the bound of the smaller α.
func (s *Sketch) Merge(other *Sketch) error {
	if other.d != s.d {
		panic(fmt.Sprintf("fd: merge dimension mismatch %d vs %d", s.d, other.d))
	}
	if s.err != nil {
		return s.err
	}
	m, err := other.Snapshot()
	if err != nil {
		return err
	}
	preRows, preFrob2 := s.inputRows, s.inputFrob2
	if err := s.UpdateMatrix(m); err != nil {
		s.inputRows, s.inputFrob2 = preRows, preFrob2
		return err
	}
	// UpdateMatrix counted the ℓ sketch rows; track other's real input.
	s.inputRows = preRows + other.inputRows
	s.inputFrob2 = preFrob2 + other.inputFrob2
	return nil
}

// SketchMatrix computes an FD sketch of a with ℓ rows in one call.
func SketchMatrix(a *matrix.Dense, ell int) (*matrix.Dense, error) {
	_, d := a.Dims()
	s := New(d, ell, Options{})
	if err := s.UpdateMatrix(a); err != nil {
		return nil, err
	}
	return s.Matrix()
}

// SketchEpsK computes an (ε,k)-sketch of a via FD (Theorem 1).
func SketchEpsK(a *matrix.Dense, eps float64, k int) (*matrix.Dense, error) {
	return SketchMatrix(a, SketchSize(eps, k))
}

// ErrorBound returns the a-posteriori certificate on the covariance error
// of the current sketch: min(TotalShrinkage, InputFrob2). TotalShrinkage is
// the sum of per-shrink charges, each bounding that shrink's spectral-norm
// change, so their sum bounds ‖AᵀA − BᵀB‖₂ by the triangle inequality. On
// adversarial streams Σδ can exceed the total input mass ‖A‖F², which is
// itself always an upper bound (shrinks never grow the covariance, so
// 0 ≼ AᵀA − BᵀB ≼ AᵀA ≼ ‖A‖F²·I); hence the minimum of the two is the
// certificate. The a-priori bound ‖A−[A]_k‖F²/(ℓ−k) requires knowing
// the input's tail energy; this helper exposes what the sketch can prove
// about itself from the stream alone.
func (s *Sketch) ErrorBound() float64 {
	if s.inputFrob2 < s.totalDelta {
		return s.inputFrob2
	}
	return s.totalDelta
}
