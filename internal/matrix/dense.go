// Package matrix provides a from-scratch dense matrix type and the basic
// linear-algebra operations needed by the sketching algorithms in this
// repository: multiplication (including Gram products), row stacking,
// slicing, scaling, and norms.
//
// Matrices are stored row-major, matching the paper's row-partitioned data
// model: a server's input is a set of rows, a sketch is a (much shorter) set
// of rows, and communication cost is counted in matrix entries ("words").
//
// Dimension mismatches are programming errors and panic, following the
// convention of the standard library (e.g. slice bounds). Numerical failures
// (non-convergence) are reported as errors by the linalg package instead.
package matrix

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/parallel"
)

// Dense is a dense row-major matrix.
//
// The zero value is an empty 0×0 matrix ready to use with Stack / AppendRow.
type Dense struct {
	rows, cols int
	data       []float64
}

// New returns a zeroed r×c matrix.
func New(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("matrix: negative dimension %d×%d", r, c))
	}
	return &Dense{rows: r, cols: c, data: make([]float64, r*c)}
}

// NewFromData wraps data (row-major, length r*c) without copying.
func NewFromData(r, c int, data []float64) *Dense {
	if len(data) != r*c {
		panic(fmt.Sprintf("matrix: data length %d != %d×%d", len(data), r, c))
	}
	return &Dense{rows: r, cols: c, data: data}
}

// Reuse repoints m to an r×c matrix over data (row-major, length r·c)
// without allocating a new header. It exists for pooling codecs — comm's
// zero-alloc Decode recycles Dense headers together with their backing
// slices — and ordinary callers should use New or NewFromData instead.
// The previous backing slice is abandoned.
func (m *Dense) Reuse(r, c int, data []float64) {
	if r < 0 || c < 0 || len(data) != r*c {
		panic(fmt.Sprintf("matrix: Reuse %d×%d over %d values", r, c, len(data)))
	}
	m.rows, m.cols, m.data = r, c, data
}

// NewFromRows builds a matrix by copying the given rows, which must all have
// equal length. An empty input yields a 0×0 matrix.
func NewFromRows(rows [][]float64) *Dense {
	if len(rows) == 0 {
		return &Dense{}
	}
	c := len(rows[0])
	m := New(len(rows), c)
	for i, r := range rows {
		if len(r) != c {
			panic(fmt.Sprintf("matrix: ragged rows: row 0 has %d cols, row %d has %d", c, i, len(r)))
		}
		copy(m.data[i*c:(i+1)*c], r)
	}
	return m
}

// Diag returns a square diagonal matrix whose diagonal is v.
func Diag(v []float64) *Dense {
	n := len(v)
	m := New(n, n)
	for i, x := range v {
		m.data[i*n+i] = x
	}
	return m
}

// Dims returns the number of rows and columns.
func (m *Dense) Dims() (r, c int) { return m.rows, m.cols }

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// At returns the (i,j) entry.
func (m *Dense) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the (i,j) entry.
func (m *Dense) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Dense) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("matrix: index (%d,%d) out of range %d×%d", i, j, m.rows, m.cols))
	}
}

// Row returns row i as a slice sharing the matrix's backing storage.
// Mutating the slice mutates the matrix.
func (m *Dense) Row(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("matrix: row %d out of range %d", i, m.rows))
	}
	return m.data[i*m.cols : (i+1)*m.cols]
}

// SetRow copies v into row i.
func (m *Dense) SetRow(i int, v []float64) {
	if len(v) != m.cols {
		panic(fmt.Sprintf("matrix: SetRow length %d != %d cols", len(v), m.cols))
	}
	copy(m.Row(i), v)
}

// Col returns a copy of column j.
func (m *Dense) Col(j int) []float64 {
	if j < 0 || j >= m.cols {
		panic(fmt.Sprintf("matrix: col %d out of range %d", j, m.cols))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = m.data[i*m.cols+j]
	}
	return out
}

// SetCol copies v into column j.
func (m *Dense) SetCol(j int, v []float64) {
	if len(v) != m.rows {
		panic(fmt.Sprintf("matrix: SetCol length %d != %d rows", len(v), m.rows))
	}
	for i := 0; i < m.rows; i++ {
		m.data[i*m.cols+j] = v[i]
	}
}

// Data returns the backing row-major slice (not a copy).
func (m *Dense) Data() []float64 { return m.data }

// Clone returns a deep copy.
func (m *Dense) Clone() *Dense {
	d := make([]float64, len(m.data))
	copy(d, m.data)
	return &Dense{rows: m.rows, cols: m.cols, data: d}
}

// T returns the transpose as a new matrix.
func (m *Dense) T() *Dense {
	t := New(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		mi := m.data[i*m.cols:]
		for j := 0; j < m.cols; j++ {
			t.data[j*m.rows+i] = mi[j]
		}
	}
	return t
}

// SliceRows returns the submatrix of rows [from, to) sharing backing storage
// with m. Mutations are visible in both.
func (m *Dense) SliceRows(from, to int) *Dense {
	if from < 0 || to < from || to > m.rows {
		panic(fmt.Sprintf("matrix: SliceRows [%d,%d) out of range %d", from, to, m.rows))
	}
	return &Dense{rows: to - from, cols: m.cols, data: m.data[from*m.cols : to*m.cols]}
}

// CopyRows returns a deep copy of rows [from, to).
func (m *Dense) CopyRows(from, to int) *Dense {
	return m.SliceRows(from, to).Clone()
}

// Stack returns the vertical concatenation [A; B; ...] of m and the given
// matrices. Matrices with zero rows contribute no rows but still fix the
// column count (so stacking all-empty 0×d parts yields 0×d); all matrices
// with a positive column count must agree on it (a 0×0 empty matrix is
// compatible with anything).
func (m *Dense) Stack(others ...*Dense) *Dense {
	all := append([]*Dense{m}, others...)
	cols, rows := 0, 0
	for _, a := range all {
		if a == nil || a.cols == 0 {
			continue
		}
		if cols == 0 {
			cols = a.cols
		} else if a.cols != cols {
			panic(fmt.Sprintf("matrix: Stack column mismatch %d vs %d", cols, a.cols))
		}
		rows += a.rows
	}
	out := New(rows, cols)
	at := 0
	for _, a := range all {
		if a == nil || a.rows == 0 {
			continue
		}
		copy(out.data[at:], a.data[:a.rows*a.cols])
		at += a.rows * a.cols
	}
	return out
}

// Stack returns the vertical concatenation of the given matrices
// (package-level convenience accepting an empty list).
func Stack(ms ...*Dense) *Dense {
	if len(ms) == 0 {
		return &Dense{}
	}
	return ms[0].Stack(ms[1:]...)
}

// AppendRow returns m extended by one row. The result NEVER shares backing
// storage with m or v: it is always a fresh allocation, so mutating either
// matrix afterwards cannot corrupt the other. (An earlier implementation
// used a capacity-limited append, which still aliased m's array whenever
// spare capacity had been pre-grown — e.g. on a SliceRows view of a larger
// matrix.) m itself is unchanged; always use the return value. An empty
// matrix adopts the row's length.
func (m *Dense) AppendRow(v []float64) *Dense {
	if m.rows == 0 && m.cols == 0 {
		out := New(1, len(v))
		copy(out.data, v)
		return out
	}
	if len(v) != m.cols {
		panic(fmt.Sprintf("matrix: AppendRow length %d != %d cols", len(v), m.cols))
	}
	data := make([]float64, (m.rows+1)*m.cols)
	copy(data, m.data[:m.rows*m.cols])
	copy(data[m.rows*m.cols:], v)
	return &Dense{rows: m.rows + 1, cols: m.cols, data: data}
}

// Mul returns the product m · b, computed with the cache-blocked axpy4
// kernel in kernels.go (b swept in fixed row panels, four rows folded per
// pass). Rows of the output are computed in parallel on the shared worker
// pool; every output entry is one ascending-k multiply-add chain with
// fixed group boundaries regardless of sharding, so the result is
// bit-identical to a serial run.
func (m *Dense) Mul(b *Dense) *Dense {
	if m.cols != b.rows {
		panic(fmt.Sprintf("matrix: Mul dimension mismatch %d×%d · %d×%d", m.rows, m.cols, b.rows, b.cols))
	}
	out := New(m.rows, b.cols)
	m.MulInto(out, b)
	return out
}

// MulInto is Mul writing m · b into out, which must be m.Rows()×b.Cols()
// and share no storage with m or b: the same bits as Mul at every pool
// width.
func (m *Dense) MulInto(out, b *Dense) {
	if m.cols != b.rows || out.rows != m.rows || out.cols != b.cols {
		panic(fmt.Sprintf("matrix: MulInto %d×%d · %d×%d into %d×%d", m.rows, m.cols, b.rows, b.cols, out.rows, out.cols))
	}
	clear(out.data)
	parallel.For(m.rows, parallel.Grain(2*m.cols*b.cols), func(lo, hi int) {
		mulRange(out, m, b, lo, hi)
	})
}

// MulVec returns the matrix-vector product m · x, four rows per pass over
// the shared x (kernels.go). Each entry keeps Dot's ascending-k chain —
// bit-identical to serial at every pool width.
func (m *Dense) MulVec(x []float64) []float64 {
	if len(x) != m.cols {
		panic(fmt.Sprintf("matrix: MulVec length %d != %d cols", len(x), m.cols))
	}
	out := make([]float64, m.rows)
	parallel.For(m.rows, parallel.Grain(2*m.cols), func(lo, hi int) {
		mulVecRange(out, x, m, lo, hi)
	})
	return out
}

// TMulVec returns mᵀ · x. The output is split into column bands, each
// accumulated over rows in ascending order (four rows per load-store pass,
// kernels.go) — bit-identical to serial at every pool width.
func (m *Dense) TMulVec(x []float64) []float64 {
	if len(x) != m.rows {
		panic(fmt.Sprintf("matrix: TMulVec length %d != %d rows", len(x), m.rows))
	}
	out := make([]float64, m.cols)
	parallel.For(m.cols, parallel.Grain(2*m.rows), func(lo, hi int) {
		tmulVecRange(out, x, m, lo, hi)
	})
	return out
}

// Gram returns mᵀ · m (the d×d covariance Gram matrix), exploiting symmetry.
// Rows of the upper triangle are computed in parallel, folding groups of
// four input rows per pass with the axpy4 micro-kernel (kernels.go). The
// group schedule starts at row 0 regardless of sharding — every entry is
// one fixed ascending-row chain at every pool width, so results are
// bit-identical across widths (grouping only changes rounding vs the
// pre-blocking row-at-a-time chain; cross-kernel tests use tolerances).
func (m *Dense) Gram() *Dense {
	out := New(m.cols, m.cols)
	m.addUpperGram(out)
	mirrorUpper(out)
	return out
}

// addUpperGram folds the upper triangle of mᵀm into the d×d out, with the
// output rows split across the worker pool (see Gram).
func (m *Dense) addUpperGram(out *Dense) {
	parallel.For(m.cols, parallel.Grain(m.rows*(m.cols+1)), func(lo, hi int) {
		gramRange(out, m, lo, hi)
	})
}

// mirrorUpper copies the upper triangle of the square out into its lower
// triangle.
func mirrorUpper(out *Dense) {
	d := out.cols
	for i := 0; i < d; i++ {
		for j := i + 1; j < d; j++ {
			out.data[j*d+i] = out.data[i*d+j]
		}
	}
}

// TMul returns mᵀ · b. Row blocks accumulate into private partial products
// (groups of four rows folded per pass by axpy4, kernels.go) merged in
// block order: deterministic for a fixed pool width, but the chunked
// summation may differ from a serial run by rounding (documented
// 1e-12-grade tolerance).
func (m *Dense) TMul(b *Dense) *Dense {
	if m.rows != b.rows {
		panic(fmt.Sprintf("matrix: TMul dimension mismatch (%d×%d)ᵀ · %d×%d", m.rows, m.cols, b.rows, b.cols))
	}
	accumulate := func(acc *Dense, lo, hi int) *Dense {
		if acc == nil {
			acc = New(m.cols, b.cols)
		}
		tmulRange(acc, m, b, lo, hi)
		return acc
	}
	out := parallel.Reduce(m.rows, parallel.Grain(2*m.cols*b.cols), (*Dense)(nil), accumulate,
		func(a, b *Dense) *Dense {
			if a == nil {
				return b
			}
			if b != nil {
				for i, v := range b.data {
					a.data[i] += v
				}
			}
			return a
		})
	if out == nil {
		out = New(m.cols, b.cols)
	}
	return out
}

// MulT returns m · bᵀ: dot products of row pairs, four b-rows per pass
// (kernels.go; dot-shaped, so it stays untiled — see mulTRange). Output
// rows are computed in parallel; every entry is one ascending-k chain —
// bit-identical to serial at every pool width.
func (m *Dense) MulT(b *Dense) *Dense {
	if m.cols != b.cols {
		panic(fmt.Sprintf("matrix: MulT dimension mismatch %d×%d · (%d×%d)ᵀ", m.rows, m.cols, b.rows, b.cols))
	}
	out := New(m.rows, b.rows)
	parallel.For(m.rows, parallel.Grain(2*m.cols*b.rows), func(lo, hi int) {
		mulTRange(out, m, b, lo, hi)
	})
	return out
}

// RowGramLower returns the lower triangle of m · mᵀ, the Gram of m's rows,
// with the strict upper triangle left zero: each entry is bit-identical to
// the same entry of m.MulT(m), for half the work.
func (m *Dense) RowGramLower() *Dense {
	out := New(m.rows, m.rows)
	parallel.For(m.rows, parallel.Grain(m.cols*m.rows), func(lo, hi int) {
		rowGramLowerRange(out, m, lo, hi)
	})
	return out
}

// Add returns m + b.
func (m *Dense) Add(b *Dense) *Dense {
	m.sameDims(b, "Add")
	out := m.Clone()
	for i, v := range b.data {
		out.data[i] += v
	}
	return out
}

// Sub returns m − b.
func (m *Dense) Sub(b *Dense) *Dense {
	m.sameDims(b, "Sub")
	out := m.Clone()
	for i, v := range b.data {
		out.data[i] -= v
	}
	return out
}

func (m *Dense) sameDims(b *Dense, op string) {
	if m.rows != b.rows || m.cols != b.cols {
		panic(fmt.Sprintf("matrix: %s dimension mismatch %d×%d vs %d×%d", op, m.rows, m.cols, b.rows, b.cols))
	}
}

// Scale returns c · m as a new matrix.
func (m *Dense) Scale(c float64) *Dense {
	out := m.Clone()
	for i := range out.data {
		out.data[i] *= c
	}
	return out
}

// ScaleInPlace multiplies every entry by c.
func (m *Dense) ScaleInPlace(c float64) {
	for i := range m.data {
		m.data[i] *= c
	}
}

// ScaleRow multiplies row i by c in place.
func (m *Dense) ScaleRow(i int, c float64) {
	r := m.Row(i)
	for j := range r {
		r[j] *= c
	}
}

// Frob2 returns the squared Frobenius norm ‖m‖F² = Σ m_ij².
func (m *Dense) Frob2() float64 {
	s := 0.0
	for _, v := range m.data {
		s += v * v
	}
	return s
}

// Frob returns the Frobenius norm ‖m‖F.
func (m *Dense) Frob() float64 { return math.Sqrt(m.Frob2()) }

// RowNorm2 returns the squared Euclidean norm of row i.
func (m *Dense) RowNorm2(i int) float64 {
	s := 0.0
	for _, v := range m.Row(i) {
		s += v * v
	}
	return s
}

// Trace returns the trace of a square matrix.
func (m *Dense) Trace() float64 {
	if m.rows != m.cols {
		panic(fmt.Sprintf("matrix: Trace of non-square %d×%d", m.rows, m.cols))
	}
	s := 0.0
	for i := 0; i < m.rows; i++ {
		s += m.data[i*m.cols+i]
	}
	return s
}

// MaxAbs returns max |m_ij| (0 for an empty matrix).
func (m *Dense) MaxAbs() float64 {
	mx := 0.0
	for _, v := range m.data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// Equal reports whether m and b have identical dimensions and entries.
func (m *Dense) Equal(b *Dense) bool {
	if m.rows != b.rows || m.cols != b.cols {
		return false
	}
	for i, v := range m.data {
		if v != b.data[i] {
			return false
		}
	}
	return true
}

// EqualApprox reports whether m and b agree entrywise within tol.
func (m *Dense) EqualApprox(b *Dense, tol float64) bool {
	if m.rows != b.rows || m.cols != b.cols {
		return false
	}
	for i, v := range m.data {
		if math.Abs(v-b.data[i]) > tol {
			return false
		}
	}
	return true
}

// IsFinite reports whether every entry is finite (no NaN/Inf).
func (m *Dense) IsFinite() bool {
	for _, v := range m.data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// String renders the matrix for debugging (rows truncated past 8×8).
func (m *Dense) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Dense %d×%d\n", m.rows, m.cols)
	rmax, cmax := m.rows, m.cols
	if rmax > 8 {
		rmax = 8
	}
	if cmax > 8 {
		cmax = 8
	}
	for i := 0; i < rmax; i++ {
		b.WriteString("[")
		for j := 0; j < cmax; j++ {
			fmt.Fprintf(&b, "% .4g", m.At(i, j))
			if j < cmax-1 {
				b.WriteString(" ")
			}
		}
		if cmax < m.cols {
			b.WriteString(" …")
		}
		b.WriteString("]\n")
	}
	if rmax < m.rows {
		b.WriteString("…\n")
	}
	return b.String()
}
