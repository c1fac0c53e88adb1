package workload

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/matrix"
)

// RowSource delivers the rows of an n×d matrix one at a time, modelling the
// paper's streaming servers (one pass, bounded working space). It is the
// ingestion contract of the distributed runtime: every Protocol.Server
// consumes a RowSource, so a server's input can be an in-memory matrix, a
// file it reads row by row, or a generator — without the protocol code
// changing.
//
// Contract:
//
//   - Dims is known up front and constant across passes.
//   - Next returns a freshly allocated row the caller owns: retaining or
//     mutating a delivered row can never corrupt the source's backing data
//     or later rows (copy-on-next: a Next that aliased the backing matrix
//     let an FD consumer's in-place scaling corrupt every later pass).
//   - Reset rewinds to the first row so multi-pass protocols can stream
//     again; sources for which a second pass is impossible return an error.
//   - Next returns (nil, false) at end of data or on error; Err
//     distinguishes the two after the loop, mirroring bufio.Scanner.
type RowSource interface {
	// Dims returns the total row count and the column dimension.
	Dims() (n, d int)
	// Next returns the next row and true, or nil and false after the last
	// row (or on error — check Err). The returned slice is owned by the
	// caller.
	Next() ([]float64, bool)
	// Reset rewinds the source to the first row.
	Reset() error
	// Err returns the first error encountered by Next, if any.
	Err() error
}

// SparseRowSource is a RowSource whose rows are natively sparse, letting
// consumers with an nnz-proportional update path (fd.Sketch.UpdateSparse)
// skip the dense materialization. SparseNext and Next advance the same
// cursor; a consumer uses one or the other, not both.
type SparseRowSource interface {
	RowSource
	// SparseNext returns the next row in sparse form and true, or nil and
	// false after the last row. The returned vector is owned by the caller.
	SparseNext() (*matrix.SparseVector, bool)
}

// CloseableSource is a RowSource backed by an operating-system resource
// (an open file) that the consumer must release.
type CloseableSource interface {
	RowSource
	Close() error
}

// ---------------------------------------------------------------------------
// In-memory sources.
// ---------------------------------------------------------------------------

// DenseSource streams the rows of an in-memory dense matrix. Each Next
// returns a copy, so the paper's one-pass consumers may retain rows without
// aliasing the backing matrix.
type DenseSource struct {
	m  *matrix.Dense
	at int
}

// NewDenseSource returns a source over the rows of m.
func NewDenseSource(m *matrix.Dense) *DenseSource { return &DenseSource{m: m} }

// Dims implements RowSource.
func (s *DenseSource) Dims() (int, int) { return s.m.Dims() }

// Next implements RowSource; the returned row is a copy.
func (s *DenseSource) Next() ([]float64, bool) {
	if s.at >= s.m.Rows() {
		return nil, false
	}
	r := matrix.CopyVec(s.m.Row(s.at))
	s.at++
	return r, true
}

// Remaining returns the number of rows not yet delivered.
func (s *DenseSource) Remaining() int { return s.m.Rows() - s.at }

// Reset implements RowSource (never fails).
func (s *DenseSource) Reset() error { s.at = 0; return nil }

// Err implements RowSource (always nil).
func (s *DenseSource) Err() error { return nil }

// SparseSource streams the rows of a matrix.Sparse, exposing both the dense
// RowSource contract and the sparse fast path.
type SparseSource struct {
	m  *matrix.Sparse
	at int
}

// NewSparseSource returns a source over the rows of m.
func NewSparseSource(m *matrix.Sparse) *SparseSource { return &SparseSource{m: m} }

// Dims implements RowSource.
func (s *SparseSource) Dims() (int, int) { return s.m.Dims() }

// Next implements RowSource, materializing the row densely.
func (s *SparseSource) Next() ([]float64, bool) {
	if n, _ := s.m.Dims(); s.at >= n {
		return nil, false
	}
	r := s.m.Row(s.at).Dense()
	s.at++
	return r, true
}

// SparseNext implements SparseRowSource; the returned vector is a copy.
func (s *SparseSource) SparseNext() (*matrix.SparseVector, bool) {
	if n, _ := s.m.Dims(); s.at >= n {
		return nil, false
	}
	r := s.m.Row(s.at)
	s.at++
	out := &matrix.SparseVector{Len: r.Len}
	out.Indices = append(out.Indices, r.Indices...)
	out.Values = append(out.Values, r.Values...)
	return out, true
}

// Reset implements RowSource (never fails).
func (s *SparseSource) Reset() error { s.at = 0; return nil }

// Err implements RowSource (always nil).
func (s *SparseSource) Err() error { return nil }

// ---------------------------------------------------------------------------
// File-backed sources.
// ---------------------------------------------------------------------------

// matrixHeaderBytes is the size of the binary format's magic+rows+cols
// header preceding the row-major payload (both precision variants).
const matrixHeaderBytes = 12

// FileSource streams rows from a binary matrix file (the .dskm format of
// WriteMatrix, float64 or float32 variant — detected from the magic)
// without ever holding more than one row in memory — the out-of-core
// ingestion path. It is not safe for concurrent use.
type FileSource struct {
	path string
	f    *os.File
	br   *bufio.Reader
	n, d int
	elem int // bytes per stored entry: 8 (float64) or 4 (float32)
	at   int
	err  error
	buf  []byte
}

// OpenFileSource opens path, validates the header, and positions the source
// at the first row. The caller must Close it.
func OpenFileSource(path string) (*FileSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	br := bufio.NewReaderSize(f, 1<<16)
	var magic, rows, cols uint32
	for _, p := range []*uint32{&magic, &rows, &cols} {
		if err := binary.Read(br, binary.LittleEndian, p); err != nil {
			f.Close()
			return nil, fmt.Errorf("workload: %s: read header: %w", path, err)
		}
	}
	elem := matrixElemBytes(magic)
	if elem == 0 {
		f.Close()
		return nil, fmt.Errorf("workload: %s: bad magic %#x (want %#x or %#x)", path, magic, matrixMagic, matrixMagic32)
	}
	if err := checkMatrixEntries(uint64(rows), uint64(cols)); err != nil {
		f.Close()
		return nil, fmt.Errorf("workload: %s: %w", path, err)
	}
	return &FileSource{
		path: path, f: f, br: br,
		n: int(rows), d: int(cols), elem: elem,
		buf: make([]byte, elem*int(cols)),
	}, nil
}

// Dims implements RowSource.
func (s *FileSource) Dims() (int, int) { return s.n, s.d }

// Next implements RowSource, reading one row (elem·d bytes) from the file.
func (s *FileSource) Next() ([]float64, bool) {
	if s.err != nil || s.at >= s.n {
		return nil, false
	}
	if _, err := io.ReadFull(s.br, s.buf); err != nil {
		s.err = fmt.Errorf("workload: %s: read row %d: %w", s.path, s.at, err)
		return nil, false
	}
	row := make([]float64, s.d)
	if s.elem == 4 {
		for j := range row {
			row[j] = float64(math.Float32frombits(binary.LittleEndian.Uint32(s.buf[4*j:])))
		}
	} else {
		for j := range row {
			row[j] = math.Float64frombits(binary.LittleEndian.Uint64(s.buf[8*j:]))
		}
	}
	s.at++
	return row, true
}

// Reset implements RowSource, seeking back to the first row.
func (s *FileSource) Reset() error {
	return s.SeekRow(0)
}

// SeekRow positions the source so the next Next delivers row i (0 ≤ i ≤ n;
// i = n parks the source at end of data). Rows are fixed-width on disk, so
// this is one O(1) seek — how a restored server resumes its shard at the
// checkpointed position without replaying the stream. It also clears any
// latched error.
func (s *FileSource) SeekRow(i int) error {
	if i < 0 || i > s.n {
		return fmt.Errorf("workload: %s: seek to row %d of %d", s.path, i, s.n)
	}
	off := int64(matrixHeaderBytes) + int64(i)*int64(s.elem)*int64(s.d)
	if _, err := s.f.Seek(off, io.SeekStart); err != nil {
		s.err = fmt.Errorf("workload: %s: seek row %d: %w", s.path, i, err)
		return s.err
	}
	s.br.Reset(s.f)
	s.at, s.err = i, nil
	return nil
}

// Err implements RowSource.
func (s *FileSource) Err() error { return s.err }

// Close releases the underlying file.
func (s *FileSource) Close() error { return s.f.Close() }

// CSVSource streams rows from a CSV file with the same dialect as
// ReadCSVMatrix (comma-separated float64 fields, blank lines and '#'
// comments skipped, all rows of equal length) — but one row at a time,
// replacing the materialize-everything scanner for server-side ingestion.
// Opening pre-scans the file once to learn the dimensions, then rewinds.
type CSVSource struct {
	path string
	f    *os.File
	sc   *bufio.Scanner
	n, d int
	at   int
	line int
	err  error
}

// OpenCSVSource opens path, pre-scans it to determine (n, d) and validate
// every row, and positions the source at the first row. The caller must
// Close it.
func OpenCSVSource(path string) (*CSVSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	s := &CSVSource{path: path, f: f}
	// Validation pass: dimensions plus per-row field checks, so consumers
	// can trust Dims before streaming.
	s.rewind()
	rows, cols := 0, 0
	for {
		row, ok := s.next(cols)
		if !ok {
			break
		}
		if rows == 0 {
			cols = len(row)
		}
		rows++
	}
	if s.err != nil {
		f.Close()
		return nil, s.err
	}
	s.n, s.d = rows, cols
	if err := s.Reset(); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// rewind seeks to the start of the file and resets the scanner state.
func (s *CSVSource) rewind() {
	if _, err := s.f.Seek(0, io.SeekStart); err != nil {
		s.err = fmt.Errorf("workload: %s: reset: %w", s.path, err)
		return
	}
	s.sc = bufio.NewScanner(s.f)
	s.sc.Buffer(make([]byte, 1<<20), 1<<24)
	s.at, s.line, s.err = 0, 0, nil
}

// next parses the next data line; wantCols > 0 enforces the row length.
func (s *CSVSource) next(wantCols int) ([]float64, bool) {
	if s.err != nil {
		return nil, false
	}
	for s.sc.Scan() {
		s.line++
		text := strings.TrimSpace(s.sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		row, err := parseCSVRow(text, s.line)
		if err != nil {
			s.err = fmt.Errorf("workload: %s: %w", s.path, err)
			return nil, false
		}
		if wantCols > 0 && len(row) != wantCols {
			s.err = fmt.Errorf("workload: %s: csv line %d has %d fields, want %d", s.path, s.line, len(row), wantCols)
			return nil, false
		}
		s.at++
		return row, true
	}
	if err := s.sc.Err(); err != nil {
		s.err = fmt.Errorf("workload: %s: csv read: %w", s.path, err)
	}
	return nil, false
}

// Dims implements RowSource.
func (s *CSVSource) Dims() (int, int) { return s.n, s.d }

// Next implements RowSource. A stream that ends before delivering the
// pre-scanned n rows (the file was truncated between the validation pass
// and this one) latches an error, mirroring FileSource's at >= n guard:
// consumers trusting Dims() must not mistake a short stream for a clean
// end of data.
func (s *CSVSource) Next() ([]float64, bool) {
	row, ok := s.next(s.d)
	if !ok && s.err == nil && s.at < s.n {
		s.err = fmt.Errorf("workload: %s: csv stream ended after %d of %d pre-scanned rows (file truncated?)", s.path, s.at, s.n)
	}
	return row, ok
}

// Reset implements RowSource, seeking back to the first row.
func (s *CSVSource) Reset() error { s.rewind(); return s.err }

// Err implements RowSource.
func (s *CSVSource) Err() error { return s.err }

// Close releases the underlying file.
func (s *CSVSource) Close() error { return s.f.Close() }

// OpenSource opens path as a streaming row source, dispatching on the
// extension: ".csv" is parsed as CSV text, everything else as the binary
// matrix format. The caller must Close the returned source.
func OpenSource(path string) (CloseableSource, error) {
	if strings.EqualFold(filepath.Ext(path), ".csv") {
		return OpenCSVSource(path)
	}
	return OpenFileSource(path)
}

// ---------------------------------------------------------------------------
// Synthetic and derived sources.
// ---------------------------------------------------------------------------

// FuncSource streams n rows produced by a deterministic generator function;
// Reset re-seeds the generator so every pass replays identical rows. It lets
// benchmarks and tests stream unbounded synthetic workloads without ever
// materializing them.
type FuncSource struct {
	n, d int
	seed int64
	gen  func(rng *rand.Rand, row []float64)
	rng  *rand.Rand
	at   int
}

// NewFuncSource returns a source of n rows of dimension d: gen fills the
// provided row slice using rng, which is seeded with seed at construction
// and on every Reset.
func NewFuncSource(n, d int, seed int64, gen func(rng *rand.Rand, row []float64)) *FuncSource {
	if n < 0 || d <= 0 {
		panic(fmt.Sprintf("workload: FuncSource with n=%d d=%d", n, d))
	}
	return &FuncSource{n: n, d: d, seed: seed, gen: gen, rng: rand.New(rand.NewSource(seed))}
}

// NewGaussianSource streams n i.i.d. standard Gaussian rows of dimension d.
func NewGaussianSource(n, d int, seed int64) *FuncSource {
	return NewFuncSource(n, d, seed, func(rng *rand.Rand, row []float64) {
		for j := range row {
			row[j] = rng.NormFloat64()
		}
	})
}

// Dims implements RowSource.
func (s *FuncSource) Dims() (int, int) { return s.n, s.d }

// Next implements RowSource.
func (s *FuncSource) Next() ([]float64, bool) {
	if s.at >= s.n {
		return nil, false
	}
	row := make([]float64, s.d)
	s.gen(s.rng, row)
	s.at++
	return row, true
}

// Reset implements RowSource, re-seeding the generator.
func (s *FuncSource) Reset() error {
	s.rng = rand.New(rand.NewSource(s.seed))
	s.at = 0
	return nil
}

// Err implements RowSource (always nil).
func (s *FuncSource) Err() error { return nil }

// SectionSource restricts a source to the half-open row window [lo, hi) —
// how a server streams its contiguous shard out of one shared file without
// loading the rest.
type SectionSource struct {
	src    RowSource
	lo, hi int
	pos    int // absolute cursor in src
}

// NewSectionSource returns the [lo, hi) window of src (which must be at its
// first row).
func NewSectionSource(src RowSource, lo, hi int) *SectionSource {
	n, _ := src.Dims()
	if lo < 0 || hi < lo || hi > n {
		panic(fmt.Sprintf("workload: section [%d, %d) of %d rows", lo, hi, n))
	}
	return &SectionSource{src: src, lo: lo, hi: hi}
}

// Dims implements RowSource.
func (s *SectionSource) Dims() (int, int) {
	_, d := s.src.Dims()
	return s.hi - s.lo, d
}

// Next implements RowSource, skipping rows before lo on the first call.
func (s *SectionSource) Next() ([]float64, bool) {
	for s.pos < s.lo {
		if _, ok := s.src.Next(); !ok {
			return nil, false
		}
		s.pos++
	}
	if s.pos >= s.hi {
		return nil, false
	}
	row, ok := s.src.Next()
	if !ok {
		return nil, false
	}
	s.pos++
	return row, true
}

// Reset implements RowSource.
func (s *SectionSource) Reset() error {
	if err := s.src.Reset(); err != nil {
		return err
	}
	s.pos = 0
	return nil
}

// Err implements RowSource.
func (s *SectionSource) Err() error { return s.src.Err() }

// ---------------------------------------------------------------------------
// Helpers bridging sources and matrices.
// ---------------------------------------------------------------------------

// Materialize collects every row of src into a dense matrix. In-memory
// sources return their backing data without copying (the returned matrix may
// share storage with the source); streaming sources are Reset first and read
// in full. Protocols that need random access to their local rows use this,
// at the documented O(n·d) memory cost.
func Materialize(src RowSource) (*matrix.Dense, error) {
	switch s := src.(type) {
	case *DenseSource:
		return s.m, nil
	case *SparseSource:
		return s.m.ToDense(), nil
	}
	if err := src.Reset(); err != nil {
		return nil, err
	}
	n, d := src.Dims()
	out := matrix.New(n, d)
	i := 0
	for {
		row, ok := src.Next()
		if !ok {
			break
		}
		if i >= n {
			return nil, fmt.Errorf("workload: source delivered more than its declared %d rows", n)
		}
		copy(out.Row(i), row)
		i++
	}
	if err := src.Err(); err != nil {
		return nil, err
	}
	if i != n {
		return nil, fmt.Errorf("workload: source delivered %d of its declared %d rows", i, n)
	}
	return out, nil
}

// DenseSources wraps each partition in a DenseSource — the adapter the
// []*matrix.Dense entry point, Run, uses.
func DenseSources(parts []*matrix.Dense) []RowSource {
	out := make([]RowSource, len(parts))
	for i, p := range parts {
		out[i] = NewDenseSource(p)
	}
	return out
}

// ContiguousRange returns the half-open row range [lo, hi) that
// Split(·, s, Contiguous, nil) assigns to server id over n rows — the
// formula servers use to stream their shard straight out of a shared file.
func ContiguousRange(n, s, id int) (lo, hi int) {
	if s <= 0 || id < 0 || id >= s {
		panic(fmt.Sprintf("workload: ContiguousRange(n=%d, s=%d, id=%d)", n, s, id))
	}
	if n < 0 {
		n = 0
	}
	// Split assigns row i to server ⌊i·s/n⌋, so server id owns the rows with
	// i·s ≥ id·n and i·s < (id+1)·n: [⌈id·n/s⌉, ⌈(id+1)·n/s⌉).
	lo = (id*n + s - 1) / s
	hi = ((id+1)*n + s - 1) / s
	return lo, hi
}

// SplitSparseContiguous partitions the rows of a sparse matrix into s
// contiguous blocks (the sparse counterpart of Split's Contiguous scheme,
// matching ContiguousRange). Each block owns copies of its rows
// (Sparse.AppendRow is copy-on-append), so mutating the original matrix
// afterwards cannot corrupt a partition.
func SplitSparseContiguous(sp *matrix.Sparse, s int) []*matrix.Sparse {
	if s <= 0 {
		panic(fmt.Sprintf("workload: SplitSparseContiguous with s=%d", s))
	}
	n, d := sp.Dims()
	parts := make([]*matrix.Sparse, s)
	for id := 0; id < s; id++ {
		lo, hi := ContiguousRange(n, s, id)
		p := matrix.NewSparse(d)
		for i := lo; i < hi; i++ {
			p.AppendRow(sp.Row(i))
		}
		parts[id] = p
	}
	return parts
}
