package workload

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fd"
	"repro/internal/matrix"
)

// drain reads every row of src, failing the test on a source error or a
// row-count mismatch with the declared dimensions.
func drain(t *testing.T, src RowSource) *matrix.Dense {
	t.Helper()
	n, d := src.Dims()
	out := matrix.New(n, d)
	i := 0
	for {
		row, ok := src.Next()
		if !ok {
			break
		}
		if i >= n {
			t.Fatalf("source delivered more than %d rows", n)
		}
		copy(out.Row(i), row)
		i++
	}
	if err := src.Err(); err != nil {
		t.Fatal(err)
	}
	if i != n {
		t.Fatalf("source delivered %d of %d rows", i, n)
	}
	return out
}

// TestDenseSourceCopyOnNext is the aliasing regression test: mutating a
// delivered row must not corrupt the backing matrix or later passes. An
// earlier source returned the matrix's own row slices, so an FD consumer's
// in-place scaling corrupted the data for every later pass.
func TestDenseSourceCopyOnNext(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := Gaussian(rng, 40, 8)
	want := a.Clone()

	src := NewDenseSource(a)
	for {
		row, ok := src.Next()
		if !ok {
			break
		}
		for j := range row {
			row[j] = -1e9 // consumer scribbles over the delivered row
		}
	}
	if !a.Equal(want) {
		t.Fatal("mutating delivered rows corrupted the backing matrix")
	}

	// End-to-end: an FD sketch fed from pass 2 must be bit-identical to one
	// fed directly, even though pass 1's consumer mutated every row it got.
	if err := src.Reset(); err != nil {
		t.Fatal(err)
	}
	sk := fd.New(8, 6, fd.Options{})
	for {
		row, ok := src.Next()
		if !ok {
			break
		}
		if err := sk.Update(row); err != nil {
			t.Fatal(err)
		}
	}
	ref := fd.New(8, 6, fd.Options{})
	if err := ref.UpdateMatrix(want); err != nil {
		t.Fatal(err)
	}
	got, err := sk.Matrix()
	if err != nil {
		t.Fatal(err)
	}
	wantB, err := ref.Matrix()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(wantB) {
		t.Fatal("FD state differs after a pass whose consumer mutated rows")
	}
}

func TestSparseSourceCopyOnNext(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sp := SparseRandom(rng, 30, 10, 0.3)
	want := sp.ToDense()

	src := NewSparseSource(sp)
	for {
		v, ok := src.SparseNext()
		if !ok {
			break
		}
		for i := range v.Values {
			v.Values[i] = -7 // scribble
		}
	}
	if !sp.ToDense().Equal(want) {
		t.Fatal("mutating delivered sparse rows corrupted the backing matrix")
	}
	if err := src.Reset(); err != nil {
		t.Fatal(err)
	}
	if got := drain(t, src); !got.Equal(want) {
		t.Fatal("dense Next disagrees with ToDense")
	}
}

func TestFileSourceStreamsAndResets(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := Gaussian(rng, 23, 6)
	path := filepath.Join(t.TempDir(), "m.dskm")
	if err := SaveMatrix(path, m); err != nil {
		t.Fatal(err)
	}
	src, err := OpenFileSource(path)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if n, d := src.Dims(); n != 23 || d != 6 {
		t.Fatalf("Dims = %d×%d", n, d)
	}
	if got := drain(t, src); !got.Equal(m) {
		t.Fatal("file round-trip differs")
	}
	// Second pass after Reset must replay identical rows.
	if err := src.Reset(); err != nil {
		t.Fatal(err)
	}
	if got := drain(t, src); !got.Equal(m) {
		t.Fatal("second pass differs")
	}
}

func TestFileSourceRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.dskm")
	if err := os.WriteFile(path, []byte("not a matrix"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFileSource(path); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestFileSourceTruncated(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := Gaussian(rng, 10, 4)
	path := filepath.Join(t.TempDir(), "trunc.dskm")
	if err := SaveMatrix(path, m); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:len(b)-16], 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := OpenFileSource(path)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	for {
		if _, ok := src.Next(); !ok {
			break
		}
	}
	if src.Err() == nil {
		t.Fatal("truncated file streamed without error")
	}
}

// TestCSVRoundTrip checks SaveCSVMatrix → CSVSource is bit-exact (FormatFloat
// 'g'/-1 prints the shortest representation that parses back identically).
func TestCSVRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m := Gaussian(rng, 19, 5)
	path := filepath.Join(t.TempDir(), "m.csv")
	if err := SaveCSVMatrix(path, m); err != nil {
		t.Fatal(err)
	}
	src, err := OpenCSVSource(path)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if n, d := src.Dims(); n != 19 || d != 5 {
		t.Fatalf("Dims = %d×%d", n, d)
	}
	if got := drain(t, src); !got.Equal(m) {
		t.Fatal("csv round-trip is not bit-exact")
	}
	// The materializing reader must agree with the streaming one.
	whole, err := LoadCSVMatrix(path)
	if err != nil {
		t.Fatal(err)
	}
	if !whole.Equal(m) {
		t.Fatal("LoadCSVMatrix disagrees")
	}
}

func TestOpenSourceDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	m := Gaussian(rng, 8, 3)
	dir := t.TempDir()
	bin := filepath.Join(dir, "m.dskm")
	csv := filepath.Join(dir, "m.CSV") // extension match is case-insensitive
	if err := SaveMatrix(bin, m); err != nil {
		t.Fatal(err)
	}
	if err := SaveCSVMatrix(csv, m); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{bin, csv} {
		src, err := OpenSource(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := drain(t, src); !got.Equal(m) {
			t.Fatalf("%s: round-trip differs", path)
		}
		if err := src.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestContiguousRangeMatchesSplit proves the closed-form shard boundaries
// are exactly the row blocks Split assigns, across awkward n/s combinations
// including s > n.
func TestContiguousRangeMatchesSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, tc := range []struct{ n, s int }{
		{0, 1}, {1, 1}, {7, 3}, {10, 4}, {12, 5}, {100, 7}, {3, 8}, {16, 16},
	} {
		var a *matrix.Dense
		if tc.n > 0 {
			a = Gaussian(rng, tc.n, 4)
		} else {
			a = matrix.New(0, 4)
		}
		parts := Split(a, tc.s, Contiguous, nil)
		at := 0
		for id := 0; id < tc.s; id++ {
			lo, hi := ContiguousRange(tc.n, tc.s, id)
			if lo != at || hi-lo != parts[id].Rows() {
				t.Fatalf("n=%d s=%d id=%d: range [%d,%d) vs split block [%d,%d)",
					tc.n, tc.s, id, lo, hi, at, at+parts[id].Rows())
			}
			at = hi
		}
		if at != tc.n {
			t.Fatalf("n=%d s=%d: ranges cover %d rows", tc.n, tc.s, at)
		}
	}
}

func TestSectionSourceWindowsSharedFile(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	m := Gaussian(rng, 41, 6)
	path := filepath.Join(t.TempDir(), "m.dskm")
	if err := SaveMatrix(path, m); err != nil {
		t.Fatal(err)
	}
	s := 4
	parts := Split(m, s, Contiguous, nil)
	for id := 0; id < s; id++ {
		src, err := OpenFileSource(path)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := ContiguousRange(41, s, id)
		sec := NewSectionSource(src, lo, hi)
		if got := drain(t, sec); !got.Equal(parts[id]) {
			t.Fatalf("server %d: section differs from Split block", id)
		}
		// Reset must rewind through to the underlying file.
		if err := sec.Reset(); err != nil {
			t.Fatal(err)
		}
		if got := drain(t, sec); !got.Equal(parts[id]) {
			t.Fatalf("server %d: second pass differs", id)
		}
		src.Close()
	}
}

func TestFuncSourceReplaysOnReset(t *testing.T) {
	src := NewGaussianSource(12, 5, 42)
	first := drain(t, src)
	if err := src.Reset(); err != nil {
		t.Fatal(err)
	}
	second := drain(t, src)
	if !first.Equal(second) {
		t.Fatal("Reset did not replay identical rows")
	}
}

func TestMaterialize(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	m := Gaussian(rng, 15, 4)

	// DenseSource: no copy, returns the backing matrix.
	got, err := Materialize(NewDenseSource(m))
	if err != nil {
		t.Fatal(err)
	}
	if got != m {
		t.Fatal("Materialize(DenseSource) should return the backing matrix")
	}

	// Streaming source: Reset + full read, even mid-stream.
	path := filepath.Join(t.TempDir(), "m.dskm")
	if err := SaveMatrix(path, m); err != nil {
		t.Fatal(err)
	}
	src, err := OpenFileSource(path)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	src.Next() // advance so Materialize must Reset
	got, err = Materialize(src)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(m) {
		t.Fatal("Materialize(FileSource) differs")
	}

	// Sparse source materializes to its dense form.
	sp := SparseRandom(rng, 9, 4, 0.4)
	got, err = Materialize(NewSparseSource(sp))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(sp.ToDense()) {
		t.Fatal("Materialize(SparseSource) differs")
	}
}

func TestSplitSparseContiguous(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	sp := SparseRandom(rng, 27, 8, 0.2)
	dense := sp.ToDense()
	s := 5
	parts := SplitSparseContiguous(sp, s)
	denseParts := Split(dense, s, Contiguous, nil)
	for id := 0; id < s; id++ {
		if !parts[id].ToDense().Equal(denseParts[id]) {
			t.Fatalf("shard %d differs from dense Split", id)
		}
	}
}

// TestCSVTruncationBetweenPasses is the regression test for the silent
// short-stream bug: CSVSource pre-scans Dims() on open, so a file truncated
// between the validation pass and the streaming pass used to end Next with
// ok=false and a nil Err — indistinguishable from a clean end of data. The
// fix latches an error, mirroring FileSource's at >= n guard.
func TestCSVTruncationBetweenPasses(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	m := Gaussian(rng, 10, 4)
	path := filepath.Join(t.TempDir(), "m.csv")
	if err := SaveCSVMatrix(path, m); err != nil {
		t.Fatal(err)
	}
	src, err := OpenCSVSource(path)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if n, _ := src.Dims(); n != 10 {
		t.Fatalf("pre-scanned n = %d", n)
	}
	// Truncate the file to its first 3 lines after the pre-scan.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := 0
	cut := len(raw)
	for i, b := range raw {
		if b == '\n' {
			if lines++; lines == 3 {
				cut = i + 1
				break
			}
		}
	}
	if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := src.Reset(); err != nil {
		t.Fatal(err)
	}
	got := 0
	for {
		_, ok := src.Next()
		if !ok {
			break
		}
		got++
	}
	if got != 3 {
		t.Fatalf("delivered %d rows, want 3", got)
	}
	if src.Err() == nil {
		t.Fatal("short CSV stream must latch an error, not end silently")
	}
	// FileSource behaves the same on a truncated binary file (the guard this
	// fix mirrors): assert the two sources agree on the failure mode.
	bin := filepath.Join(t.TempDir(), "m.dskm")
	if err := SaveMatrix(bin, m); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(bin)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(bin, info.Size()-4*8); err != nil {
		t.Fatal(err)
	}
	fs, err := OpenFileSource(bin)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	for {
		if _, ok := fs.Next(); !ok {
			break
		}
	}
	if fs.Err() == nil {
		t.Fatal("short binary stream must latch an error")
	}
}
