package fd

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
	"repro/internal/matrix"
	"repro/internal/workload"
)

func fillRandom(t *testing.T, s *Sketch, rng *rand.Rand, rows int) {
	t.Helper()
	row := make([]float64, s.Dim())
	for i := 0; i < rows; i++ {
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		if err := s.Update(row); err != nil {
			t.Fatalf("update: %v", err)
		}
	}
}

// sketchState captures everything about a sketch that Merge must not touch
// on its source argument.
type sketchState struct {
	buf        []float64
	used       int
	shrinks    int
	totalDelta float64
	inputRows  int
	inputFrob2 float64
}

func captureState(s *Sketch) sketchState {
	return sketchState{
		buf:        append([]float64(nil), s.buf.Data()...),
		used:       s.used,
		shrinks:    s.shrinks,
		totalDelta: s.totalDelta,
		inputRows:  s.inputRows,
		inputFrob2: s.inputFrob2,
	}
}

func (st sketchState) assertUnchanged(t *testing.T, s *Sketch, label string) {
	t.Helper()
	if s.used != st.used || s.shrinks != st.shrinks {
		t.Errorf("%s: used/shrinks mutated: used %d→%d, shrinks %d→%d",
			label, st.used, s.used, st.shrinks, s.shrinks)
	}
	if s.totalDelta != st.totalDelta {
		t.Errorf("%s: TotalShrinkage mutated: %g → %g", label, st.totalDelta, s.totalDelta)
	}
	if s.inputRows != st.inputRows || s.inputFrob2 != st.inputFrob2 {
		t.Errorf("%s: input accounting mutated", label)
	}
	for i, v := range s.buf.Data() {
		if math.Float64bits(v) != math.Float64bits(st.buf[i]) {
			t.Errorf("%s: buffer mutated at flat index %d", label, i)
			break
		}
	}
}

// Merge must be side-effect-free on its source even when the source's buffer
// holds more than ℓ rows and a shrink is pending: the shrink has to run on a
// private copy, not on the source.
func TestMergeDoesNotMutateSource(t *testing.T) {
	const d, ell = 12, 5
	rng := rand.New(rand.NewSource(42))
	other := New(d, ell, Options{})
	// Fill to exactly bufferRows so a shrink is pending inside Snapshot.
	fillRandom(t, other, rng, other.WorkingSpaceRows())
	if other.used <= other.ell {
		t.Fatalf("setup expects a pending shrink (used=%d, ell=%d)", other.used, other.ell)
	}
	pre := captureState(other)

	dst := New(d, ell, Options{})
	fillRandom(t, dst, rng, 7)
	if err := dst.Merge(other); err != nil {
		t.Fatalf("merge: %v", err)
	}
	pre.assertUnchanged(t, other, "merge")

	if dst.InputRows() != 7+other.InputRows() {
		t.Errorf("merged InputRows = %d, want %d", dst.InputRows(), 7+other.InputRows())
	}
	wantFrob2 := pre.inputFrob2
	if got := dst.InputFrob2(); math.Abs(got-wantFrob2) > wantFrob2 {
		// dst also holds its own 7 rows; just sanity-check other's mass
		// was added (exact check below via a fresh destination).
		t.Errorf("merged InputFrob2 = %g implausible", got)
	}

	// Merging twice from the same untouched source must be reproducible.
	dst2 := New(d, ell, Options{})
	if err := dst2.Merge(other); err != nil {
		t.Fatalf("second merge: %v", err)
	}
	pre.assertUnchanged(t, other, "second merge")
	if dst2.InputRows() != other.InputRows() || dst2.InputFrob2() != other.InputFrob2() {
		t.Errorf("fresh-destination merge accounting: rows %d frob2 %g, want %d %g",
			dst2.InputRows(), dst2.InputFrob2(), other.InputRows(), other.InputFrob2())
	}
}

// Snapshot must agree with Matrix() (which commits the pending shrink) while
// leaving the sketch untouched.
func TestSnapshotMatchesMatrixWithoutMutation(t *testing.T) {
	const d, ell = 10, 4
	rng := rand.New(rand.NewSource(17))
	s := New(d, ell, Options{})
	fillRandom(t, s, rng, s.WorkingSpaceRows())
	pre := captureState(s)

	snap, _, err := s.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	pre.assertUnchanged(t, s, "snapshot")

	m, err := s.Matrix() // commits the shrink
	if err != nil {
		t.Fatalf("matrix: %v", err)
	}
	if snap.Rows() != m.Rows() || snap.Cols() != m.Cols() {
		t.Fatalf("snapshot %dx%d vs matrix %dx%d", snap.Rows(), snap.Cols(), m.Rows(), m.Cols())
	}
	for i := range snap.Data() {
		if math.Float64bits(snap.Data()[i]) != math.Float64bits(m.Data()[i]) {
			t.Fatalf("snapshot and committed shrink differ at flat index %d", i)
		}
	}
}

// A merge that fails partway (a non-finite row in the source's sketch) must
// restore the destination's input accounting to its pre-merge values.
func TestMergeRestoresAccountingOnError(t *testing.T) {
	const d, ell = 8, 4
	rng := rand.New(rand.NewSource(23))

	other := New(d, ell, Options{})
	fillRandom(t, other, rng, 3) // used ≤ ℓ: Snapshot copies the buffer as-is
	other.buf.Row(2)[0] = math.NaN()

	dst := New(d, ell, Options{})
	fillRandom(t, dst, rng, 5)
	preRows, preFrob2 := dst.InputRows(), dst.InputFrob2()

	err := dst.Merge(other)
	if err == nil {
		t.Fatal("merge of a poisoned source succeeded")
	}
	if dst.InputRows() != preRows || dst.InputFrob2() != preFrob2 {
		t.Errorf("accounting not rolled back: rows %d→%d, frob2 %g→%g",
			preRows, dst.InputRows(), preFrob2, dst.InputFrob2())
	}
	if dst.Err() != nil {
		t.Errorf("a rejected row must not latch a sketch error: %v", dst.Err())
	}
	// The destination must remain usable after the failed merge.
	fillRandom(t, dst, rng, 2)
	if dst.InputRows() != preRows+2 {
		t.Errorf("post-failure updates: InputRows = %d, want %d", dst.InputRows(), preRows+2)
	}
}

// TestMergeCarriesCertificate: after Merge, the target's ErrorBound covers
// everything fed into either sketch — the source's shrink charges included,
// and the charge of the private shrink when the source's buffer holds more
// than ℓ rows. It merges into an empty and into a non-empty target and
// measures the covariance error with the Jacobi oracle.
func TestMergeCarriesCertificate(t *testing.T) {
	const d, ell = 16, 4
	rng := rand.New(rand.NewSource(43))
	a := workload.Gaussian(rng, 400, d)
	c := workload.Gaussian(rng, 150, d)
	for _, tc := range []struct {
		name string
		seed *matrix.Dense // rows fed to the target before the merge
	}{{"empty", nil}, {"non-empty", c}} {
		src := New(d, ell, Options{})
		if err := src.UpdateMatrix(a); err != nil {
			t.Fatal(err)
		}
		dst := New(d, ell, Options{})
		all := a
		if tc.seed != nil {
			if err := dst.UpdateMatrix(tc.seed); err != nil {
				t.Fatal(err)
			}
			all = matrix.Stack(tc.seed, a)
		}
		if err := dst.Merge(src); err != nil {
			t.Fatal(err)
		}
		b, err := dst.Matrix()
		if err != nil {
			t.Fatal(err)
		}
		coverr, err := linalg.SpectralNormSym(all.Gram().Sub(b.Gram()))
		if err != nil {
			t.Fatal(err)
		}
		if bound := dst.ErrorBound(); bound < coverr {
			t.Errorf("%s target: ErrorBound %.6e below coverr %.6e", tc.name, bound, coverr)
		}
	}
}

// BufferRows below ℓ+1 is a configuration error, not a request to be
// silently reinterpreted.
func TestBufferRowsBelowMinimumPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted BufferRows < ℓ+1")
		}
	}()
	New(10, 5, Options{BufferRows: 5})
}

func TestBufferRowsDefaultAndMinimum(t *testing.T) {
	if got := New(10, 5, Options{}).WorkingSpaceRows(); got != 10 {
		t.Errorf("default BufferRows = %d, want 2ℓ = 10", got)
	}
	if got := New(10, 5, Options{BufferRows: 6}).WorkingSpaceRows(); got != 6 {
		t.Errorf("BufferRows = %d, want ℓ+1 = 6 accepted as-is", got)
	}
	if got := New(matrix.New(1, 3).Cols(), 1, Options{}).WorkingSpaceRows(); got != 2 {
		t.Errorf("ℓ=1 default BufferRows = %d, want ℓ+1 = 2", got)
	}
}
