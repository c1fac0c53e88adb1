package fd

import (
	"math/rand"
	"testing"

	"repro/internal/matrix"
	"repro/internal/workload"
)

// feedHalves streams a into s up to row mid, snapshots, restores, feeds the
// rest into the restored sketch, and returns (restored, uninterrupted).
func feedHalves(t *testing.T, a *matrix.Dense, ell, mid int, opts Options) (*Sketch, *Sketch) {
	t.Helper()
	_, d := a.Dims()
	full := New(d, ell, opts)
	if err := full.UpdateMatrix(a); err != nil {
		t.Fatal(err)
	}
	first := New(d, ell, opts)
	if err := first.UpdateMatrix(a.SliceRows(0, mid)); err != nil {
		t.Fatal(err)
	}
	st, err := first.State()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := FromState(st, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.UpdateMatrix(a.SliceRows(mid, a.Rows())); err != nil {
		t.Fatal(err)
	}
	return restored, full
}

func sketchesIdentical(t *testing.T, got, want *Sketch) {
	t.Helper()
	if got.Shrinks() != want.Shrinks() {
		t.Errorf("shrinks %d != %d", got.Shrinks(), want.Shrinks())
	}
	if got.TotalShrinkage() != want.TotalShrinkage() {
		t.Errorf("total shrinkage %v != %v", got.TotalShrinkage(), want.TotalShrinkage())
	}
	if got.InputRows() != want.InputRows() || got.InputFrob2() != want.InputFrob2() {
		t.Errorf("input accounting (%d, %v) != (%d, %v)", got.InputRows(), got.InputFrob2(), want.InputRows(), want.InputFrob2())
	}
	gm, err := got.Matrix()
	if err != nil {
		t.Fatal(err)
	}
	wm, err := want.Matrix()
	if err != nil {
		t.Fatal(err)
	}
	gr, gc := gm.Dims()
	wr, wc := wm.Dims()
	if gr != wr || gc != wc {
		t.Fatalf("sketch dims %dx%d != %dx%d", gr, gc, wr, wc)
	}
	gd, wd := gm.Data(), wm.Data()
	for i := range gd {
		if gd[i] != wd[i] {
			t.Fatalf("sketch data differs at %d: %v != %v (restore must be bit-exact)", i, gd[i], wd[i])
		}
	}
}

// TestStateRestoreBitExact is the core checkpoint property: snapshot at an
// arbitrary point (including mid-buffer, between shrinks), restore, finish
// the stream — every certificate counter and every sketch entry matches an
// uninterrupted run exactly. Raw-buffer capture means no precision loss.
func TestStateRestoreBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := workload.Gaussian(rng, 157, 12)
	for _, opts := range []Options{{}, {BufferRows: 7}, {Alpha: 0.5}} {
		for _, mid := range []int{0, 1, 19, 64, 100, 156, 157} {
			restored, full := feedHalves(t, a, 6, mid, opts)
			sketchesIdentical(t, restored, full)
		}
	}
}

func TestStateRejectsStrategyMismatch(t *testing.T) {
	s := New(4, 3, Options{Alpha: 0.5})
	st, err := s.State()
	if err != nil {
		t.Fatal(err)
	}
	if st.Strategy != "alpha-fd(0.5)" {
		t.Fatalf("state records rule %q, want alpha-fd(0.5)", st.Strategy)
	}
	if _, err := FromState(st, Options{Alpha: 1}); err == nil {
		t.Fatal("restore at α = 1 of an α = 0.5 snapshot must fail")
	}
	if _, err := FromState(st, Options{Alpha: 0.5}); err != nil {
		t.Fatalf("restore at the snapshot's own α: %v", err)
	}
}

// TestStateDefaultRuleNameIsFastFD pins the checkpoint format: the default
// rule (α = 0 or 1) records "fast-fd", the name every earlier checkpoint
// carries, so those checkpoints still restore.
func TestStateDefaultRuleNameIsFastFD(t *testing.T) {
	for _, alpha := range []float64{0, 1} {
		st, err := New(4, 3, Options{Alpha: alpha}).State()
		if err != nil {
			t.Fatal(err)
		}
		if st.Strategy != "fast-fd" {
			t.Fatalf("α = %v records rule %q, want fast-fd", alpha, st.Strategy)
		}
		if _, err := FromState(st, Options{}); err != nil {
			t.Fatalf("α = %v: default restore: %v", alpha, err)
		}
	}
}

func TestStateRejectsCorruptShape(t *testing.T) {
	s := New(4, 3, Options{})
	if err := s.Update([]float64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	st, err := s.State()
	if err != nil {
		t.Fatal(err)
	}
	bad := *st
	bad.Buffer = matrix.New(1, 5) // wrong d
	if _, err := FromState(&bad, Options{}); err == nil {
		t.Error("wrong-width buffer must fail")
	}
	bad = *st
	bad.BufferRows = 2 // below ℓ+1
	if _, err := FromState(&bad, Options{}); err == nil {
		t.Error("bufferRows below ℓ+1 must fail")
	}
	bad = *st
	bad.InputRows = 0 // fewer inputs than buffered rows
	if _, err := FromState(&bad, Options{}); err == nil {
		t.Error("inconsistent counters must fail")
	}
}
