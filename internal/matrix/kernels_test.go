package matrix

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/parallel"
)

// relTol compares entrywise with a relative tolerance scaled by magnitude.
func relTol(t *testing.T, name string, got, want *Dense, tol float64) {
	t.Helper()
	gr, gc := got.Dims()
	wr, wc := want.Dims()
	if gr != wr || gc != wc {
		t.Fatalf("%s: dims %dx%d != %dx%d", name, gr, gc, wr, wc)
	}
	scale := want.MaxAbs()
	if scale < 1 {
		scale = 1
	}
	for i := 0; i < gr; i++ {
		for j := 0; j < gc; j++ {
			if d := math.Abs(got.At(i, j) - want.At(i, j)); d > tol*scale {
				t.Fatalf("%s: entry (%d,%d) got %v want %v (|diff|=%g > %g)",
					name, i, j, got.At(i, j), want.At(i, j), d, tol*scale)
			}
		}
	}
}

func relTolVec(t *testing.T, name string, got, want []float64, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d != %d", name, len(got), len(want))
	}
	scale := 1.0
	for _, v := range want {
		if a := math.Abs(v); a > scale {
			scale = a
		}
	}
	for i := range got {
		if d := math.Abs(got[i] - want[i]); d > tol*scale {
			t.Fatalf("%s: entry %d got %v want %v", name, i, got[i], want[i])
		}
	}
}

func kernelRand(r, c int, seed int64) *Dense {
	rng := rand.New(rand.NewSource(seed))
	m := New(r, c)
	for i := range m.data {
		m.data[i] = rng.NormFloat64()
	}
	return m
}

func kernelRandVec(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// TestBlockedKernelsMatchReference exercises the blocked kernels against
// the serial reference loops across shapes that hit every path: group and
// panel remainders, sub-group matrices, and empty dimensions. The blocked
// kernels reorder each entry's products into fixed fused groups of four,
// so the comparison uses a tolerance (see kernels.go); exact equality is
// only promised across pool widths, not against the reference chain.
func TestBlockedKernelsMatchReference(t *testing.T) {
	shapes := []struct{ n, d, c int }{
		{1, 1, 1},
		{3, 2, 5},
		{4, 4, 4},
		{5, 3, 2},
		{17, 7, 9},
		{64, 16, 8},
		{130, 33, 31},
		{257, 64, 12},
		{1031, 48, 48},
	}
	for _, s := range shapes {
		m := kernelRand(s.n, s.d, int64(1000*s.n+s.d))
		b := kernelRand(s.n, s.c, int64(2000*s.n+s.c))
		k := kernelRand(s.d, s.c, int64(3000*s.d+s.c))
		bt := kernelRand(s.c, s.d, int64(4000*s.c+s.d))
		x := kernelRandVec(s.d, int64(s.n))
		y := kernelRandVec(s.n, int64(s.d))

		relTol(t, "Mul", m.Mul(k), RefMul(m, k), 1e-13)
		relTol(t, "TMul", m.TMul(b), RefTMul(m, b), 1e-12)
		relTol(t, "MulT", m.MulT(bt), RefMulT(m, bt), 1e-13)
		relTol(t, "Gram", m.Gram(), RefGram(m), 1e-12)
		relTolVec(t, "MulVec", m.MulVec(x), RefMulVec(m, x), 1e-13)
		relTolVec(t, "TMulVec", m.TMulVec(y), RefTMulVec(m, y), 1e-12)
	}
}

// TestBlockedKernelsEmpty checks the degenerate shapes don't panic and
// produce correctly-sized zero results.
func TestBlockedKernelsEmpty(t *testing.T) {
	empty := New(0, 5)
	if g := empty.Gram(); g.Rows() != 5 || g.Cols() != 5 || g.Frob2() != 0 {
		t.Fatalf("Gram of 0×5 = %v", g)
	}
	if p := empty.TMul(New(0, 3)); p.Rows() != 5 || p.Cols() != 3 {
		t.Fatalf("TMul of empty = %v", p)
	}
	wide := New(3, 0)
	if g := wide.Gram(); g.Rows() != 0 || g.Cols() != 0 {
		t.Fatalf("Gram of 3×0 = %v", g)
	}
	if out := New(2, 0).Mul(New(0, 4)); out.Rows() != 2 || out.Cols() != 4 || out.Frob2() != 0 {
		t.Fatalf("Mul with empty inner dim = %v", out)
	}
}

// TestAxpy4SIMDMatchesGeneric cross-checks the SIMD micro-kernel against
// the portable loop on every lane-count class (8-wide body, 4-wide step,
// scalar tail). The SIMD path fuses multiply-add, so a small tolerance
// covers the removed intermediate rounding.
func TestAxpy4SIMDMatchesGeneric(t *testing.T) {
	if !simdAvailable {
		t.Skip("no SIMD micro-kernel on this platform")
	}
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 16, 31, 64, 100} {
		dst := make([]float64, n)
		ref := make([]float64, n)
		rows := make([][]float64, 4)
		for i := range dst {
			dst[i] = rng.NormFloat64()
			ref[i] = dst[i]
		}
		for r := range rows {
			rows[r] = make([]float64, n)
			for i := range rows[r] {
				rows[r][i] = rng.NormFloat64()
			}
		}
		v := [4]float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		axpy4SIMD(dst, rows[0], rows[1], rows[2], rows[3], v[0], v[1], v[2], v[3])
		axpy4Generic(ref, rows[0], rows[1], rows[2], rows[3], v[0], v[1], v[2], v[3])
		for i := range dst {
			if math.Abs(dst[i]-ref[i]) > 1e-13*(1+math.Abs(ref[i])) {
				t.Fatalf("n=%d lane %d: simd %v generic %v", n, i, dst[i], ref[i])
			}
		}
	}
}

// TestKernelsGenericPathMatches runs the full kernels with SIMD forced
// off and checks the portable path agrees with the reference loops too.
func TestKernelsGenericPathMatches(t *testing.T) {
	prev := setSIMD(false)
	defer setSIMD(prev)
	m := kernelRand(203, 37, 5)
	b := kernelRand(203, 21, 6)
	k := kernelRand(37, 29, 8)
	relTol(t, "Gram(generic)", m.Gram(), RefGram(m), 1e-12)
	relTol(t, "TMul(generic)", m.TMul(b), RefTMul(m, b), 1e-12)
	relTol(t, "Mul(generic)", m.Mul(k), RefMul(m, k), 1e-13)
}

// TestRowGramLowerMatchesMulT: each lower-triangle entry is MulT's dot bit
// for bit, across row counts that end mid-group, and the strict upper
// triangle stays zero.
func TestRowGramLowerMatchesMulT(t *testing.T) {
	for _, n := range []int{0, 1, 3, 4, 7, 33} {
		m := kernelRand(n, 19, int64(n))
		got, want := m.RowGramLower(), m.MulT(m)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				w := want.At(i, j)
				if j > i {
					w = 0
				}
				if g := got.At(i, j); math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("n=%d (%d,%d): %v, want %v", n, i, j, g, w)
				}
			}
		}
	}
}

// TestGramSymmetric: the mirrored lower triangle must equal the computed
// upper triangle exactly (it is copied, not recomputed).
func TestGramSymmetric(t *testing.T) {
	m := kernelRand(97, 23, 9)
	g := m.Gram()
	for i := 0; i < 23; i++ {
		for j := i + 1; j < 23; j++ {
			if g.At(i, j) != g.At(j, i) {
				t.Fatalf("Gram not exactly symmetric at (%d,%d)", i, j)
			}
		}
	}
}

// TestAppendRowNeverAliases is the regression test for the AppendRow
// aliasing hazard: the old three-index append shared the backing array
// with m whenever spare capacity had been pre-grown (e.g. a SliceRows
// view of a taller matrix), so writes to the result leaked into the
// source. The contract is now an unconditional copy.
func TestAppendRowNeverAliases(t *testing.T) {
	// Case 1: SliceRows view with capacity beyond rows*cols.
	tall := kernelRand(6, 3, 1)
	orig := tall.Clone()
	view := tall.SliceRows(0, 2) // backing array has room for 4 more rows
	ext := view.AppendRow([]float64{7, 8, 9})
	ext.Set(2, 0, 1e9)
	ext.Set(0, 0, 1e9)
	if !tall.Equal(orig) {
		t.Fatalf("AppendRow result aliases the source: source mutated\n%v", tall)
	}
	// Case 2: the appended row slice must be copied too.
	row := []float64{1, 2, 3}
	ext2 := view.AppendRow(row)
	row[0] = -42
	if ext2.At(2, 0) == -42 {
		t.Fatal("AppendRow shares the appended row slice")
	}
	// Case 3: empty matrix adopts the row by copy.
	var empty Dense
	ext3 := empty.AppendRow(row)
	row[1] = -43
	if ext3.At(0, 1) == -43 {
		t.Fatal("AppendRow on empty matrix shares the row slice")
	}
}

// TestGramNoSteadyAllocs: the Gram kernel must not allocate beyond its
// output (no packing buffers) — the CI benchmark smoke enforces the same
// invariant via BenchmarkGram's reported allocs. At pool width 1 the only
// allocations are the output struct, its data slice, and the parallel.For
// closure.
func TestGramNoSteadyAllocs(t *testing.T) {
	prev := parallel.Workers()
	parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)
	m := kernelRand(256, 32, 3)
	allocs := testing.AllocsPerRun(20, func() {
		_ = m.Gram()
	})
	if allocs > 3 {
		t.Fatalf("Gram allocates %v times per call; want ≤3 (output + closure)", allocs)
	}
}
