package fd

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/linalg"
	"repro/internal/matrix"
	"repro/internal/workload"
)

// mergeableStrategies is the set every merge-path property must hold for;
// extending the strategy zoo means extending this table (and the proofs).
func mergeableStrategies() []ShrinkStrategy {
	return []ShrinkStrategy{Vanilla, FastFD, AlphaFD(0.5), AlphaFD(1)}
}

func TestStrategyTable(t *testing.T) {
	cases := []struct {
		st        ShrinkStrategy
		name      string
		buf       int // DefaultBufferRows at ℓ=8
		mergeable bool
		divisor   int // MassDivisor at ℓ=8
	}{
		{Vanilla, "fd", 9, true, 9},
		{FastFD, "fast-fd", 16, true, 9},
		{ISVD, "isvd", 9, false, 0},
		{AlphaFD(0.5), "alpha-fd(0.5)", 16, true, 5},
		{AlphaFD(0.25), "alpha-fd(0.25)", 16, true, 3},
		{AlphaFD(1), "alpha-fd(1)", 16, true, 9},
		// Compensative's shrink drains like fast-fd (divisor ℓ+1); merging is
		// still off because the query-time compensation breaks the analysis.
		{Compensative, "compensative", 16, false, 9},
	}
	for _, c := range cases {
		if got := c.st.Name(); got != c.name {
			t.Errorf("Name() = %q, want %q", got, c.name)
		}
		if got := c.st.DefaultBufferRows(8); got != c.buf {
			t.Errorf("%s: DefaultBufferRows(8) = %d, want %d", c.name, got, c.buf)
		}
		if got := c.st.Mergeable(); got != c.mergeable {
			t.Errorf("%s: Mergeable() = %v, want %v", c.name, got, c.mergeable)
		}
		if got := c.st.MassDivisor(8); got != c.divisor {
			t.Errorf("%s: MassDivisor(8) = %d, want %d", c.name, got, c.divisor)
		}
	}
	// Tiny ℓ: the 2ℓ buffers never fall below the ℓ+1 minimum.
	if got := FastFD.DefaultBufferRows(1); got != 2 {
		t.Errorf("FastFD.DefaultBufferRows(1) = %d, want 2", got)
	}
}

func TestAlphaFDPanicsOutsideUnitInterval(t *testing.T) {
	for _, alpha := range []float64{0, -0.1, 1.5, math.NaN()} {
		alpha := alpha
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AlphaFD(%v) should panic", alpha)
				}
			}()
			AlphaFD(alpha)
		}()
	}
}

func TestParseStrategy(t *testing.T) {
	for _, c := range []struct {
		in    string
		alpha float64
		want  string
	}{
		{"", 0.5, "fast-fd"},
		{"fast", 0.5, "fast-fd"},
		{"fast-fd", 0.5, "fast-fd"},
		{"fastfd", 0.5, "fast-fd"},
		{"fd", 0.5, "fd"},
		{"vanilla", 0.5, "fd"},
		{"isvd", 0.5, "isvd"},
		{"alpha", 0.25, "alpha-fd(0.25)"},
		{"alpha-fd", 0.5, "alpha-fd(0.5)"},
		{"alphafd", 1, "alpha-fd(1)"},
		{"compensative", 0.5, "compensative"},
		{"cfd", 0.5, "compensative"},
	} {
		st, err := ParseStrategy(c.in, c.alpha)
		if err != nil {
			t.Fatalf("ParseStrategy(%q, %g): %v", c.in, c.alpha, err)
		}
		if st.Name() != c.want {
			t.Errorf("ParseStrategy(%q, %g) = %s, want %s", c.in, c.alpha, st.Name(), c.want)
		}
	}
	for _, c := range []struct {
		in    string
		alpha float64
	}{
		{"bogus", 0.5},
		{"alpha-fd", 0},
		{"alpha-fd", 1.5},
	} {
		if _, err := ParseStrategy(c.in, c.alpha); err == nil {
			t.Errorf("ParseStrategy(%q, %g) should fail", c.in, c.alpha)
		}
	}
}

// TestApplyCraftedSpectra pins each strategy's shrink rule on a spectrum
// where the expected output is computable by hand (ℓ=4, δ=σ²_ℓ=2).
func TestApplyCraftedSpectra(t *testing.T) {
	spectrum := []float64{10, 8, 6, 4, 2}
	cases := []struct {
		st         ShrinkStrategy
		want       []float64
		wantCharge float64
	}{
		{Vanilla, []float64{8, 6, 4, 2, 0}, 2},
		{FastFD, []float64{8, 6, 4, 2, 0}, 2},
		{ISVD, []float64{10, 8, 6, 4, 0}, 2},
		// α=0.5, m=⌈0.5·4⌉=2: subtract δ from the bottom 2 retained
		// directions (indices 2,3) and everything past ℓ.
		{AlphaFD(0.5), []float64{10, 8, 4, 2, 0}, 2},
		{AlphaFD(1), []float64{8, 6, 4, 2, 0}, 2},
		{Compensative, []float64{8, 6, 4, 2, 0}, 2},
	}
	for _, c := range cases {
		sig2 := append([]float64(nil), spectrum...)
		charge := c.st.Apply(sig2, 4)
		if charge != c.wantCharge {
			t.Errorf("%s: charge = %g, want %g", c.st.Name(), charge, c.wantCharge)
		}
		for j, want := range c.want {
			if sig2[j] != want {
				t.Errorf("%s: sig2 = %v, want %v", c.st.Name(), sig2, c.want)
				break
			}
		}
	}
	// A spectrum that already fits (σ²_ℓ = 0) charges nothing and is
	// untouched.
	for _, st := range []ShrinkStrategy{Vanilla, FastFD, ISVD, AlphaFD(0.5), Compensative} {
		sig2 := []float64{5, 3, 1, 0.5, 0}
		if charge := st.Apply(sig2, 4); charge != 0 {
			t.Errorf("%s: charge = %g on a fitting spectrum, want 0", st.Name(), charge)
		}
		if sig2[0] != 5 || sig2[3] != 0.5 {
			t.Errorf("%s: fitting spectrum mutated: %v", st.Name(), sig2)
		}
	}
}

// TestCertificateAllStrategies: for every shipped strategy the measured
// covariance error respects the sketch's own a-posteriori certificate.
func TestCertificateAllStrategies(t *testing.T) {
	for _, st := range []ShrinkStrategy{Vanilla, FastFD, ISVD, AlphaFD(0.5), AlphaFD(1), Compensative} {
		st := st
		t.Run(st.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(4))
			a := workload.Gaussian(rng, 200, 15)
			s := New(15, 8, Options{Strategy: st})
			if err := s.UpdateMatrix(a); err != nil {
				t.Fatal(err)
			}
			b, err := s.Matrix()
			if err != nil {
				t.Fatal(err)
			}
			ce, err := linalg.CovarianceError(a, b)
			if err != nil {
				t.Fatal(err)
			}
			if cert := s.ErrorBound(); ce > cert+1e-9 {
				t.Fatalf("coverr %v > certificate %v", ce, cert)
			}
			if s.Shrinks() == 0 {
				t.Fatal("workload too small: no shrink exercised")
			}
		})
	}
}

// TestDefaultStrategyIsFastFD: a nil Strategy resolves to FastFD and the
// result is bit-identical to requesting FastFD explicitly (the historical
// default path must not move).
func TestDefaultStrategyIsFastFD(t *testing.T) {
	s := New(10, 6, Options{})
	if s.Strategy().Name() != "fast-fd" {
		t.Fatalf("default strategy = %s, want fast-fd", s.Strategy().Name())
	}
	rng := rand.New(rand.NewSource(7))
	a := workload.Gaussian(rng, 120, 10)
	explicit := New(10, 6, Options{Strategy: FastFD})
	if err := s.UpdateMatrix(a); err != nil {
		t.Fatal(err)
	}
	if err := explicit.UpdateMatrix(a); err != nil {
		t.Fatal(err)
	}
	bd, err := s.Matrix()
	if err != nil {
		t.Fatal(err)
	}
	be, err := explicit.Matrix()
	if err != nil {
		t.Fatal(err)
	}
	if !bd.Equal(be) {
		t.Fatal("nil-strategy sketch differs from explicit FastFD")
	}
}

// TestErrorBoundClampedByInputMass: the certificate never exceeds ‖A‖F²,
// which is itself a trivial upper bound on the covariance error for
// shrink-only sketches (0 ⪯ AᵀA − BᵀB ⪯ AᵀA).
func TestErrorBoundClampedByInputMass(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := workload.Gaussian(rng, 60, 8)
	s := New(8, 4, Options{})
	if err := s.UpdateMatrix(a); err != nil {
		t.Fatal(err)
	}
	if s.ErrorBound() != s.TotalShrinkage() {
		t.Fatalf("unclamped regime: ErrorBound %g != TotalShrinkage %g",
			s.ErrorBound(), s.TotalShrinkage())
	}
	// Force the pathological accounting the clamp guards against: the bound
	// must fall back to the input mass.
	s.totalDelta = 3 * s.inputFrob2
	if got := s.ErrorBound(); got != s.inputFrob2 {
		t.Fatalf("clamped regime: ErrorBound %g, want InputFrob2 %g", got, s.inputFrob2)
	}
}

// TestCompensativeQueryPath: Matrix() on a compensative sketch adds the
// Δ/2-per-direction compensation at query time without mutating the live
// buffer — repeated queries and continued updates must agree bit for bit
// with a fresh run — and compensation never grows the Gram above AᵀA + Δ·I.
func TestCompensativeQueryPath(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := workload.Gaussian(rng, 180, 12)
	s := New(12, 6, Options{Strategy: Compensative})
	if err := s.UpdateMatrix(a); err != nil {
		t.Fatal(err)
	}
	b1, err := s.Matrix()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := s.Matrix()
	if err != nil {
		t.Fatal(err)
	}
	if !b1.Equal(b2) {
		t.Fatal("repeated Matrix() calls differ: query-time compensation mutated the sketch")
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !snap.Equal(b1) {
		t.Fatal("Snapshot disagrees with Matrix on a settled compensative sketch")
	}
	// Compensation adds at most Δ = TotalShrinkage per direction:
	// BᵀB ⪯ AᵀA + Δ·I, i.e. λmax(BᵀB − AᵀA) ≤ Δ.
	diff := b1.Gram().Sub(a.Gram())
	e, err := linalg.ComputeEigSym(diff)
	if err != nil {
		t.Fatal(err)
	}
	if max := e.Values[0]; max > s.TotalShrinkage()+1e-9 {
		t.Fatalf("compensation overshoots: λmax(BᵀB−AᵀA) = %g > Δ = %g", max, s.TotalShrinkage())
	}
}

func TestCheckMergeable(t *testing.T) {
	for _, st := range mergeableStrategies() {
		if err := CheckMergeable(st); err != nil {
			t.Errorf("%s: unexpected CheckMergeable error: %v", st.Name(), err)
		}
	}
	if err := CheckMergeable(nil); err != nil {
		t.Errorf("nil (default): unexpected CheckMergeable error: %v", err)
	}
	for _, st := range []ShrinkStrategy{ISVD, Compensative} {
		err := CheckMergeable(st)
		if err == nil || !strings.Contains(err.Error(), "no mergeability proof") {
			t.Errorf("%s: CheckMergeable = %v, want mergeability error", st.Name(), err)
		}
	}
}

// TestMergeRejectsNonMergeable: both the pairwise Merge and the canonical
// reduction refuse strategies without a merge proof, loudly.
func TestMergeRejectsNonMergeable(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	a := workload.Gaussian(rng, 40, 6)
	for _, st := range []ShrinkStrategy{ISVD, Compensative} {
		x := New(6, 4, Options{Strategy: st})
		y := New(6, 4, Options{})
		if err := x.UpdateMatrix(a); err != nil {
			t.Fatal(err)
		}
		if err := y.UpdateMatrix(a); err != nil {
			t.Fatal(err)
		}
		if err := y.Merge(x); err == nil || !strings.Contains(err.Error(), "no mergeability proof") {
			t.Errorf("%s source: Merge = %v, want mergeability error", st.Name(), err)
		}
		if err := x.Merge(y); err == nil || !strings.Contains(err.Error(), "no mergeability proof") {
			t.Errorf("%s dest: Merge = %v, want mergeability error", st.Name(), err)
		}
		_, err := MergeCanonical(6, 4, []*matrix.Dense{a}, Options{Strategy: st})
		if err == nil || !strings.Contains(err.Error(), "no mergeability proof") {
			t.Errorf("%s: MergeCanonical = %v, want mergeability error", st.Name(), err)
		}
	}
}

// TestPropMergeBoundPerStrategy: for every mergeable strategy, canonically
// merging per-part sketches of a random split keeps the covariance error of
// the merged sketch within the strategy's mass-drain bound
// ‖A‖F²/MassDivisor(ℓ) against the materialized union A — the property that
// justifies Mergeable() = true.
func TestPropMergeBoundPerStrategy(t *testing.T) {
	for _, st := range mergeableStrategies() {
		st := st
		t.Run(st.Name(), func(t *testing.T) {
			f := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				d := 3 + rng.Intn(6)
				ell := 2 + rng.Intn(5)
				nParts := 2 + rng.Intn(4)
				a := workload.Gaussian(rng, 30+rng.Intn(60), d)
				parts := workload.Split(a, nParts, workload.RandomAssign, rng)
				sketches := make([]*matrix.Dense, len(parts))
				for i, p := range parts {
					s := New(d, ell, Options{Strategy: st})
					if err := s.UpdateMatrix(p); err != nil {
						return false
					}
					m, err := s.Matrix()
					if err != nil {
						return false
					}
					sketches[i] = m
				}
				b, err := MergeCanonical(d, ell, sketches, Options{Strategy: st})
				if err != nil {
					return false
				}
				ce, err := linalg.CovarianceError(a, b)
				if err != nil {
					return false
				}
				return ce <= a.Frob2()/float64(st.MassDivisor(ell))+1e-9
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPropGroupingInvariancePerStrategy: the canonical reduction stays
// grouping-invariant over consecutive power-of-two groups under every
// mergeable strategy — the property the tree topology's bit-identity rests
// on, per strategy.
func TestPropGroupingInvariancePerStrategy(t *testing.T) {
	for _, st := range mergeableStrategies() {
		st := st
		t.Run(st.Name(), func(t *testing.T) {
			d, ell := 7, 5
			rng := rand.New(rand.NewSource(23))
			a := workload.Gaussian(rng, 192, d)
			parts := workload.Split(a, 8, workload.Contiguous, nil)
			opts := Options{Strategy: st}
			sketches := make([]*matrix.Dense, len(parts))
			for i, p := range parts {
				s := New(d, ell, opts)
				if err := s.UpdateMatrix(p); err != nil {
					t.Fatal(err)
				}
				m, err := s.Matrix()
				if err != nil {
					t.Fatal(err)
				}
				sketches[i] = m
			}
			flat, err := MergeCanonical(d, ell, sketches, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, group := range []int{2, 4} {
				var tops []*matrix.Dense
				for lo := 0; lo < len(sketches); lo += group {
					m, err := MergeCanonical(d, ell, sketches[lo:lo+group], opts)
					if err != nil {
						t.Fatal(err)
					}
					tops = append(tops, m)
				}
				got, err := MergeCanonical(d, ell, tops, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !got.Equal(flat) {
					t.Fatalf("group size %d: hierarchical merge differs from flat canonical merge", group)
				}
			}
		})
	}
}
