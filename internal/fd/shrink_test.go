package fd

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/linalg"
	"repro/internal/matrix"
	"repro/internal/workload"
)

// rule is one configuration every certificate and merge-path property must
// hold for.
type rule struct {
	name       string
	alpha      float64
	ellPlusOne bool // Liberty's original ℓ+1 buffer instead of the 2ℓ default
}

func (r rule) options(ell int) Options {
	o := Options{Alpha: r.alpha}
	if r.ellPlusOne {
		o.BufferRows = ell + 1
	}
	return o
}

// rules: the default rule as the zero value, one α < 1, α = 1 spelled out,
// and the default rule on the ℓ+1 buffer (one shrink per row once warm).
var rules = []rule{
	{"fast-fd", 0, false},
	{"alpha-fd(0.5)", 0.5, false},
	{"alpha-fd(1)", 1, false},
	{"fd", 1, true},
}

func TestStrategyTable(t *testing.T) {
	cases := []struct {
		alpha    float64
		name     string
		eligible int // ⌈αℓ⌉ at ℓ=8
	}{
		{0, "fast-fd", 8},
		{1, "fast-fd", 8},
		{0.5, "alpha-fd(0.5)", 4},
		{0.25, "alpha-fd(0.25)", 2},
		{0.01, "alpha-fd(0.01)", 1},
	}
	for _, c := range cases {
		o := Options{Alpha: c.alpha}
		if got := o.Rule(); got != c.name {
			t.Errorf("Rule() at α=%v = %q, want %q", c.alpha, got, c.name)
		}
		if got := New(4, 8, o).WorkingSpaceRows(); got != 16 {
			t.Errorf("%s: default buffer %d rows, want 2ℓ = 16", c.name, got)
		}
		if c.alpha > 0 {
			if got := eligible(8, c.alpha); got != c.eligible {
				t.Errorf("%s: eligible(8) = %d, want %d", c.name, got, c.eligible)
			}
		}
	}
	// Tiny ℓ: the 2ℓ buffer is exactly the ℓ+1 minimum.
	if got := New(3, 1, Options{}).WorkingSpaceRows(); got != 2 {
		t.Errorf("default buffer at ℓ=1 = %d, want 2", got)
	}
}

func TestAlphaFDPanicsOutsideUnitInterval(t *testing.T) {
	for _, alpha := range []float64{-0.1, 1.5, math.NaN(), math.Inf(1)} {
		alpha := alpha
		if err := CheckAlpha(alpha); err == nil {
			t.Errorf("CheckAlpha(%v) = nil, want an error", alpha)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New with α = %v should panic", alpha)
				}
			}()
			New(4, 3, Options{Alpha: alpha})
		}()
	}
}

// TestApplyCraftedSpectra pins the shrink rule on a spectrum where the
// expected output is computable by hand (ℓ=4, δ=σ²_ℓ=2).
func TestApplyCraftedSpectra(t *testing.T) {
	spectrum := []float64{10, 8, 6, 4, 2}
	cases := []struct {
		alpha float64
		want  []float64
	}{
		{1, []float64{8, 6, 4, 2, 0}},
		// α=0.5, m=⌈0.5·4⌉=2: subtract δ from the bottom 2 retained
		// directions (indices 2,3) and everything past ℓ.
		{0.5, []float64{10, 8, 4, 2, 0}},
	}
	for _, c := range cases {
		sig2 := append([]float64(nil), spectrum...)
		if charge := shrinkSpectrum(sig2, 4, c.alpha); charge != 2 {
			t.Errorf("α=%v: charge = %g, want 2", c.alpha, charge)
		}
		for j, want := range c.want {
			if sig2[j] != want {
				t.Errorf("α=%v: sig2 = %v, want %v", c.alpha, sig2, c.want)
				break
			}
		}
	}
	// A spectrum that already fits (σ²_ℓ = 0) charges nothing and is
	// untouched.
	for _, alpha := range []float64{1, 0.5} {
		sig2 := []float64{5, 3, 1, 0.5, 0}
		if charge := shrinkSpectrum(sig2, 4, alpha); charge != 0 {
			t.Errorf("α=%v: charge = %g on a fitting spectrum, want 0", alpha, charge)
		}
		if sig2[0] != 5 || sig2[3] != 0.5 {
			t.Errorf("α=%v: fitting spectrum mutated: %v", alpha, sig2)
		}
	}
}

// TestCertificateAllStrategies: for every rule the measured covariance
// error respects the sketch's own a-posteriori certificate.
func TestCertificateAllStrategies(t *testing.T) {
	for _, r := range rules {
		r := r
		t.Run(r.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(4))
			a := workload.Gaussian(rng, 200, 15)
			s := New(15, 8, r.options(8))
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

// TestDefaultStrategyIsFastFD: the zero α is α = 1, and both are
// bit-identical to the classic FD shrink on the 2ℓ buffer (the historical
// default path must not move).
func TestDefaultStrategyIsFastFD(t *testing.T) {
	s := New(10, 6, Options{})
	if got := (Options{}).Rule(); got != "fast-fd" {
		t.Fatalf("default rule = %s, want fast-fd", got)
	}
	rng := rand.New(rand.NewSource(7))
	a := workload.Gaussian(rng, 120, 10)
	explicit := New(10, 6, Options{Alpha: 1})
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
		t.Fatal("zero-α sketch differs from explicit α = 1")
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

// TestPropMergeBoundPerStrategy: for every rule, canonically merging
// per-part sketches of a random split keeps the covariance error of the
// merged sketch within the mass-drain bound ‖A‖F²/(⌈αℓ⌉+1) against the
// materialized union A — the property FD mergeability rests on.
func TestPropMergeBoundPerStrategy(t *testing.T) {
	for _, r := range rules {
		r := r
		t.Run(r.name, func(t *testing.T) {
			f := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				d := 3 + rng.Intn(6)
				ell := 2 + rng.Intn(5)
				nParts := 2 + rng.Intn(4)
				opts := r.options(ell)
				a := workload.Gaussian(rng, 30+rng.Intn(60), d)
				parts := workload.Split(a, nParts, workload.RandomAssign, rng)
				sketches := make([]*matrix.Dense, len(parts))
				for i, p := range parts {
					s := New(d, ell, opts)
					if err := s.UpdateMatrix(p); err != nil {
						return false
					}
					m, err := s.Matrix()
					if err != nil {
						return false
					}
					sketches[i] = m
				}
				b, err := MergeCanonical(d, ell, sketches, opts)
				if err != nil {
					return false
				}
				ce, err := linalg.CovarianceError(a, b)
				if err != nil {
					return false
				}
				alpha := r.alpha
				if alpha == 0 {
					alpha = 1 // the zero value stands for α = 1
				}
				return ce <= a.Frob2()/float64(eligible(ell, alpha)+1)+1e-9
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPropGroupingInvariancePerStrategy: the canonical reduction stays
// grouping-invariant over consecutive power-of-two groups for every rule —
// the property the tree topology's bit-identity rests on.
func TestPropGroupingInvariancePerStrategy(t *testing.T) {
	for _, r := range rules {
		r := r
		t.Run(r.name, func(t *testing.T) {
			d, ell := 7, 5
			opts := r.options(ell)
			rng := rand.New(rand.NewSource(23))
			a := workload.Gaussian(rng, 192, d)
			parts := workload.Split(a, 8, workload.Contiguous, nil)
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
