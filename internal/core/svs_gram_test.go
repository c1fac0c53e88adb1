package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
	"repro/internal/matrix"
	"repro/internal/workload"
)

// sameRowsUpToSign reports the first row of got that is not within tol
// (relative to its norm) of the same row of want or of its negation.
func sameRowsUpToSign(got, want *matrix.Dense, tol float64) error {
	if got.Rows() != want.Rows() || got.Cols() != want.Cols() {
		return fmt.Errorf("shape %d×%d, want %d×%d", got.Rows(), got.Cols(), want.Rows(), want.Cols())
	}
	for i := 0; i < want.Rows(); i++ {
		w, g := want.Row(i), got.Row(i)
		plus, minus := 0.0, 0.0
		for l := range w {
			plus += (g[l] - w[l]) * (g[l] - w[l])
			minus += (g[l] + w[l]) * (g[l] + w[l])
		}
		if diff := math.Sqrt(math.Min(plus, minus)); diff > tol*matrix.Norm(w) {
			return fmt.Errorf("row %d differs by %.3e (norm %.3e)", i, diff, matrix.Norm(w))
		}
	}
	return nil
}

// TestSVSGramRouteMatchesJacobi: the Gram route keeps the same rows as the
// route SVS took before it factored the Gram, SVSFromSVD(ComputeSVD(A)) — the same count in the same order, each within 1e-10 of
// its reference up to sign, so the same singular indices — and leaves the
// rng exactly where the Jacobi route leaves it. It also prints, for every
// configuration, the charge the squaring adds: the max(n,d)·ε·‖A‖₂² below
// which eigenvalues are zeroed, against the α‖A‖F² the guarantee is in.
func TestSVSGramRouteMatchesJacobi(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	inputs := []struct {
		name string
		a    *matrix.Dense
	}{
		{"tall 300×20", workload.LowRankPlusNoise(rng, 300, 20, 4, 10, 0.7, 0.3)},
		{"tall 512×64", workload.PowerLawSpectrum(rng, 512, 64, 1, 100)},
		{"wide 12×40", workload.LowRankPlusNoise(rng, 12, 40, 3, 10, 0.7, 0.3)},
		{"wide 40×96", workload.PowerLawSpectrum(rng, 40, 96, 1, 100)},
		{"rank-6 tall 200×30", workload.LowRankPlusNoise(rng, 200, 30, 6, 10, 0.8, 0)},
		{"rank-6 wide 20×50", workload.LowRankPlusNoise(rng, 20, 50, 6, 10, 0.8, 0)},
		{"zero-row 0×10", matrix.New(0, 10)},
		{"one-row 1×10", workload.Gaussian(rng, 1, 10)},
	}
	kept := 0
	for _, in := range inputs {
		n, d := in.a.Dims()
		frob2 := in.a.Frob2()
		svd, err := linalg.ComputeSVD(in.a)
		if err != nil {
			t.Fatal(err)
		}
		norm2 := 0.0
		if len(svd.Sigma) > 0 {
			norm2 = svd.Sigma[0] * svd.Sigma[0]
		}
		for _, alpha := range []float64{0.05, 0.3} {
			charge := float64(max(n, d)) * 0x1p-52 * norm2
			t.Logf("%-20s α=%.2f  squaring charge %.2e = %.1e·α‖A‖F²",
				in.name, alpha, charge, charge/math.Max(alpha*frob2, math.SmallestNonzeroFloat64))
			if charge > 1e-6*alpha*frob2 {
				t.Errorf("%s: squaring charge %.3e above 1e-6·α‖A‖F² = %.3e", in.name, charge, 1e-6*alpha*frob2)
			}
			for _, sampling := range []SamplingFn{SampleQuadratic, SampleLinear} {
				g := sampling.Build(4, d, alpha, 0.1, 4*frob2)
				for seed := int64(1); seed <= 6; seed++ {
					refRNG, gotRNG := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
					want := SVSFromSVD(svd, g, refRNG)
					got, err := SVS(in.a, g, gotRNG)
					if err != nil {
						t.Fatal(err)
					}
					if err := sameRowsUpToSign(got, want, 1e-10); err != nil {
						t.Fatalf("%s α=%v %s seed %d: %v", in.name, alpha, sampling, seed, err)
					}
					kept += got.Rows()
					if r, w := gotRNG.Float64(), refRNG.Float64(); r != w {
						t.Fatalf("%s α=%v %s seed %d: rng drawn a different number of times (next %v, want %v)",
							in.name, alpha, sampling, seed, r, w)
					}
				}
			}
		}
	}
	if kept == 0 {
		t.Fatal("no configuration kept a row; the comparison is vacuous")
	}
	t.Logf("%d rows kept over all configurations", kept)
}

// TestSVSGramIsSVSOfTheRows: SVSGram on a streamed Gram is SVS on the
// rows themselves — bit for bit for a tall matrix, whose SVS factors the
// same Gram — and a wide matrix keeps only min(n,d) candidates.
func TestSVSGramIsSVSOfTheRows(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, dims := range [][2]int{{200, 16}, {16, 16}, {6, 16}} {
		a := workload.LowRankPlusNoise(rng, dims[0], dims[1], 4, 10, 0.7, 0.3)
		g := NewLinearSampling(1, dims[1], 0.05, 0.1, a.Frob2())
		want, err := SVS(a, g, rand.New(rand.NewSource(3)))
		if err != nil {
			t.Fatal(err)
		}
		gotRNG := rand.New(rand.NewSource(3))
		got, err := SVSGram(a.Gram(), dims[0], g, gotRNG)
		if err != nil {
			t.Fatal(err)
		}
		if dims[0] >= dims[1] {
			if !got.Equal(want) {
				t.Fatalf("%v: SVSGram differs from SVS", dims)
			}
		} else if err := sameRowsUpToSign(got, want, 1e-10); err != nil {
			t.Fatalf("%v: %v", dims, err)
		}
		if got.Rows() > min(dims[0], dims[1]) {
			t.Fatalf("%v: %d rows from a rank-%d input", dims, got.Rows(), min(dims[0], dims[1]))
		}
	}
}

// TestSVSExtremeScales: SVS keeping every row of a 256×32 Gaussian input,
// and of its 32×256 transpose, scaled by 1e-160 or 1e160, returns the
// unit-scale output times the scale, within 1e-12 relative. The Gram of
// such an input under- or overflows, so this relies on the factor's
// power-of-two prescale.
func TestSVSExtremeScales(t *testing.T) {
	tall := workload.Gaussian(rand.New(rand.NewSource(42)), 256, 32)
	for _, a := range []*matrix.Dense{tall, tall.T()} {
		want, err := SVS(a, KeepAll{}, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		for _, scale := range []float64{1e-160, 1e160} {
			got, err := SVS(a.Scale(scale), KeepAll{}, rand.New(rand.NewSource(1)))
			if err != nil {
				t.Fatalf("%d×%d at scale %g: %v", a.Rows(), a.Cols(), scale, err)
			}
			if !got.IsFinite() || got.Rows() != want.Rows() {
				t.Fatalf("%d×%d at scale %g: %d rows, finite %v; want %d finite rows",
					a.Rows(), a.Cols(), scale, got.Rows(), got.IsFinite(), want.Rows())
			}
			if diff := got.Scale(1 / scale).Sub(want).Frob(); diff > 1e-12*want.Frob() {
				t.Fatalf("%d×%d at scale %g: ‖B/scale − B₁‖F = %.3e, above 1e-12·‖B₁‖F = %.3e",
					a.Rows(), a.Cols(), scale, diff, 1e-12*want.Frob())
			}
		}
	}
}
