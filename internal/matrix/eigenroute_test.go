package matrix_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
	"repro/internal/matrix"
	"repro/internal/workload"
)

// TestEigenRouteBitsIndependentOfSIMD runs RightFactor's eigen route with
// the SIMD kernels on and off, on the shapes the benchmark's shrinks and
// SVS servers factor: every λ and every row must agree bit for bit, because
// the route's kernels round every product before adding it.
//
// The blocked Gram AᵀA and the wide branch's final u·Ā product fuse on the
// SIMD path, as they always have, so each case feeds the route a fixed
// input: a tall A enters as its Gram, and a wide A checks Factor's λ (its
// Gram ĀĀᵀ is FMA-free) and the u_j, the rows of FactorGram(ĀĀᵀ).
func TestEigenRouteBitsIndependentOfSIMD(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	wide, tall, svs := workload.Gaussian(rng, 176, 256), workload.Gaussian(rng, 80, 64), workload.Gaussian(rng, 2048, 256)
	cases := []struct {
		name string
		a    *matrix.Dense // Factor(a): λ only
		gram *matrix.Dense // FactorGram(gram, n): λ and rows
		n    int
	}{
		{name: "wide 176x256", a: wide, gram: wide.MulT(wide), n: 256},
		{name: "tall 80x64", gram: tall.Gram(), n: 80},
		{name: "svs gram 256x256", gram: svs.Gram(), n: 2048},
	}
	run := func(t *testing.T, simd bool, a, gram *matrix.Dense, n int) (lambda, gramLambda []float64, rows *matrix.Dense) {
		defer matrix.SetSIMD(matrix.SetSIMD(simd))
		var f linalg.RightFactor
		if a != nil {
			if err := f.Factor(a); err != nil {
				t.Fatal(err)
			}
			lambda = append(lambda, f.Lambda...)
		}
		if err := f.FactorGram(gram, n); err != nil {
			t.Fatal(err)
		}
		gramLambda = append(gramLambda, f.Lambda...)
		return lambda, gramLambda, f.Top(f.Rank())
	}
	sameBits := func(t *testing.T, what string, got, want []float64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d entries with SIMD, %d without", what, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s[%d] = %v with SIMD, %v without", what, i, got[i], want[i])
			}
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wl, wg, wr := run(t, false, tc.a, tc.gram, tc.n)
			gl, gg, gr := run(t, true, tc.a, tc.gram, tc.n)
			sameBits(t, "Factor λ", gl, wl)
			sameBits(t, "FactorGram λ", gg, wg)
			if gr.Rows() == 0 {
				t.Fatal("rank 0")
			}
			sameBits(t, "rows", gr.Data(), wr.Data())
		})
	}
}
