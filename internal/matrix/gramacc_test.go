package matrix

import (
	"math"
	"math/rand"
	"testing"
)

// TestGramAccumulatorMatchesGram: streaming rows through the panel gives
// the bits of Gram() on the stacked matrix, for dense and sparse rows, on
// both kernel paths, across row counts that end mid-group and mid-panel.
func TestGramAccumulatorMatchesGram(t *testing.T) {
	for _, simd := range []bool{true, false} {
		prev := setSIMD(simd)
		for _, d := range []int{1, 7, 32, 100} {
			p := panelRows(d)
			for _, n := range []int{0, 1, 3, 4, 5, p - 1, p, p + 1, 2*p + 3} {
				rng := rand.New(rand.NewSource(int64(n*131 + d)))
				a := randDense(rng, n, d)
				for i := 0; i < n; i++ { // make it sparse-ish
					for j := 0; j < d; j++ {
						if rng.Intn(3) == 0 {
							a.Set(i, j, 0)
						}
					}
				}
				dense, sparse := NewGramAccumulator(d), NewGramAccumulator(d)
				for i := 0; i < n; i++ {
					dense.Add(a.Row(i))
					sparse.AddSparse(SparseFromDense(a.Row(i), 0))
				}
				want := a.Gram()
				for name, acc := range map[string]*GramAccumulator{"dense": dense, "sparse": sparse} {
					if got := acc.Gram(); !got.Equal(want) {
						t.Fatalf("simd=%v d=%d n=%d %s: Gram differs from Dense.Gram", simd, d, n, name)
					}
					if math.Float64bits(acc.Frob2()) != math.Float64bits(a.Frob2()) {
						t.Fatalf("simd=%v d=%d n=%d %s: frob2 %v, want %v", simd, d, n, name, acc.Frob2(), a.Frob2())
					}
				}
			}
		}
		setSIMD(prev)
	}
}

func TestGramAccumulatorRowLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewGramAccumulator(3).Add([]float64{1, 2})
}
