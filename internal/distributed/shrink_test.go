package distributed

import (
	"context"
	"testing"

	"repro/internal/fd"
	"repro/internal/linalg"
)

// TestRunFDMergeShrinkStrategies: the shrink rule runs end to end at every
// α — star and tree — keeping the (ε,0) covariance guarantee, and α never
// moves a single metered word (the sketch shapes on the wire do not depend
// on it).
func TestRunFDMergeShrinkStrategies(t *testing.T) {
	ctx := context.Background()
	eps := 0.25
	a, parts := split(t, 31, 512, 12, 8)
	base, err := Run(ctx, FDMerge{Eps: eps}, parts, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, alpha := range []float64{1, 0.5} {
		alpha := alpha
		t.Run(fd.Options{Alpha: alpha}.Rule(), func(t *testing.T) {
			res, err := Run(ctx, FDMerge{Eps: eps}, parts, WithSeed(1), WithAlpha(alpha))
			if err != nil {
				t.Fatal(err)
			}
			if res.Words != base.Words || res.Messages != base.Messages {
				t.Fatalf("α moved communication: words %v→%v, messages %d→%d",
					base.Words, res.Words, base.Messages, res.Messages)
			}
			if alpha == 1 && !res.Sketch.Equal(base.Sketch) {
				t.Fatal("α = 1 differs from the default rule")
			}
			ce, err := linalg.CovarianceError(a, res.Sketch)
			if err != nil {
				t.Fatal(err)
			}
			if budget := eps * a.Frob2(); ce > budget+1e-9 {
				t.Fatalf("coverr %v > ε‖A‖F² = %v", ce, budget)
			}
			tree, err := Run(ctx, FDMerge{Eps: eps}, parts,
				WithSeed(1), WithAlpha(alpha), WithTopology(Tree(2)))
			if err != nil {
				t.Fatalf("tree: %v", err)
			}
			// Power-of-two fan-outs group exactly as the canonical reduction,
			// so the tree stays bit-identical to the star at every α.
			if !tree.Sketch.Equal(res.Sketch) {
				t.Fatal("tree sketch differs from star under the same α")
			}
		})
	}
}
