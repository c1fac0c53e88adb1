package distributed

import (
	"context"
	"strings"
	"testing"

	"repro/internal/fd"
	"repro/internal/linalg"
)

// TestRunFDMergeShrinkStrategies: every mergeable strategy runs end to end
// — star and tree — keeping the (ε,0) covariance guarantee, and strategy
// choice never moves a single metered word (the sketch shapes on the wire
// are strategy-independent).
func TestRunFDMergeShrinkStrategies(t *testing.T) {
	ctx := context.Background()
	eps := 0.25
	a, parts := split(t, 31, 512, 12, 8)
	base, err := Run(ctx, FDMerge{Eps: eps}, parts, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []fd.ShrinkStrategy{fd.Vanilla, fd.FastFD, fd.AlphaFD(0.5)} {
		st := st
		t.Run(st.Name(), func(t *testing.T) {
			res, err := Run(ctx, FDMerge{Eps: eps}, parts, WithSeed(1), WithShrink(st))
			if err != nil {
				t.Fatal(err)
			}
			if res.Words != base.Words || res.Messages != base.Messages {
				t.Fatalf("strategy moved communication: words %v→%v, messages %d→%d",
					base.Words, res.Words, base.Messages, res.Messages)
			}
			ce, err := linalg.CovarianceError(a, res.Sketch)
			if err != nil {
				t.Fatal(err)
			}
			if budget := eps * a.Frob2(); ce > budget+1e-9 {
				t.Fatalf("coverr %v > ε‖A‖F² = %v", ce, budget)
			}
			tree, err := Run(ctx, FDMerge{Eps: eps}, parts,
				WithSeed(1), WithShrink(st), WithTopology(Tree(2)))
			if err != nil {
				t.Fatalf("tree: %v", err)
			}
			// Power-of-two fan-outs group exactly as the canonical reduction,
			// so the tree stays bit-identical to the star per strategy.
			if !tree.Sketch.Equal(res.Sketch) {
				t.Fatal("tree sketch differs from star under the same strategy")
			}
		})
	}
}

// TestRunFDMergeRejectsNonMergeable: a strategy without a merge proof fails
// the run loudly — star and tree alike — instead of shipping an uncertified
// merged sketch.
func TestRunFDMergeRejectsNonMergeable(t *testing.T) {
	ctx := context.Background()
	_, parts := split(t, 37, 256, 10, 4)
	for _, st := range []fd.ShrinkStrategy{fd.ISVD, fd.Compensative} {
		st := st
		t.Run(st.Name(), func(t *testing.T) {
			_, err := Run(ctx, FDMerge{Eps: 0.25}, parts, WithSeed(1), WithShrink(st))
			if err == nil || !strings.Contains(err.Error(), "no mergeability proof") {
				t.Fatalf("star: err = %v, want mergeability rejection", err)
			}
			_, err = Run(ctx, FDMerge{Eps: 0.25}, parts,
				WithSeed(1), WithShrink(st), WithTopology(Tree(2)))
			if err == nil || !strings.Contains(err.Error(), "no mergeability proof") {
				t.Fatalf("tree: err = %v, want mergeability rejection", err)
			}
		})
	}
}
