package distributed

import (
	"context"
	"testing"

	"repro/internal/parallel"
)

// The worker pool's width is a local-compute setting only: rerunning a
// protocol at a different pool width must move zero communication words,
// and the deterministic protocols must produce the identical sketch.
func TestParallelismDoesNotChangeWords(t *testing.T) {
	defer parallel.SetWorkers(0)
	_, parts := split(t, 3, 512, 24, 4)
	ctx := context.Background()

	protos := []Protocol{
		FDMerge{Eps: 0.2, K: 2},
		SVS{Alpha: 0.2, Delta: 0.1},
		RowSampling{Eps: 0.2},
		Adaptive{AdaptiveParams: AdaptiveParams{Eps: 0.2, K: 2}},
	}
	for _, proto := range protos {
		parallel.SetWorkers(1)
		serial, err := Run(ctx, proto, parts, WithSeed(7))
		if err != nil {
			t.Fatalf("%s at width 1: %v", proto.Name(), err)
		}
		parallel.SetWorkers(4)
		wide, err := Run(ctx, proto, parts, WithSeed(7))
		if err != nil {
			t.Fatalf("%s at width 4: %v", proto.Name(), err)
		}
		if serial.Words != wide.Words {
			t.Errorf("%s: words moved with pool width: %v (w=1) vs %v (w=4)",
				proto.Name(), serial.Words, wide.Words)
		}
		if serial.Sketch != nil && wide.Sketch != nil {
			if serial.Sketch.Rows() != wide.Sketch.Rows() || serial.Sketch.Cols() != wide.Sketch.Cols() {
				t.Errorf("%s: sketch shape moved with pool width", proto.Name())
			}
		}
	}
}
