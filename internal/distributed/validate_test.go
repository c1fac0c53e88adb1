package distributed

import (
	"context"
	"math"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/workload"
)

// touchedSource records whether any party started reading it.
type touchedSource struct {
	RowSource
	touched *atomic.Bool
}

func (s touchedSource) Next() ([]float64, bool) {
	s.touched.Store(true)
	return s.RowSource.Next()
}

func (s touchedSource) Reset() error {
	s.touched.Store(true)
	return s.RowSource.Reset()
}

// TestIllegalParamsFailInCaller runs every built-in protocol with one
// illegal parameter. The failure must be observed here, in the calling
// goroutine, as an error, and before any party exists: a bad parameter that
// first panics inside a spawned server goroutine (fd.SketchSize did, for
// FDMerge{Eps: 1.5}, while validation was optional) kills the process, which
// no caller can recover from. The second fd-merge row's bad parameter is a
// run option, the shrink rule's α. The SketchPCA rows reject, in turn, an
// inner sketch's ε, a straggler quorum (PCA needs every server), k = 0, a
// tree topology, a nil sketch and a product protocol as the sketch. The
// last rows pass a quantization step that is 0, negative, NaN or infinite,
// which the quantizer inside a server's send would panic on. The checks
// after the rows call Validate directly, as a role-by-role TCP caller does.
func TestIllegalParamsFailInCaller(t *testing.T) {
	a, parts := split(t, 71, 60, 8, 3)
	var touched atomic.Bool
	watch := func(srcs []RowSource) []RowSource {
		for i, src := range srcs {
			srcs[i] = touchedSource{RowSource: src, touched: &touched}
		}
		return srcs
	}
	cov := CovarianceInputs(watch(workload.DenseSources(parts)))
	prod, err := ProductShards(a.Rows(), watch(workload.DenseSources(parts)), watch(workload.DenseSources(parts)))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		proto  Protocol
		inputs []Input
		opts   []RunOption
	}{
		{FDMerge{Eps: 1.5, K: 1}, cov, nil},
		{FDMerge{Eps: 0.2, K: 1}, cov, []RunOption{WithAlpha(1.5)}},
		{SVS{Alpha: 0.2, Delta: 1}, cov, nil},
		{SVS{Alpha: 0, Delta: 0.1}, cov, nil},
		{RowSampling{Eps: -0.1}, cov, nil},
		{Adaptive{AdaptiveParams: AdaptiveParams{Eps: 0.2, K: 0}}, cov, nil},
		{LowRankExact{KBound: 0}, cov, nil},
		{SketchPCA{Sketch: Adaptive{AdaptiveParams: AdaptiveParams{Eps: 1, K: 2}}, K: 2}, cov, nil},
		{BWZ{PCAParams: PCAParams{K: 0, Eps: 0.2}}, cov, nil},
		{PCACombined{PCAParams: PCAParams{K: -1, Eps: 0.2}}, cov, nil},
		{SketchPCA{Sketch: FDMerge{Eps: 1, K: 2}, K: 2}, cov, nil},
		{SketchPCA{Sketch: FDMerge{Eps: 0.1, K: 2}, K: 2}, cov, []RunOption{WithStragglers(StragglerPolicy{Quorum: 2})}},
		{SketchPCA{Sketch: FDMerge{Eps: 0.1, K: 2}, K: 0}, cov, nil},
		{SketchPCA{Sketch: FDMerge{Eps: 0.1, K: 2}, K: 2}, cov, []RunOption{WithTopology(Tree(2))}},
		{SketchPCA{K: 2}, cov, nil},
		{SketchPCA{Sketch: CoordinatedProduct{SampleSize: 8}, K: 2}, cov, nil},
		{CoordinatedProduct{SampleSize: 1}, prod, nil},
		{FDMerge{Eps: 0.3, K: 1}, cov, []RunOption{WithQuantization(0)}},
		{FDMerge{Eps: 0.3, K: 1}, cov, []RunOption{WithQuantization(-1e-3)}},
		{SVS{Alpha: 0.2, Delta: 0.1}, cov, []RunOption{WithQuantization(math.NaN())}},
		{Adaptive{AdaptiveParams: AdaptiveParams{Eps: 0.2, K: 1}}, cov, []RunOption{WithQuantization(math.Inf(1))}},
	}
	for _, tc := range cases {
		t.Run(tc.proto.Name(), func(t *testing.T) {
			touched.Store(false)
			before := runtime.NumGoroutine()
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("panicked instead of returning an error: %v", r)
					}
				}()
				if _, err := RunWorkload(context.Background(), tc.proto, tc.inputs, tc.opts...); err == nil {
					t.Errorf("%+v: expected an error", tc.proto)
				}
			}()
			// A party goroutine left running keeps the count above before.
			// The count may fall (an unrelated goroutine ending mid-row), and
			// a goroutine that is already ending gets up to a second.
			after := runtime.NumGoroutine()
			for deadline := time.Now().Add(time.Second); after > before && time.Now().Before(deadline); {
				time.Sleep(10 * time.Millisecond)
				after = runtime.NumGoroutine()
			}
			if after > before {
				t.Errorf("party goroutines were started: %d goroutines before, %d after", before, after)
			}
			if touched.Load() {
				t.Error("a server started reading its input")
			}
		})
	}
	// Role-by-role callers install Config and Topology on the Env
	// themselves; Validate must reject the same steps there, and a tree
	// plan under a star-only protocol.
	for _, step := range []float64{-1e-3, math.NaN(), math.Inf(1)} {
		p := FDMerge{Eps: 0.3, K: 1, Env: Env{Servers: 3, Dim: 8, Config: Config{QuantStep: step}}}
		if err := Validate(p); err == nil {
			t.Errorf("Validate accepted quantization step %v", step)
		}
	}
	tree, err := Tree(2).Plan(4)
	if err != nil {
		t.Fatal(err)
	}
	svs := SVS{Alpha: 0.2, Delta: 0.1, Env: Env{Servers: 4, Dim: 8, Topology: tree}}
	if err := Validate(svs); err == nil || !strings.Contains(err.Error(), "does not support tree aggregation") {
		t.Errorf("Validate(SVS under %s) = %v, want a star-only error", tree, err)
	}
}
