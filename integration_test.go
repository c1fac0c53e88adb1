package repro

// End-to-end integration tests across modules: workload generation → file
// round trip → row partitioning → distributed protocols (in-memory and TCP)
// → sketch verification → PCA — the full pipeline a user of this library
// would run, asserted against the paper's guarantees.

import (
	"context"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/distributed"
	"repro/internal/fd"
	"repro/internal/linalg"
	"repro/internal/matrix"
	"repro/internal/pca"
	"repro/internal/workload"
)

func TestEndToEndSketchPipeline(t *testing.T) {
	// 1. Generate a workload and persist it, as cmd/genmatrix would.
	rng := rand.New(rand.NewSource(100))
	a := workload.LowRankPlusNoise(rng, 1024, 32, 4, 60, 0.75, 0.3)
	path := filepath.Join(t.TempDir(), "a.dskm")
	if err := workload.SaveMatrix(path, a); err != nil {
		t.Fatal(err)
	}
	loaded, err := workload.LoadMatrix(path)
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.Equal(a) {
		t.Fatal("file round trip lost data")
	}

	// 2. Partition and run every covariance-sketch protocol; all must meet
	// their guarantee on the same input.
	eps, k := 0.2, 4
	parts := workload.Split(loaded, 8, workload.RoundRobin, nil)
	seed := distributed.WithSeed(42)

	ctx := context.Background()
	det, err := distributed.Run(ctx, distributed.FDMerge{Eps: eps, K: k}, parts, seed)
	if err != nil {
		t.Fatal(err)
	}
	assertSketch(t, "fd-merge", a, det.Sketch, eps, k)

	ad, err := distributed.Run(ctx, distributed.Adaptive{AdaptiveParams: distributed.AdaptiveParams{Eps: eps, K: k}}, parts, seed)
	if err != nil {
		t.Fatal(err)
	}
	assertSketch(t, "adaptive", a, ad.Sketch, 3*eps, k)

	svs, err := distributed.Run(ctx, distributed.SVS{Alpha: eps, Delta: 0.1}, parts, seed)
	if err != nil {
		t.Fatal(err)
	}
	assertSketch(t, "svs", a, svs.Sketch, 4*eps, 0)

	// 3. The paper's separation on this input: randomized cheaper than
	// deterministic in both regimes.
	if ad.Words >= det.Words {
		t.Errorf("adaptive %v words not below FD merge %v", ad.Words, det.Words)
	}

	// 4. PCA from the adaptive sketch (Theorem 9 via Lemma 8).
	v, err := pca.SketchPCs(ad.Sketch, k)
	if err != nil {
		t.Fatal(err)
	}
	ratio, err := pca.QualityRatio(a, v, k)
	if err != nil {
		t.Fatal(err)
	}
	if ratio > 1+6*eps {
		t.Errorf("PCA ratio %v from adaptive sketch", ratio)
	}

	// 5. Low-rank approximation via Lemma 1 from the deterministic sketch.
	vDet, err := pca.TopKRightSV(det.Sketch, k)
	if err != nil {
		t.Fatal(err)
	}
	pe := pca.ProjectionCost(a, vDet)
	tail, err := linalg.TailEnergy(a, k)
	if err != nil {
		t.Fatal(err)
	}
	ce, err := core.CovErr(a, det.Sketch)
	if err != nil {
		t.Fatal(err)
	}
	if pe > tail+2*float64(k)*ce+1e-9 {
		t.Errorf("Lemma 1 violated end-to-end: %v > %v + 2k·%v", pe, tail, ce)
	}
}

func assertSketch(t *testing.T, name string, a, b *matrix.Dense, eps float64, k int) {
	t.Helper()
	ok, ce, bound, err := core.IsEpsKSketch(a, b, eps, k)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !ok {
		t.Errorf("%s: coverr %v > budget %v", name, ce, bound)
	}
}

func TestEndToEndTCPPipeline(t *testing.T) {
	// The same pipeline over real sockets: a coordinator and 3 servers in
	// separate goroutines with independent meters, speaking the wire codec.
	ctx := context.Background()
	rng := rand.New(rand.NewSource(101))
	a := workload.ClusteredGaussians(rng, 600, 24, 3, 25, 1.0)
	parts := workload.Split(a, 3, workload.Contiguous, nil)
	eps, k := 0.2, 3
	proto := distributed.Adaptive{
		AdaptiveParams: distributed.AdaptiveParams{Eps: eps, K: k},
		Env:            distributed.Env{Servers: 3, Dim: 24},
	}

	coord, err := distributed.NewTCPCoordinatorOpts("127.0.0.1:0", 3, nil, distributed.TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 3)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			srv, err := distributed.DialTCPServerContext(context.Background(), coord.Addr(), id, nil, distributed.TCPOptions{})
			if err != nil {
				errs <- err
				return
			}
			defer srv.Close()
			p := proto
			p.Env.Config.Seed = int64(id)
			if err := p.Server(ctx, srv.Node(), distributed.CovarianceInput(workload.NewDenseSource(parts[id]))); err != nil {
				errs <- err
			}
		}(i)
	}
	if err := coord.Accept(ctx); err != nil {
		t.Fatal(err)
	}
	res, err := proto.Coordinator(ctx, coord.Node())
	if err != nil {
		t.Fatal(err)
	}
	sketch := res.Sketch
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	ok, ce, bound, err := core.IsEpsKSketch(a, sketch, 3*eps, k)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("TCP adaptive sketch: %v > %v", ce, bound)
	}
}

func TestEndToEndStreamingMemoryModel(t *testing.T) {
	// The one-pass claim: a server processes its rows strictly as a stream
	// with bounded buffer, and the final merged result still meets the
	// guarantee — the distributed streaming model of §1.
	rng := rand.New(rand.NewSource(102))
	a := workload.PowerLawSpectrum(rng, 900, 20, 1.0, 15)
	eps := 0.15
	parts := workload.Split(a, 3, workload.Contiguous, nil)
	merged := fd.New(20, fd.SketchSize(eps, 0), fd.Options{})
	for _, p := range parts {
		local := fd.New(20, fd.SketchSize(eps, 0), fd.Options{})
		stream := workload.NewDenseSource(p)
		for row, ok := stream.Next(); ok; row, ok = stream.Next() {
			if err := local.Update(row); err != nil {
				t.Fatal(err)
			}
		}
		if local.WorkingSpaceRows() > 2*fd.SketchSize(eps, 0) {
			t.Fatal("working space exceeds O(1/ε) rows")
		}
		if err := merged.Merge(local); err != nil {
			t.Fatal(err)
		}
	}
	b, err := merged.Matrix()
	if err != nil {
		t.Fatal(err)
	}
	ce, err := core.CovErr(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if ce > eps*a.Frob2() {
		t.Fatalf("streaming pipeline coverr %v > ε‖A‖F² = %v", ce, eps*a.Frob2())
	}
}
