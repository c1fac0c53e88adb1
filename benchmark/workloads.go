package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/distributed"
	"repro/internal/linalg"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/workload"
)

// numServers is s in every workload.
const numServers = 4

// newWorkload returns the named workload at its reference size, or at a size
// that runs in well under a second with smoke.
func newWorkload(name string, smoke bool) (load, error) {
	switch name {
	case "fd-dense-mem":
		if smoke {
			return &fdDenseMem{n: 512, d: 32, k: 2, eps: 0.2}, nil
		}
		return &fdDenseMem{n: 2048, d: 256, k: 8, eps: 0.1}, nil
	case "fd-sparse-tcp-tree":
		if smoke {
			return &fdSparseTree{rowsPerLeaf: 128, d: 64, k: 2, eps: 0.2, density: 0.05}, nil
		}
		return &fdSparseTree{rowsPerLeaf: 264, d: 512, k: 8, eps: 0.1, density: 0.01}, nil
	case "svs-dense-tcp":
		if smoke {
			return &svsDense{n: 512, d: 32, alpha: 0.05, delta: 0.1}, nil
		}
		return &svsDense{n: 2048, d: 256, alpha: 0.05, delta: 0.1}, nil
	case "product-sparse-tcp":
		if smoke {
			return &productSparse{n: 4000, d: 64, sample: 200, density: 0.05}, nil
		}
		return &productSparse{n: 100000, d: 1024, sample: 4000, density: 0.01}, nil
	case "service-ingest-query":
		if smoke {
			return &serviceIngest{rowsPerServer: 1500, d: 16, eps: 0.1, think: 2 * time.Millisecond}, nil
		}
		return &serviceIngest{rowsPerServer: 2500, d: 64, eps: 0.1, think: 50 * time.Millisecond}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// decorate wraps every source of the inputs in the timing decorator.
func decorate(raw []distributed.Input) []distributed.Input {
	out := make([]distributed.Input, len(raw))
	for i, in := range raw {
		out[i] = in
		out[i].A = traceSource(in.A)
		if in.B != nil {
			out[i].B = traceSource(in.B)
		}
	}
	return out
}

// resetInputs rewinds every source: a drained source reused as it is would
// feed the next repetition no rows.
func resetInputs(inputs []distributed.Input) error {
	for _, in := range inputs {
		if err := in.A.Reset(); err != nil {
			return err
		}
		if in.B != nil {
			if err := in.B.Reset(); err != nil {
				return err
			}
		}
	}
	return nil
}

// epsKRatio is IsEpsKSketch's measured error ÷ its budget, coverr(A,B) ÷
// (ε·‖A−[A]_k‖F²/k), computed from AᵀA alone: the tail energy is the sum of
// its eigenvalues past the k-th, so the check costs one d×d eigenvalue
// problem instead of an SVD of all of A. k = 0 gives the (ε,0) budget ε‖A‖F².
func epsKRatio(gramA, b *matrix.Dense, eps float64, k int) (float64, error) {
	coverr, err := linalg.SpectralNormSymFast(gramA.Sub(b.Gram()))
	if err != nil {
		return 0, err
	}
	budget := eps * gramA.Trace()
	if k > 0 {
		vals, err := linalg.EigenvaluesSym(gramA)
		if err != nil {
			return 0, err
		}
		// Non-increasing: everything past the k largest is the tail.
		tail := 0.0
		for _, v := range vals[min(k, len(vals)):] {
			tail += math.Max(v, 0)
		}
		budget = eps * tail / float64(k)
	}
	if !(budget > 0) {
		return 0, fmt.Errorf("certificate budget is %v", budget)
	}
	return coverr / budget, nil
}

// ---------------------------------------------------------------------------
// fd-dense-mem
// ---------------------------------------------------------------------------

// fdDenseMem is the paper's Theorem 2 protocol with the wire nearly free:
// FDMerge through the one in-process driver over a MemNetwork, star, float64,
// on a dense low-rank-plus-noise matrix split contiguously.
type fdDenseMem struct {
	n, d, k int
	eps     float64

	seed   int64
	a      *matrix.Dense
	parts  []*matrix.Dense
	raw    []distributed.Input
	inputs []distributed.Input
	ob     *obs.Observer
}

func (w *fdDenseMem) deterministic() bool { return true }
func (w *fdDenseMem) proto() distributed.FDMerge {
	return distributed.FDMerge{Eps: w.eps, K: w.k}
}

func (w *fdDenseMem) generate(seed int64) {
	w.seed = seed
	w.a = workload.LowRankPlusNoise(rand.New(rand.NewSource(seed)), w.n, w.d, w.k, 60, 0.7, 0.5)
	w.parts = workload.Split(w.a, numServers, workload.Contiguous, nil)
	w.raw = distributed.CovarianceInputs(workload.DenseSources(w.parts))
}

func (w *fdDenseMem) deploy(_ context.Context, ob *obs.Observer) error {
	w.ob, w.inputs = ob, w.raw
	if ob != nil {
		w.inputs = decorate(w.raw)
	}
	return nil
}

func (w *fdDenseMem) undeploy() {}

func (w *fdDenseMem) rep(ctx context.Context, tc *traceCtx) (*repOut, error) {
	if err := resetInputs(w.inputs); err != nil {
		return nil, err
	}
	meter := comm.NewMeter()
	opts := []distributed.RunOption{distributed.WithMeter(meter), distributed.WithSeed(w.seed)}
	if w.ob != nil {
		opts = append(opts, distributed.WithObserver(w.ob))
	}
	t0 := time.Now()
	res, err := distributed.RunWorkload(ctx, w.proto(), w.inputs, opts...)
	wall := time.Since(t0)
	if err != nil {
		return nil, err
	}
	if tc != nil {
		// The driver owns the role goroutines here, so the sources' time
		// hangs under the repetition itself.
		for _, in := range w.inputs {
			tc.flushInput(in, tc.repSpan)
		}
	}
	if res.Words != meter.Words() || res.Bits != meter.Bits() {
		return nil, fmt.Errorf("Result reports %v words, the meter %v", res.Words, meter.Words())
	}
	plan, err := distributed.Star().Plan(numServers)
	if err != nil {
		return nil, err
	}
	up, down := wordsByDirection(meter, plan)
	return &repOut{
		rows: w.n, wall: wall, words: res.Words, result: res.Sketch, res: res,
		latenciesMS: []float64{ms(wall)},
		uplink:      up, downlink: down, messages: res.Messages, rounds: res.Rounds,
	}, nil
}

func (w *fdDenseMem) check(out *repOut) (float64, error) {
	return epsKRatio(w.a.Gram(), out.result, w.eps, w.k)
}

// ---------------------------------------------------------------------------
// TCP batch workloads
// ---------------------------------------------------------------------------

// tcpBatch is what the three batch workloads over loopback TCP share: a
// cluster dialled at deploy and reused by every repetition, and a protocol
// value driven role by role over it.
type tcpBatch struct {
	topo   distributed.Topology
	rows   int   // input rows one repetition consumes
	rounds int64 // lockstep rounds of the protocol (the in-process driver counts these; here no driver runs)

	seed   int64
	raw    []distributed.Input
	inputs []distributed.Input
	proto  distributed.Protocol // with its Env filled in, at deploy
	c      *cluster
}

func (b *tcpBatch) deterministic() bool { return true }

// env is the cluster shape a protocol driven outside the Run driver must be
// told by hand.
func (b *tcpBatch) env(ob *obs.Observer, cfg distributed.Config) distributed.Env {
	plan, err := b.topo.Plan(numServers)
	if err != nil {
		panic(err)
	}
	_, d := b.raw[0].A.Dims()
	dB := 0
	if b.raw[0].B != nil {
		_, dB = b.raw[0].B.Dims()
	}
	cfg.Seed, cfg.Obs = b.seed, ob
	return distributed.Env{Servers: numServers, Dim: d, DimB: dB, Config: cfg, Topology: plan}
}

func (b *tcpBatch) deployCluster(ctx context.Context, proto distributed.Protocol, ob *obs.Observer) error {
	b.proto, b.inputs = proto, b.raw
	if ob != nil {
		b.inputs = decorate(b.raw)
	}
	c, err := dialCluster(ctx, b.topo, numServers, ob)
	b.c = c
	return err
}

func (b *tcpBatch) undeploy() {
	if b.c != nil {
		b.c.close()
		b.c = nil
	}
}

// rep is one repetition: rewind the sources, then one protocol run over the
// standing connections.
func (b *tcpBatch) rep(ctx context.Context, tc *traceCtx) (*repOut, error) {
	if b.c == nil {
		return nil, fmt.Errorf("no cluster deployed")
	}
	if err := resetInputs(b.inputs); err != nil {
		return nil, err
	}
	t0 := time.Now()
	res, err := b.c.run(ctx, b.proto, b.inputs, tc)
	wall := time.Since(t0)
	if err != nil {
		return nil, err
	}
	result := res.Sketch
	if result == nil {
		result = res.Product
	}
	up, down := wordsByDirection(b.c.meter, b.c.plan)
	return &repOut{
		rows: b.rows, wall: wall, words: b.c.meter.Words(), result: result, res: res,
		latenciesMS: []float64{ms(wall)},
		uplink:      up, downlink: down, messages: b.c.meter.Messages(), rounds: b.rounds,
	}, nil
}

// fdSparseTree runs the same fd-merge protocol through the paths
// fd-dense-mem never touches: UpdateSparse at the leaves, MergeCanonical at
// two interior aggregators, float32 rounding and the codec at every hop of a
// fan-out-2 TCP tree.
type fdSparseTree struct {
	tcpBatch
	rowsPerLeaf, d, k int
	eps, density      float64

	shards []*matrix.Sparse
}

func (w *fdSparseTree) generate(seed int64) {
	w.topo, w.rows, w.seed = distributed.Tree(2), numServers*w.rowsPerLeaf, seed
	w.rounds = 2 // one per aggregation level
	w.shards = make([]*matrix.Sparse, numServers)
	srcs := make([]workload.RowSource, numServers)
	for i := range w.shards {
		w.shards[i] = workload.SparseRandom(rand.New(rand.NewSource(seed*numServers+int64(i))), w.rowsPerLeaf, w.d, w.density)
		srcs[i] = workload.NewSparseSource(w.shards[i])
	}
	w.raw = distributed.CovarianceInputs(srcs)
}

func (w *fdSparseTree) deploy(ctx context.Context, ob *obs.Observer) error {
	proto := distributed.FDMerge{Eps: w.eps, K: w.k, Env: w.env(ob, distributed.Config{WirePrecision: comm.Float32})}
	return w.deployCluster(ctx, proto, ob)
}

func (w *fdSparseTree) check(out *repOut) (float64, error) {
	gram := matrix.New(w.d, w.d)
	for _, sh := range w.shards {
		gram = gram.Add(sh.Gram())
	}
	return epsKRatio(gram, out.result, w.eps, w.k)
}

// svsDense is the paper's randomized protocol over a TCP star: two rounds,
// and one tall Jacobi SVD per server where fd-merge runs many small ones.
type svsDense struct {
	tcpBatch
	n, d         int
	alpha, delta float64

	a     *matrix.Dense
	parts []*matrix.Dense
}

func (w *svsDense) generate(seed int64) {
	w.topo, w.rows, w.seed, w.rounds = distributed.Star(), w.n, seed, 2
	w.a = workload.PowerLawSpectrum(rand.New(rand.NewSource(seed)), w.n, w.d, 1, 100)
	w.parts = workload.Split(w.a, numServers, workload.RoundRobin, nil)
	w.raw = distributed.CovarianceInputs(workload.DenseSources(w.parts))
}

func (w *svsDense) deploy(ctx context.Context, ob *obs.Observer) error {
	proto := distributed.SVS{Alpha: w.alpha, Delta: w.delta, Sampling: distributed.SampleQuadratic, Env: w.env(ob, distributed.Config{})}
	return w.deployCluster(ctx, proto, ob)
}

// check holds the sketch to the (4α,0) budget the protocol is used at.
func (w *svsDense) check(out *repOut) (float64, error) {
	return epsKRatio(w.a.Gram(), out.result, 4*w.alpha, 0)
}

// productSparse estimates AᵀB by coordinated priority sampling over a TCP
// star. No SVD runs anywhere: the time is source iteration, the sampler, the
// CSR sample codec and the socket.
type productSparse struct {
	tcpBatch
	n, d, sample int
	density      float64

	a, b []*matrix.Sparse // per-server shards
}

func (w *productSparse) generate(seed int64) {
	w.topo, w.rows, w.seed, w.rounds = distributed.Star(), w.n, seed, 1
	w.a = make([]*matrix.Sparse, numServers)
	w.b = make([]*matrix.Sparse, numServers)
	aSrcs := make([]workload.RowSource, numServers)
	bSrcs := make([]workload.RowSource, numServers)
	for i := 0; i < numServers; i++ {
		lo, hi := workload.ContiguousRange(w.n, numServers, i)
		rng := rand.New(rand.NewSource(seed*numServers + int64(i)))
		w.a[i] = workload.SparseRandom(rng, hi-lo, w.d, w.density)
		w.b[i] = workload.SparseRandom(rng, hi-lo, w.d, w.density)
		aSrcs[i], bSrcs[i] = workload.NewSparseSource(w.a[i]), workload.NewSparseSource(w.b[i])
	}
	inputs, err := distributed.ProductShards(w.n, aSrcs, bSrcs)
	if err != nil {
		panic(err) // the shards were cut to ContiguousRange just above
	}
	w.raw = inputs
}

func (w *productSparse) deploy(ctx context.Context, ob *obs.Observer) error {
	proto := distributed.CoordinatedProduct{SampleSize: w.sample, Env: w.env(ob, distributed.Config{})}
	return w.deployCluster(ctx, proto, ob)
}

// check compares the estimate with the exact AᵀB, accumulated from the
// nonzeros of the aligned rows, against the protocol's own certificate.
func (w *productSparse) check(out *repOut) (float64, error) {
	exact := matrix.New(w.d, w.d)
	for s := range w.a {
		rows, _ := w.a[s].Dims()
		for i := 0; i < rows; i++ {
			ra, rb := w.a[s].Row(i), w.b[s].Row(i)
			for p, j := range ra.Indices {
				rb.AddTo(exact.Row(j), ra.Values[p])
			}
		}
	}
	if !(out.res.Certificate > 0) {
		return 0, fmt.Errorf("product certificate is %v", out.res.Certificate)
	}
	return core.ProductErr(out.result, exact) / out.res.Certificate, nil
}
