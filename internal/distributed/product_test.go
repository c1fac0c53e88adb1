package distributed

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/workload"
)

// productFixture builds row-aligned sparse A (n×dA) and B (n×dB) as
// streaming shard inputs plus the materialized matrices for exact checks.
func productFixture(t *testing.T, n, dA, dB, s int, density float64, seed int64) (inputs []Input, a, b *matrix.Dense) {
	t.Helper()
	aSrcs := make([]RowSource, s)
	bSrcs := make([]RowSource, s)
	for i := 0; i < s; i++ {
		lo, hi := workload.ContiguousRange(n, s, i)
		aSrcs[i] = workload.NewSectionSource(workload.NewSparseGaussianSource(n, dA, density, seed), lo, hi)
		bSrcs[i] = workload.NewSectionSource(workload.NewSparseGaussianSource(n, dB, density, seed+1), lo, hi)
	}
	inputs, err := ProductShards(n, aSrcs, bSrcs)
	if err != nil {
		t.Fatal(err)
	}
	a, err = workload.Materialize(workload.NewSparseGaussianSource(n, dA, density, seed))
	if err != nil {
		t.Fatal(err)
	}
	b, err = workload.Materialize(workload.NewSparseGaussianSource(n, dB, density, seed+1))
	if err != nil {
		t.Fatal(err)
	}
	return inputs, a, b
}

func TestCoordinatedProductWithinCertificate(t *testing.T) {
	const n, dA, dB, s, sample = 1200, 24, 18, 4, 150
	inputs, a, b := productFixture(t, n, dA, dB, s, 0.1, 17)
	res, err := RunWorkload(context.Background(), CoordinatedProduct{SampleSize: sample}, inputs, WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimand != EstimandProduct {
		t.Fatalf("result estimand = %v, want product", res.Estimand)
	}
	if res.Product == nil || res.Sketch != nil {
		t.Fatalf("product run filled the wrong output fields: %+v", res)
	}
	if r, c := res.Product.Dims(); r != dA || c != dB {
		t.Fatalf("estimate is %d×%d, want %d×%d", r, c, dA, dB)
	}
	exact := a.TMul(b)
	errF := core.ProductErr(res.Product, exact)
	if !(res.Certificate > 0) {
		t.Fatalf("certificate = %v", res.Certificate)
	}
	if errF > res.Certificate {
		t.Fatalf("‖Est−AᵀB‖F = %v exceeds certificate %v", errF, res.Certificate)
	}
	// The certificate must match the closed form on the exact input norms.
	want := core.ProductCertificate(sample, math.Sqrt(a.Frob2()), math.Sqrt(b.Frob2()))
	if math.Abs(res.Certificate-want) > 1e-9*want {
		t.Fatalf("certificate %v, want %v from the input norms", res.Certificate, want)
	}
	if res.Rounds != 1 {
		t.Fatalf("coord-product took %d rounds, want 1", res.Rounds)
	}
}

// The run's metered bits must equal the analytically predicted total: per
// server and side, one scalar word plus the cheaper of the sparse and dense
// sample encodings — nothing hidden, nothing free.
func TestCoordinatedProductWordsExact(t *testing.T) {
	const n, dA, dB, s, sample, seed = 900, 30, 22, 3, 80, 9
	inputs, a, b := productFixture(t, n, dA, dB, s, 0.05, 23)
	res, err := RunWorkload(context.Background(), CoordinatedProduct{SampleSize: sample}, inputs, WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	predict := func(m *matrix.Dense, lo, hi, d int) {
		ps := core.NewPrioritySampler(seed, sample+1)
		for i := lo; i < hi; i++ {
			ps.Offer(int64(i), matrix.SparseFromDense(m.Row(i), 0))
		}
		kept := ps.Rows()
		nnz := 0
		for _, r := range kept {
			nnz += r.Vec.NNZ()
		}
		payload := comm.SampleRowsBits(len(kept), nnz)
		if dense := int64(64) * int64(len(kept)) * int64(d+1); dense <= payload {
			payload = dense
		}
		want += 64 + payload // the Frobenius scalar + the sample
	}
	for i := 0; i < s; i++ {
		lo, hi := workload.ContiguousRange(n, s, i)
		predict(a, lo, hi, dA)
		predict(b, lo, hi, dB)
	}
	if res.Bits != want {
		t.Fatalf("metered %d bits, predicted %d", res.Bits, want)
	}
	if res.Messages != int64(2*s) {
		t.Fatalf("metered %d messages, want %d", res.Messages, 2*s)
	}
}

// Streaming the same global input through 2 shards and through 5 must give a
// bit-identical estimate and identical metered words: the sample depends on
// global row identity, not on who holds the row.
func TestCoordinatedProductShardCountInvariant(t *testing.T) {
	const n, dA, dB, sample = 700, 16, 16, 90
	run := func(s int) *Result {
		inputs, _, _ := productFixture(t, n, dA, dB, s, 0.15, 31)
		res, err := RunWorkload(context.Background(), CoordinatedProduct{SampleSize: sample}, inputs, WithSeed(3))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r2, r5 := run(2), run(5)
	d2, d5 := r2.Product.Data(), r5.Product.Data()
	for i := range d2 {
		if d2[i] != d5[i] {
			t.Fatalf("estimate differs between shard counts at entry %d: %v vs %v", i, d2[i], d5[i])
		}
	}
	// The certificate sums per-shard Frobenius scalars, so regrouping the
	// shards may move the last bit — but no more.
	if math.Abs(r2.Certificate-r5.Certificate) > 1e-12*r2.Certificate {
		t.Fatalf("certificates differ: %v vs %v", r2.Certificate, r5.Certificate)
	}
}

// The mem and TCP transports must carry the identical protocol: same
// estimate bits, same metered uplink bits.
func TestCoordinatedProductTCPMatchesMem(t *testing.T) {
	const n, dA, dB, s, sample, seed = 600, 20, 14, 3, 70, 13
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	inputs, _, _ := productFixture(t, n, dA, dB, s, 0.08, 41)
	memRes, err := RunWorkload(ctx, CoordinatedProduct{SampleSize: sample}, inputs, WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}

	// Fresh sources for the TCP pass (the mem run consumed the streams).
	inputs, _, _ = productFixture(t, n, dA, dB, s, 0.08, 41)
	proto := CoordinatedProduct{
		SampleSize: sample,
		Env:        Env{Servers: s, Dim: dA, DimB: dB, Config: Config{Seed: seed}},
	}
	coord, err := NewTCPCoordinatorOpts("127.0.0.1:0", s, nil, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	var wg sync.WaitGroup
	serverErrs := make(chan error, s)
	var mu sync.Mutex
	var uplinkBits int64
	for i := 0; i < s; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			srv, err := DialTCPServerContext(ctx, coord.Addr(), id, nil, TCPOptions{})
			if err != nil {
				serverErrs <- err
				return
			}
			defer srv.Close()
			if err := proto.Server(ctx, srv.Node(), inputs[id]); err != nil {
				serverErrs <- err
				return
			}
			mu.Lock()
			uplinkBits += srv.Meter().Bits()
			mu.Unlock()
		}(i)
	}
	if err := coord.Accept(ctx); err != nil {
		t.Fatal(err)
	}
	tcpRes, err := proto.Coordinator(ctx, coord.Node())
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(serverErrs)
	for err := range serverErrs {
		t.Fatal(err)
	}

	md, td := memRes.Product.Data(), tcpRes.Product.Data()
	for i := range md {
		if md[i] != td[i] {
			t.Fatalf("mem and TCP estimates differ at entry %d: %v vs %v", i, md[i], td[i])
		}
	}
	if memRes.Certificate != tcpRes.Certificate {
		t.Fatalf("certificates differ: mem %v, TCP %v", memRes.Certificate, tcpRes.Certificate)
	}
	if uplinkBits != memRes.Bits {
		t.Fatalf("TCP uplink %d bits, mem run %d", uplinkBits, memRes.Bits)
	}
}

// ---------------------------------------------------------------------------
// Mixed-workload rejection: Run level, gather level, tree level.
// ---------------------------------------------------------------------------

func TestRunRejectsMixedWorkloads(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(1))
	covInputs := CovarianceInputs(workload.DenseSources(
		workload.Split(workload.Gaussian(rng, 40, 8), 2, workload.Contiguous, nil)))
	a := workload.Gaussian(rng, 40, 8)
	b := workload.Gaussian(rng, 40, 6)
	prodInputs, err := ProductShardsDense(a, b, 2)
	if err != nil {
		t.Fatal(err)
	}

	// A covariance protocol handed product pairs.
	if _, err := RunWorkload(ctx, SVS{Alpha: 0.3, Delta: 0.1}, prodInputs); err == nil ||
		!strings.Contains(err.Error(), "estimates a covariance") {
		t.Fatalf("SVS over product inputs: %v", err)
	}
	// A product protocol handed covariance shards.
	if _, err := RunWorkload(ctx, CoordinatedProduct{SampleSize: 10}, covInputs); err == nil ||
		!strings.Contains(err.Error(), "estimates a matrix product") {
		t.Fatalf("coord-product over covariance inputs: %v", err)
	}
	// Run (the single-matrix entry point) with a product protocol.
	if _, err := Run(ctx, CoordinatedProduct{SampleSize: 10},
		workload.Split(a, 2, workload.Contiguous, nil)); err == nil ||
		!strings.Contains(err.Error(), "estimates a matrix product") {
		t.Fatalf("Run with coord-product: %v", err)
	}
}

func TestRunRejectsMalformedProductShards(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(1))
	a := workload.Gaussian(rng, 40, 8)
	b := workload.Gaussian(rng, 40, 6)

	// Misaligned pair: the B shard has a different row count.
	bad := []Input{
		ProductInput(workload.NewDenseSource(a.SliceRows(0, 20)), workload.NewDenseSource(b.SliceRows(0, 19)), 0),
		ProductInput(workload.NewDenseSource(a.SliceRows(20, 40)), workload.NewDenseSource(b.SliceRows(20, 40)), 20),
	}
	if _, err := RunWorkload(ctx, CoordinatedProduct{SampleSize: 10}, bad); err == nil ||
		!strings.Contains(err.Error(), "misaligned") {
		t.Fatalf("misaligned shards: %v", err)
	}

	// Overlapping offset windows double-count global rows.
	overlap := []Input{
		ProductInput(workload.NewDenseSource(a.SliceRows(0, 20)), workload.NewDenseSource(b.SliceRows(0, 20)), 0),
		ProductInput(workload.NewDenseSource(a.SliceRows(20, 40)), workload.NewDenseSource(b.SliceRows(20, 40)), 10),
	}
	if _, err := RunWorkload(ctx, CoordinatedProduct{SampleSize: 10}, overlap); err == nil ||
		!strings.Contains(err.Error(), "overlapping global rows") {
		t.Fatalf("overlapping shards: %v", err)
	}
}

// Gather-level rejection: a covariance-protocol message arriving at the
// product coordinator is a loud kind error, not a misparse.
func TestCoordinatedProductGatherRejectsForeignKind(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	net := NewMemNetwork(1, nil)
	defer net.Close()
	proto := CoordinatedProduct{SampleSize: 5, Env: Env{Servers: 1, Dim: 4, DimB: 4, Config: Config{Seed: 1}}}
	go func() {
		_ = net.Node(0).Send(ctx, comm.CoordinatorID, &comm.Message{Kind: "svs-sketch", Matrix: matrix.New(2, 4)})
	}()
	_, err := proto.Coordinator(ctx, net.Coordinator())
	if err == nil || !strings.Contains(err.Error(), `expected "ps-a" or "ps-b"`) {
		t.Fatalf("foreign message kind: %v", err)
	}
}

// Tree-level rejection: the product protocol is star-only, at the Run driver
// and at a standalone aggregator alike.
func TestCoordinatedProductRejectsTreeTopology(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := workload.Gaussian(rng, 40, 8)
	b := workload.Gaussian(rng, 40, 6)
	inputs, err := ProductShardsDense(a, b, 4)
	if err != nil {
		t.Fatal(err)
	}
	_, err = RunWorkload(context.Background(), CoordinatedProduct{SampleSize: 10}, inputs, WithTopology(Tree(2)))
	if err == nil || !strings.Contains(err.Error(), "does not support tree aggregation") {
		t.Fatalf("tree run: %v", err)
	}

	plan, err := Tree(2).Plan(4)
	if err != nil {
		t.Fatal(err)
	}
	net := NewMemNetwork(4, nil, ExtraEndpoints(map[int]int{4: 2, 5: 2}))
	defer net.Close()
	proto := CoordinatedProduct{SampleSize: 10, Env: Env{Servers: 4, Dim: 8, DimB: 6}}
	err = AggregateTree(context.Background(), proto, net.Node(4), plan)
	if err == nil || !strings.Contains(err.Error(), "does not support tree aggregation") {
		t.Fatalf("AggregateTree: %v", err)
	}
}

func TestCoordinatedProductRejectsSketchWireOptions(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := workload.Gaussian(rng, 40, 8)
	b := workload.Gaussian(rng, 40, 6)
	inputs, err := ProductShardsDense(a, b, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunWorkload(context.Background(), CoordinatedProduct{SampleSize: 10}, inputs, WithQuantization(0.01)); err == nil ||
		!strings.Contains(err.Error(), "quantization is not supported") {
		t.Fatalf("quantized run: %v", err)
	}
	inputs, err = ProductShardsDense(a, b, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunWorkload(context.Background(), CoordinatedProduct{SampleSize: 10}, inputs, WithWirePrecision(comm.Float32)); err == nil ||
		!strings.Contains(err.Error(), "float32 wire precision is not supported") {
		t.Fatalf("float32 run: %v", err)
	}
	inputs, err = ProductShardsDense(a, b, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunWorkload(context.Background(), CoordinatedProduct{SampleSize: 10}, inputs,
		WithStragglers(StragglerPolicy{Timeout: time.Second, Quorum: 1})); err == nil ||
		!strings.Contains(err.Error(), "Quorum") {
		t.Fatalf("quorum run: %v", err)
	}
}
