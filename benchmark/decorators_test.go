package main

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/distributed"
	"repro/internal/obs"
	"repro/internal/workload"
)

func TestTraceSourceKeepsSparsePathOnlyWhereItWas(t *testing.T) {
	dense := traceSource(workload.NewDenseSource(workload.Gaussian(rand.New(rand.NewSource(1)), 4, 3)))
	if _, ok := dense.(workload.SparseRowSource); ok {
		t.Error("decorating a dense source invented a sparse fast path")
	}
	sparse := traceSource(workload.NewSparseSource(workload.SparseRandom(rand.New(rand.NewSource(1)), 4, 3, 0.5)))
	sp, ok := sparse.(workload.SparseRowSource)
	if !ok {
		t.Fatal("decorating a sparse source lost its sparse fast path")
	}
	for {
		if _, ok := sp.SparseNext(); !ok {
			break
		}
	}
	tr := newTracer()
	parent := tr.begin(spanServer, 0, 1)
	if _, rows := sparse.flush(tr, parent, 1); rows != 4 {
		t.Errorf("decorator counted %d rows, want 4", rows)
	}
	if _, rows := sparse.flush(tr, parent, 1); rows != 0 {
		t.Errorf("flush did not clear: %d rows left", rows)
	}
}

// The source decorator must not change what fd-merge computes or sends, on
// the dense path or on the sparse one, and must not push sparse rows onto
// the dense path.
func TestDecoratedSourcesLeaveFDMergeBitIdentical(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(3))
	denseSrcs := workload.DenseSources(workload.Split(workload.LowRankPlusNoise(rng, 240, 16, 2, 20, 0.7, 0.4), numServers, workload.Contiguous, nil))
	sparseSrcs := make([]workload.RowSource, numServers)
	for i := range sparseSrcs {
		sparseSrcs[i] = workload.NewSparseSource(workload.SparseRandom(rng, 60, 16, 0.2))
	}
	for name, srcs := range map[string][]workload.RowSource{"dense": denseSrcs, "sparse": sparseSrcs} {
		raw := distributed.CovarianceInputs(srcs)
		proto := distributed.FDMerge{Eps: 0.25, K: 2}
		plain, err := distributed.RunWorkload(ctx, proto, raw)
		if err != nil {
			t.Fatal(err)
		}
		if err := resetInputs(raw); err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		traced, err := distributed.RunWorkload(ctx, proto, decorate(raw), distributed.WithObserver(obs.NewObserver(reg, nil)))
		if err != nil {
			t.Fatal(err)
		}
		if !traced.Sketch.Equal(plain.Sketch) || traced.Words != plain.Words {
			t.Errorf("%s: decorated run differs: words %v vs %v", name, traced.Words, plain.Words)
		}
		counters := reg.Snapshot().Counters
		wantSparse := int64(0)
		if name == "sparse" {
			wantSparse = 240
		}
		if counters["ingest.rows_total"] != 240 || counters["ingest.sparse_rows_total"] != wantSparse {
			t.Errorf("%s: ingested %d rows, %d on the sparse path; want 240, %d", name,
				counters["ingest.rows_total"], counters["ingest.sparse_rows_total"], wantSparse)
		}
	}
}

// smokeProduct is a deployed product workload at smoke size.
func smokeProduct(t *testing.T, ob *obs.Observer) *productSparse {
	t.Helper()
	w, err := newWorkload("product-sparse-tcp", true)
	if err != nil {
		t.Fatal(err)
	}
	w.generate(11)
	if err := w.deploy(context.Background(), ob); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.undeploy)
	return w.(*productSparse)
}

// The Node and source decorators together must leave coord-product's
// estimate, certificate and words untouched, and must have seen every word.
func TestDecoratorsLeaveCoordProductBitIdentical(t *testing.T) {
	ctx := context.Background()
	plain, err := smokeProduct(t, nil).rep(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	tc := &traceCtx{t: tr, rep: 1, nodes: make(map[int]*timedNode)}
	tc.ob = obs.NewObserver(obs.NewRegistry(), nil)
	tc.repSpan = tr.begin(spanRep, 0, 1)
	traced, err := smokeProduct(t, tc.ob).rep(ctx, tc)
	tr.end(tc.repSpan)
	if err != nil {
		t.Fatal(err)
	}
	if !traced.result.Equal(plain.result) || traced.words != plain.words || traced.res.Certificate != plain.res.Certificate {
		t.Fatalf("decorated run differs: words %v vs %v", traced.words, plain.words)
	}
	sent := 0.0
	for _, n := range tc.nodes {
		sent += n.words
	}
	if sent != traced.words {
		t.Errorf("node decorators saw %v words, the meter %v", sent, traced.words)
	}
	if tc.sourceRows != int64(2*traced.rows) {
		t.Errorf("source decorators saw %d rows, want %d (A and B)", tc.sourceRows, 2*traced.rows)
	}
	spans := tr.snapshot()
	if got := len(named(spans, spanServer, 1)); got != numServers {
		t.Errorf("%d server spans, want %d", got, numServers)
	}
	if got := len(named(spans, spanSend, 1)); got != 2*numServers {
		t.Errorf("%d send spans, want %d", got, 2*numServers)
	}
	lr := &layerRun{tc: tc}
	if msg := lr.uplinkMessage(); msg == nil || msg.Samples == nil {
		t.Error("no sampled-rows uplink message was captured")
	}
}

// failingSource delivers some rows and then an error, as a source over a
// truncated file would.
type failingSource struct {
	workload.RowSource
	left int
}

var errTruncated = errors.New("input truncated")

func (f *failingSource) Next() ([]float64, bool) {
	if f.left == 0 {
		return nil, false
	}
	f.left--
	return f.RowSource.Next()
}

func (f *failingSource) Err() error {
	if f.left == 0 {
		return errTruncated
	}
	return nil
}

// One server failing before it sends must end the repetition as one error
// well inside the deadline, not leave the coordinator in Recv until it.
func TestRoleErrorCancelsTheRepetition(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	srcs := workload.DenseSources(workload.Split(workload.Gaussian(rng, 80, 8), numServers, workload.Contiguous, nil))
	srcs[2] = &failingSource{RowSource: srcs[2], left: 3}
	inputs := distributed.CovarianceInputs(srcs)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	c, err := dialCluster(ctx, distributed.Star(), numServers, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	proto := distributed.FDMerge{Eps: 0.25, K: 2, Env: distributed.Env{Servers: numServers, Dim: 8}}
	start := time.Now()
	_, err = c.run(ctx, proto, inputs, nil)
	if took := time.Since(start); took > 5*time.Second {
		t.Errorf("the failed repetition took %v", took)
	}
	if !errors.Is(err, errTruncated) {
		t.Errorf("run returned %v, want the server's own error", err)
	}
}

func TestRunRolesReportsTheCause(t *testing.T) {
	boom := errors.New("boom")
	err := runRoles(context.Background(), []func(context.Context) error{
		func(ctx context.Context) error { <-ctx.Done(); return ctx.Err() },
		func(context.Context) error { return boom },
		func(ctx context.Context) error { <-ctx.Done(); return nil },
	})
	if !errors.Is(err, boom) {
		t.Errorf("runRoles returned %v, want boom", err)
	}
	if err := runRoles(context.Background(), []func(context.Context) error{func(context.Context) error { return nil }}); err != nil {
		t.Errorf("runRoles returned %v for roles that all succeeded", err)
	}
}

// A repetition that fails is one counted failure, and the next one runs on
// a fresh deployment.
func TestFailedRepetitionIsCountedAndRedeployed(t *testing.T) {
	w := smokeProduct(t, nil)
	good := w.inputs
	bad := append([]distributed.Input(nil), good...)
	bad[1].A = &failingSource{RowSource: good[1].A, left: 1}
	r := &run{w: w, rec: &runRecord{}, opt: options{smoke: true}}
	w.inputs = bad
	old := w.c
	if out := r.oneRep(context.Background(), nil); out != nil {
		t.Fatal("the broken repetition returned a result")
	}
	if r.rec.Attempted != 1 || r.rec.Failed != 1 || len(r.rec.Failures) != 1 || !strings.Contains(r.rec.Failures[0], errTruncated.Error()) {
		t.Fatalf("after one failure: %+v", r.rec)
	}
	if w.c == nil || w.c == old {
		t.Fatal("the cluster was not dialled again")
	}
	w.inputs = good // deploy rebuilt them from raw already; be explicit
	if out := r.oneRep(context.Background(), nil); out == nil || r.rec.Failed != 1 || r.rec.Attempted != 2 {
		t.Fatalf("the next repetition did not recover: %+v", r.rec)
	}
}

func TestHashMatrixSeesEveryBit(t *testing.T) {
	a := workload.Gaussian(rand.New(rand.NewSource(1)), 3, 4)
	b := a.Clone()
	if hashMatrix(a) != hashMatrix(b) {
		t.Fatal("equal matrices hash differently")
	}
	b.Set(2, 3, b.At(2, 3)*(1+1e-15))
	if hashMatrix(a) == hashMatrix(b) {
		t.Fatal("a one-ulp change did not change the hash")
	}
	if hashMatrix(a) == hashMatrix(comm.RoundFloat32(a)) {
		t.Fatal("rounding did not change the hash")
	}
}
