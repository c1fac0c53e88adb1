package distributed

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/matrix"
	"repro/internal/workload"
)

// fileSources saves each partition to its own shard file and opens a
// streaming FileSource per server; cleanup is registered on t.
func fileSources(t *testing.T, parts []*matrix.Dense) []RowSource {
	t.Helper()
	dir := t.TempDir()
	out := make([]RowSource, len(parts))
	for i, p := range parts {
		path := filepath.Join(dir, fmt.Sprintf("shard.%d.dskm", i))
		if err := workload.SaveMatrix(path, p); err != nil {
			t.Fatal(err)
		}
		src, err := workload.OpenFileSource(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { src.Close() })
		out[i] = src
	}
	return out
}

// requireIdentical asserts two runs of the same protocol produced
// bit-identical sketches and exactly equal communication accounting.
func requireIdentical(t *testing.T, name string, mem, file *Result) {
	t.Helper()
	if (mem.Sketch == nil) != (file.Sketch == nil) {
		t.Fatalf("%s: one run produced a sketch, the other did not", name)
	}
	if mem.Sketch != nil && !mem.Sketch.Equal(file.Sketch) {
		t.Fatalf("%s: sketches differ between in-memory and file-backed runs", name)
	}
	if mem.Words != file.Words || mem.Bits != file.Bits ||
		mem.Messages != file.Messages || mem.Rounds != file.Rounds {
		t.Fatalf("%s: accounting differs: mem {w=%v b=%d m=%d r=%d} file {w=%v b=%d m=%d r=%d}",
			name, mem.Words, mem.Bits, mem.Messages, mem.Rounds,
			file.Words, file.Bits, file.Messages, file.Rounds)
	}
}

// TestSourceEquivalence is the equivalence proof: all four covariance
// protocols produce bit-identical results — sketch bytes and exact
// communication totals — whether the servers stream in-memory DenseSources
// or file-backed sources. There is a single source-based code path, so any
// divergence would mean the file layer altered the rows or the rng sequence.
func TestSourceEquivalence(t *testing.T) {
	ctx := context.Background()
	_, parts := split(t, 7, 600, 20, 5)
	for _, tc := range []struct {
		name  string
		proto Protocol
	}{
		{"fd-merge", FDMerge{Eps: 0.2, K: 3}},
		{"svs", SVS{Alpha: 0.3, Delta: 0.1, Sampling: SampleQuadratic}},
		{"row-sampling", RowSampling{Eps: 0.25}},
		{"adaptive", Adaptive{AdaptiveParams: AdaptiveParams{Eps: 0.25, K: 3}}},
	} {
		mem, err := RunWorkload(ctx, tc.proto, CovarianceInputs(workload.DenseSources(parts)), WithSeed(11))
		if err != nil {
			t.Fatalf("%s (mem): %v", tc.name, err)
		}
		file, err := RunWorkload(ctx, tc.proto, CovarianceInputs(fileSources(t, parts)), WithSeed(11))
		if err != nil {
			t.Fatalf("%s (file): %v", tc.name, err)
		}
		requireIdentical(t, tc.name, mem, file)
	}
}

// TestSparseSourceEquivalence proves the A5 sparse regime runs through the
// distributed protocol bit-identically: FD's nnz-proportional sparse update
// path lands on the same sketch as dense updates over the same rows.
func TestSparseSourceEquivalence(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(9))
	sp := workload.SparseRandom(rng, 400, 24, 0.1)
	s := 4
	spParts := workload.SplitSparseContiguous(sp, s)
	sparse := make([]RowSource, s)
	for i, p := range spParts {
		sparse[i] = workload.NewSparseSource(p)
	}
	denseParts := workload.Split(sp.ToDense(), s, workload.Contiguous, nil)
	proto := FDMerge{Eps: 0.2}
	mem, err := RunWorkload(ctx, proto, CovarianceInputs(workload.DenseSources(denseParts)), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	spRes, err := RunWorkload(ctx, proto, CovarianceInputs(sparse), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "fd-merge sparse", mem, spRes)
}

// TestFDMergeBoundedMemory is the PR's bounded-memory proof: FD merge over
// file-backed sources must complete with peak heap growth a small constant —
// far below the dataset size — because no layer ever materializes a shard.
// The dataset is ≥ 8× the allowed heap delta.
func TestFDMergeBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates a multi-MB on-disk dataset")
	}
	requireBoundedMemory(t, FDMerge{Eps: 0.25}, 40960, 80) // 26.2 MB
}

// TestSVSBoundedMemory is TestFDMergeBoundedMemory for the batch SVS
// server, which streams its shard once into a d×d Gram: 64 MB of shard
// files must go through it with the live heap growing by at most an eighth
// of that. A server that materializes its shard holds all of it.
func TestSVSBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates a multi-MB on-disk dataset")
	}
	requireBoundedMemory(t, SVS{Alpha: 0.02, Delta: 0.1, Sampling: SampleQuadratic}, 1<<18, 32) // 64 MB
}

// requireBoundedMemory runs proto over an n×d Gaussian dataset split into
// four file-backed shards and fails if the peak live heap grows by more
// than an eighth of the dataset.
func requireBoundedMemory(t *testing.T, proto Protocol, n, d int) {
	t.Helper()
	const s = 4
	datasetBytes := n * d * 8
	allowedDelta := datasetBytes / 8 // the ≥8× headroom claim
	// Write the shards one at a time so no full copy of the dataset is ever
	// live; each shard matrix is dropped before the next is generated.
	dir := t.TempDir()
	paths := make([]string, s)
	for i := 0; i < s; i++ {
		lo, hi := workload.ContiguousRange(n, s, i)
		src := workload.NewSectionSource(workload.NewGaussianSource(n, d, 99), lo, hi)
		shard, err := workload.Materialize(src)
		if err != nil {
			t.Fatal(err)
		}
		paths[i] = filepath.Join(dir, fmt.Sprintf("shard.%d.dskm", i))
		if err := workload.SaveMatrix(paths[i], shard); err != nil {
			t.Fatal(err)
		}
	}
	sources := make([]RowSource, s)
	for i, p := range paths {
		src, err := workload.OpenFileSource(p)
		if err != nil {
			t.Fatal(err)
		}
		defer src.Close()
		sources[i] = src
	}

	// The bound is on the live heap — what the last completed GC cycle
	// marked — not on HeapAlloc, which mid-cycle also counts garbage not yet
	// swept (copy-on-next allocates one row per Next by design) and made this
	// test fail about one full-suite run in five. Aggressive GC keeps the
	// cycles frequent, so the sampler sees the live set's peak.
	liveHeap := func() uint64 {
		sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		metrics.Read(sample)
		return sample[0].Value.Uint64()
	}
	defer debug.SetGCPercent(debug.SetGCPercent(10))
	runtime.GC()
	baseline := liveHeap()

	var peak atomic.Uint64
	done := make(chan struct{})
	go func() {
		ticker := time.NewTicker(500 * time.Microsecond)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
				if live := liveHeap(); live > peak.Load() {
					peak.Store(live)
				}
			}
		}
	}()
	res, err := RunWorkload(context.Background(), proto, CovarianceInputs(sources))
	close(done)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sketch == nil || res.Sketch.Rows() == 0 {
		t.Fatal("no sketch produced")
	}
	delta := int64(peak.Load()) - int64(baseline)
	t.Logf("%s: dataset %d B, baseline live heap %d B, peak delta %d B (allowed %d B)",
		proto.Name(), datasetBytes, baseline, delta, allowedDelta)
	if delta > int64(allowedDelta) {
		t.Fatalf("peak live heap grew %d B over baseline; want ≤ %d B (dataset is %d B)",
			delta, allowedDelta, datasetBytes)
	}
	if _, err := os.Stat(paths[0]); err != nil {
		t.Fatal(err)
	}
}
