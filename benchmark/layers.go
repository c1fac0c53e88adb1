package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/distributed"
	"repro/internal/fd"
	"repro/internal/linalg"
	"repro/internal/matrix"
	"repro/internal/monitoring"
	"repro/internal/obs"
	"repro/internal/pca"
	"repro/internal/service"
	"repro/internal/workload"
)

// layerRun is what a workload's replay works with: where readings go, and
// the last traced repetition with the nodes that carried it.
type layerRun struct {
	values map[string]float64
	out    *repOut
	tc     *traceCtx
	// compute is the workload's local work on the critical path, in
	// seconds, as the replay measured it: the γ term of the cost model.
	compute float64
	// wireBytes is what one traced repetition put on its sockets.
	wireBytes float64
}

// uplinkMessage is the largest message a server role sent in the traced
// repetition: the workload's real uplink payload.
func (lr *layerRun) uplinkMessage() *comm.Message {
	var best *comm.Message
	for _, n := range lr.tc.nodes {
		if n.Node.ID() < 0 || n.Node.ID() >= numServers || n.uplink == nil {
			continue
		}
		if best == nil || n.uplink.Bits() > best.Bits() {
			best = n.uplink
		}
	}
	return best
}

// tracedPass is the second pass of a run: a few untraced repetitions as the
// reference, one repetition on one processor, then repetitions with the
// decorators in place and an observer attached, then the replay of each
// layer from outside. It fills the per-layer readings and returns the last
// traced repetition's output for the check.
func (r *run) tracedPass(ctx context.Context, window time.Duration) (*repOut, error) {
	v := r.values
	base := r.measure(ctx, untraced, window/3, 1)
	if len(base) == 0 {
		return nil, nil // every repetition failed, and is counted
	}
	baseWall := median(walls(base))

	setProcs(1)
	one := r.oneRep(ctx, nil)
	setProcs(benchProcs())
	if one != nil {
		v["parallel.rows_per_s_1p"] = float64(one.rows) / one.wall.Seconds()
		v["parallel.speedup"] = one.wall.Seconds() / baseWall
	}

	// The traced deployment: same inputs, decorated, observer attached.
	r.w.undeploy()
	t := newTracer()
	reg := obs.NewRegistry()
	ob := obs.NewObserver(reg, nil)
	t0 := time.Now()
	if err := r.w.deploy(ctx, ob); err != nil {
		return nil, fmt.Errorf("traced deploy: %w", err)
	}
	v["distributed.tcp_setup_s"] = time.Since(t0).Seconds()

	var tcs []*traceCtx
	newCtx := func(rep int) *traceCtx {
		tc := &traceCtx{t: t, ob: ob, rep: rep, nodes: make(map[int]*timedNode)}
		tcs = append(tcs, tc)
		return tc
	}
	before := reg.Snapshot().Counters
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	started := r.repsRun
	traced := r.measure(ctx, newCtx, window/3, 1)
	runtime.ReadMemStats(&m1)
	after := reg.Snapshot().Counters
	if len(traced) == 0 {
		return nil, nil
	}
	last := traced[len(traced)-1]
	tc := tcs[len(tcs)-1]
	if r.repsRun-started != len(traced) {
		// A failed repetition still fed the observer; per-repetition
		// counts below would be off, and the failure is already counted.
		return last, nil
	}
	reps := float64(len(traced))
	rows := reps * float64(last.rows)

	v["obs.traced_overhead_pct"] = 100 * (median(walls(traced)) - baseWall) / baseWall
	v["distributed.allocs_per_row"] = float64(m1.Mallocs-m0.Mallocs) / rows
	v["distributed.alloc_bytes_per_row"] = float64(m1.TotalAlloc-m0.TotalAlloc) / rows
	count := func(name string) float64 { return float64(after[name]-before[name]) / reps }
	v["obs.bits_total"] = count("comm.bits_total")
	v["obs.fd_shrinks"] = count("fd.shrinks")
	v["obs.rows_ingested"] = count("ingest.rows_total")
	if r.w.deterministic() && v["obs.bits_total"] != last.words*comm.WordBits {
		r.fail("observer counted %v bits, the meter %v words", v["obs.bits_total"], last.words)
	}

	v["workload.source_next_s"] = tc.sourceTime.Seconds()
	v["workload.rows_read"] = float64(tc.sourceRows)
	v["comm.words_uplink"], v["comm.words_downlink"] = last.uplink, last.downlink
	v["comm.messages"], v["comm.rounds"] = float64(last.messages), float64(last.rounds)
	r.roleTimes(t.snapshot(), tc, last)

	lr := &layerRun{values: v, out: last, tc: tc, wireBytes: count("tcp.bytes_sent")}
	if err := r.w.layers(ctx, lr); err != nil {
		r.fail("layer replay: %v", err)
	}
	if topk := percentile(last.latenciesMS, 50); v["service.topk_compute_ms"] > 0 {
		v["service.topk_queue_wait_ms_p50"] = topk - v["service.topk_compute_ms"]
	}
	r.model(ctx, lr, baseWall)

	r.rec.Timings["untraced_repetition_s"] = summarise(walls(base), "s")
	r.rec.Timings["traced_repetition_s"] = summarise(walls(traced), "s")
	if r.opt.spans != "" {
		if err := writeSpans(r.opt.spans, t.snapshot()); err != nil {
			return nil, err
		}
	}
	return last, nil
}

// roleTimes reads the distributed layer's readings off the spans of one
// traced repetition. A workload whose roles the in-process driver owns has
// no role spans and reads 0.
func (r *run) roleTimes(spans []span, tc *traceCtx, out *repOut) {
	v := r.values
	self := selfTimes(spans)
	servers := named(spans, spanServer, tc.rep)
	for _, s := range servers {
		v["distributed.server_max_s"] = max(v["distributed.server_max_s"], s.duration().Seconds())
	}
	v["distributed.server_sum_s"] = total(servers)
	v["distributed.node_send_s"] = total(named(spans, spanSend, tc.rep))
	coords := named(spans, spanCoordinator, tc.rep)
	if len(coords) != 1 {
		return
	}
	coord := coords[0]
	v["distributed.coord_total_s"] = coord.duration().Seconds()
	for _, s := range named(spans, spanRecv, tc.rep) {
		if s.Parent == coord.ID {
			v["distributed.coord_recv_wait_s"] += s.duration().Seconds()
		}
	}
	// What the repetition cost beyond its slowest server and the
	// coordinator's own work: goroutine hand-off, socket, framing.
	v["distributed.driver_overhead_s"] = out.wall.Seconds() - v["distributed.server_max_s"] - self[coord.ID].Seconds()

	// The decorated nodes saw every send; their words must be the meter's.
	sent := 0.0
	for _, n := range tc.nodes {
		sent += n.words
	}
	if sent != out.words {
		r.fail("node decorators saw %v words sent, the meter %v", sent, out.words)
	}
}

// model prints the α-β-γ sanity line: what the run should cost if it were
// only message latency, bytes through the codec, and the replayed local
// compute on the critical path.
func (r *run) model(ctx context.Context, lr *layerRun, measured float64) {
	v := r.values
	alpha, err := pingAlpha(ctx)
	if err != nil {
		r.fail("alpha ping: %v", err)
		return
	}
	v["model.alpha_us"] = alpha * 1e6
	// β is the codec's seconds per byte, charged on the bytes the sockets
	// carried (none on the in-process network).
	beta := 0.0
	if v["comm.encode_mb_per_s"] > 0 {
		beta = 1 / (v["comm.encode_mb_per_s"] * 1e6)
	}
	predicted := alpha*v["comm.messages"] + beta*lr.wireBytes + lr.compute
	v["model.predicted_run_s"] = predicted
	if predicted > 0 {
		v["model.measured_over_predicted"] = measured / predicted
	}
}

// pingAlpha is the one-way latency of a one-word message over a loopback TCP
// edge of this transport, in seconds: half the median round trip.
func pingAlpha(ctx context.Context) (float64, error) {
	c, err := dialCluster(ctx, distributed.Star(), 1, nil)
	if err != nil {
		return 0, err
	}
	defer c.close()
	server, coord := c.leaves[0].Node(), c.root.Node()
	var rtts []float64
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		if err := server.Send(ctx, comm.CoordinatorID, &comm.Message{Kind: "ping", Scalars: []float64{1}}); err != nil {
			return 0, err
		}
		msg, err := coord.Recv(ctx)
		if err != nil {
			return 0, err
		}
		msg.Release()
		if err := coord.Send(ctx, 0, &comm.Message{Kind: "pong", Scalars: []float64{1}}); err != nil {
			return 0, err
		}
		if msg, err = server.Recv(ctx); err != nil {
			return 0, err
		}
		msg.Release()
		rtts = append(rtts, time.Since(t0).Seconds())
	}
	return median(rtts) / 2, nil
}

// criticalShare is how many servers' worth of local work lie end to end on
// the critical path when s servers share the benchmark's processors.
func criticalShare() float64 {
	p := benchProcs()
	return float64((numServers + p - 1) / p)
}

// ---------------------------------------------------------------------------
// Replays shared by the workloads.
// ---------------------------------------------------------------------------

// replayFD streams src through a fresh FD sketch the way the fd-merge server
// does, timing every update from outside. An update during which Shrinks()
// advanced paid for a shrink; the others only appended.
func replayFD(src workload.RowSource, d, ell int, v map[string]float64) (*matrix.Dense, error) {
	if err := src.Reset(); err != nil {
		return nil, err
	}
	sk := fd.New(d, ell, fd.Options{})
	var appendT, shrinkT time.Duration
	var shrinkMS []float64
	timed := func(update func() error) error {
		before := sk.Shrinks()
		t0 := time.Now()
		err := update()
		took := time.Since(t0)
		if sk.Shrinks() > before {
			shrinkT += took
			shrinkMS = append(shrinkMS, ms(took))
		} else {
			appendT += took
		}
		return err
	}
	if sp, ok := src.(workload.SparseRowSource); ok {
		for {
			row, ok := sp.SparseNext()
			if !ok {
				break
			}
			if err := timed(func() error { return sk.UpdateSparse(row) }); err != nil {
				return nil, err
			}
		}
	} else {
		for {
			row, ok := src.Next()
			if !ok {
				break
			}
			if err := timed(func() error { return sk.Update(row) }); err != nil {
				return nil, err
			}
		}
	}
	if err := src.Err(); err != nil {
		return nil, err
	}
	t0 := time.Now()
	b, err := sk.Matrix()
	if err != nil {
		return nil, err
	}
	if v != nil {
		v["fd.matrix_s"] = time.Since(t0).Seconds()
		v["fd.update_append_s"] = appendT.Seconds()
		v["fd.update_shrink_s"] = shrinkT.Seconds()
		v["fd.shrinks"] = float64(len(shrinkMS))
		v["fd.shrink_ms_p50"] = percentile(shrinkMS, 50)
	}
	return b, nil
}

// replayLeaves replays server 0's shard timed, then the other shards at once
// and untimed, and returns every leaf's sketch for the merge replay.
func replayLeaves(inputs []distributed.Input, d, ell int, v map[string]float64) ([]*matrix.Dense, error) {
	leaves := make([]*matrix.Dense, len(inputs))
	var err error
	if leaves[0], err = replayFD(inputs[0].A, d, ell, v); err != nil {
		return nil, err
	}
	errs := make([]error, len(inputs))
	var wg sync.WaitGroup
	for i := 1; i < len(inputs); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			leaves[i], errs[i] = replayFD(inputs[i].A, d, ell, nil)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return leaves, nil
}

// replaySVDBuffer times the SVD a shrink runs: a full 2ℓ×d buffer made of a
// real sketch on top and raw input rows below, factored five times with a
// reused workspace as fd does.
func replaySVDBuffer(sketch, rawRows *matrix.Dense, v map[string]float64) error {
	buf := matrix.Stack(sketch, rawRows)
	var ws linalg.SVDWorkspace
	var took []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if _, err := linalg.ComputeSVDWith(buf, &ws); err != nil {
			return err
		}
		took = append(took, ms(time.Since(t0)))
	}
	v["linalg.svd_buffer_ms_p50"] = percentile(took, 50)
	if v["fd.shrink_ms_p50"] > 0 {
		v["linalg.svd_share_of_shrink"] = v["linalg.svd_buffer_ms_p50"] / v["fd.shrink_ms_p50"]
	}
	return nil
}

// replayGram times Gram on a dense shard. The rate counts the n·d² multiply-
// adds the product needs as computed, not what the kernel executed.
func replayGram(shard *matrix.Dense, v map[string]float64) {
	n, d := shard.Dims()
	var took []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		sink = shard.Gram()
		took = append(took, time.Since(t0).Seconds())
	}
	v["matrix.gram_gflops"] = float64(n) * float64(d) * float64(d) / median(took) / 1e9
}

// sink keeps results alive so the compiler cannot drop a timed call.
var sink any

// replayCodec encodes msg to a buffer and decodes it back, for at least 50 ms
// each way, and reports the time of one frame.
func replayCodec(msg *comm.Message, v map[string]float64) error {
	var buf bytes.Buffer
	if err := msg.Encode(&buf); err != nil {
		return err
	}
	frame := append([]byte(nil), buf.Bytes()...)
	n := 0
	t0 := time.Now()
	for time.Since(t0) < 50*time.Millisecond {
		buf.Reset()
		if err := msg.Encode(&buf); err != nil {
			return err
		}
		n++
	}
	enc := time.Since(t0).Seconds() / float64(n)
	n = 0
	t0 = time.Now()
	for time.Since(t0) < 50*time.Millisecond {
		got, err := comm.Decode(bytes.NewReader(frame))
		if err != nil {
			return err
		}
		got.Release()
		n++
	}
	v["comm.encode_s"] = enc
	v["comm.decode_s"] = time.Since(t0).Seconds() / float64(n)
	v["comm.frame_bytes"] = float64(len(frame))
	v["comm.encode_mb_per_s"] = float64(len(frame)) / enc / 1e6
	return nil
}

func denseRows(m *matrix.Dense, n int) *matrix.Dense {
	return m.SliceRows(0, min(n, m.Rows()))
}

// ---------------------------------------------------------------------------
// Per-workload replays.
// ---------------------------------------------------------------------------

func (w *fdDenseMem) layers(_ context.Context, lr *layerRun) error {
	v, l := lr.values, fd.SketchSize(w.eps, w.k)
	leaves, err := replayLeaves(w.raw, w.d, l, v)
	if err != nil {
		return err
	}
	t0 := time.Now()
	if _, err := fd.MergeCanonical(w.d, l, leaves, fd.Options{}); err != nil {
		return err
	}
	v["fd.merge_s"] = time.Since(t0).Seconds()
	if err := replaySVDBuffer(leaves[0], denseRows(w.parts[0], l), v); err != nil {
		return err
	}
	replayGram(w.parts[0], v)
	// The in-process network never encodes; this is what the same sketch
	// would cost on a socket.
	if err := replayCodec(&comm.Message{Kind: "fd-sketch", Matrix: leaves[0]}, v); err != nil {
		return err
	}
	// Servers share the processors, then the coordinator merges alone.
	lr.compute = criticalShare()*(v["fd.update_append_s"]+v["fd.update_shrink_s"]+v["fd.matrix_s"]) + v["fd.merge_s"]
	return nil
}

func (w *fdSparseTree) layers(_ context.Context, lr *layerRun) error {
	v, l := lr.values, fd.SketchSize(w.eps, w.k)
	leaves, err := replayLeaves(w.raw, w.d, l, v)
	if err != nil {
		return err
	}
	for i, b := range leaves {
		leaves[i] = comm.RoundFloat32(b) // what the aggregators receive
	}
	t0 := time.Now()
	if _, err := fd.MergeCanonical(w.d, l, leaves, fd.Options{}); err != nil {
		return err
	}
	v["fd.merge_s"] = time.Since(t0).Seconds()
	shard0 := w.shards[0].ToDense()
	if err := replaySVDBuffer(leaves[0], denseRows(shard0, l), v); err != nil {
		return err
	}
	replayGram(shard0, v)
	msg := lr.uplinkMessage()
	if msg == nil {
		return fmt.Errorf("no uplink message captured")
	}
	if err := replayCodec(msg, v); err != nil {
		return err
	}
	// Two aggregators merge side by side, then the root: two of the three
	// pair merges lie end to end.
	lr.compute = criticalShare()*(v["fd.update_append_s"]+v["fd.update_shrink_s"]+v["fd.matrix_s"]) + v["fd.merge_s"]*2/3
	return nil
}

func (w *svsDense) layers(_ context.Context, lr *layerRun) error {
	v := lr.values
	t0 := time.Now()
	svd, err := linalg.ComputeSVD(w.parts[0])
	if err != nil {
		return err
	}
	v["linalg.svd_tall_s"] = time.Since(t0).Seconds()
	g := distributed.SampleQuadratic.Build(numServers, w.d, w.alpha, w.delta, w.a.Frob2())
	t0 = time.Now()
	b := core.SVSFromSVD(svd, g, rand.New(rand.NewSource(w.seed+1)))
	v["core.svs_sample_s"] = time.Since(t0).Seconds()
	v["core.svs_rows_kept"] = float64(b.Rows())
	replayGram(w.parts[0], v)
	msg := lr.uplinkMessage()
	if msg == nil {
		return fmt.Errorf("no uplink message captured")
	}
	if err := replayCodec(msg, v); err != nil {
		return err
	}
	lr.compute = criticalShare() * (v["linalg.svd_tall_s"] + v["core.svs_sample_s"])
	return nil
}

func (w *productSparse) layers(_ context.Context, lr *layerRun) error {
	v := lr.values
	keep := w.sample + 1
	var candA, candB []core.SampledRow
	for s := 0; s < numServers; s++ {
		lo, _ := workload.ContiguousRange(w.n, numServers, s)
		psA, psB := core.NewPrioritySampler(w.seed, keep), core.NewPrioritySampler(w.seed, keep)
		rows, _ := w.a[s].Dims()
		t0 := time.Now()
		for i := 0; i < rows; i++ {
			psA.Offer(int64(lo+i), w.a[s].Row(i))
			psB.Offer(int64(lo+i), w.b[s].Row(i))
		}
		if s == 0 {
			v["core.priority_offer_s"] = time.Since(t0).Seconds()
		}
		candA, candB = append(candA, psA.Rows()...), append(candB, psB.Rows()...)
	}
	t0 := time.Now()
	if _, err := core.CoordinatedEstimate(candA, candB, w.sample, w.d, w.d); err != nil {
		return err
	}
	v["core.estimate_s"] = time.Since(t0).Seconds()
	msg := lr.uplinkMessage()
	if msg == nil {
		return fmt.Errorf("no uplink message captured")
	}
	if err := replayCodec(msg, v); err != nil {
		return err
	}
	// No SVD anywhere: a server's work is reading its rows and offering
	// them, and the coordinator's is the estimate.
	perServer := v["workload.source_next_s"]/numServers + v["core.priority_offer_s"]
	lr.compute = criticalShare()*perServer + v["core.estimate_s"]
	return nil
}

func (w *serviceIngest) layers(ctx context.Context, lr *layerRun) error {
	v := lr.values
	cfg := monitoring.Config{Eps: w.eps, S: numServers, D: w.d, Policy: monitoring.PolicyDelta, Seed: w.seed}
	l := monitoring.SketchRows(w.eps)
	sketch, err := replayFD(w.raw[0], w.d, l, v)
	if err != nil {
		return err
	}
	if err := w.raw[0].Reset(); err != nil {
		return err
	}
	shard0, err := workload.Materialize(w.raw[0])
	if err != nil {
		return err
	}
	if err := replaySVDBuffer(sketch, denseRows(shard0, l), v); err != nil {
		return err
	}
	replayGram(shard0, v)

	// The tracking server alone: no network, no coordinator, so no threshold
	// ever arrives and nothing is flushed until the end.
	srv := monitoring.NewServer(cfg, 0)
	t0 := time.Now()
	for i := 0; i < shard0.Rows(); i++ {
		if _, err := srv.Offer(shard0.Row(i)); err != nil {
			return err
		}
	}
	offer := time.Since(t0).Seconds()
	v["monitoring.offer_rows_per_s"] = float64(shard0.Rows()) / offer
	up, err := srv.FlushPending()
	if err != nil {
		return err
	}
	if up != nil {
		msg := &comm.Message{Kind: service.KindDelta, Scalars: []float64{up.Mass, up.Shrinkage}, Ints: []int64{0}, Matrix: up.Rows}
		if err := replayCodec(msg, v); err != nil {
			return err
		}
	}
	t0 = time.Now()
	if _, err := pca.SketchPCs(lr.out.result, 5); err != nil {
		return err
	}
	v["service.topk_compute_ms"] = ms(time.Since(t0))
	lr.compute = criticalShare() * offer
	return nil
}
