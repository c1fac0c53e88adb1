package service

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/distributed"
	"repro/internal/fd"
	"repro/internal/linalg"
	"repro/internal/matrix"
	"repro/internal/monitoring"
	"repro/internal/pca"
	"repro/internal/workload"
)

func testConfig(s, d int) Config {
	return Config{
		Monitoring:   monitoring.Config{Eps: 0.2, S: s, D: d, Policy: monitoring.PolicyDelta, Seed: 42},
		QueryTimeout: 10 * time.Second,
	}
}

func writeStream(t *testing.T, dir, name string, m *matrix.Dense) string {
	t.Helper()
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.WriteMatrix(f, m); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// runServer dials the hub and drives one server daemon to completion.
func runServer(t *testing.T, ctx context.Context, cfg Config, id int, path, addr string) *Server {
	t.Helper()
	src, err := workload.OpenFileSource(path)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	srv, err := NewServer(cfg, id, src)
	if err != nil {
		t.Fatal(err)
	}
	up, err := distributed.DialTCPServerContext(ctx, addr, id, nil, distributed.TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer up.Close()
	if err := srv.Run(ctx, up); err != nil {
		t.Fatalf("server %d: %v", id, err)
	}
	return srv
}

// waitMass polls the coordinator until its reported mass equals want, the
// sum of the servers' final local masses. Every server's last upload (its
// drain flush, or the threshold upload that consumed its last row) carries
// its exact final mass, so equality is an exact barrier: the servers have
// drained and the coordinator has absorbed every upload. The wait is
// bounded by a deadline on ctx.
func waitMass(t *testing.T, ctx context.Context, coord *Coordinator, want float64) *Status {
	t.Helper()
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	for {
		st, err := coord.Status(ctx)
		if err != nil {
			t.Fatalf("waiting for reported mass %v: %v", want, err)
		}
		if st.ReportedMass == want {
			return st
		}
		select {
		case <-ctx.Done():
			t.Fatalf("coordinator reports mass %v, want %v", st.ReportedMass, want)
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// streamMass is the local mass a server reaches after ingesting every row
// of m, accumulated in the tracker's order so it compares exactly.
func streamMass(m *matrix.Dense) float64 {
	mass := 0.0
	for i := 0; i < m.Rows(); i++ {
		mass += matrix.Norm2(m.Row(i))
	}
	return mass
}

// TestKillRestoreBitExact is the tentpole's acceptance test: a server
// killed mid-stream (its last durable state is a row-interval checkpoint,
// not a graceful exit snapshot) and restarted from that checkpoint must
// end with a cumulative sketch bit-identical to an uninterrupted server's
// — no precision loss across the checkpoint — its words meter must resume
// from the checkpointed value, and the coordinator's live certificate must
// still dominate the realized covariance error: the restored incarnation's
// rebase block supersedes whatever the dead incarnation had shipped, so no
// row is lost or double-counted.
func TestKillRestoreBitExact(t *testing.T) {
	const n, d = 300, 8
	dir := t.TempDir()
	cfg := testConfig(2, d)
	rng := rand.New(rand.NewSource(7))
	m0 := workload.LowRankPlusNoise(rng, n, d, 3, 15, 0.8, 0.3)
	m1 := workload.LowRankPlusNoise(rng, n, d, 3, 15, 0.8, 0.3)
	p0 := writeStream(t, dir, "s0.dskm", m0)
	p1 := writeStream(t, dir, "s1.dskm", m1)

	hub, err := distributed.NewTCPCoordinatorOpts("127.0.0.1:0", 2, nil, distributed.TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	coord, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go coord.Run(ctx, hub)

	// Server 1 streams its whole shard uninterrupted.
	cfg1 := cfg
	cfg1.ExitWhenDrained = true
	srv1 := runServer(t, ctx, cfg1, 1, p1, hub.Addr())

	// Server 0, first incarnation: checkpoint every 40 rows, die after 130
	// without a final checkpoint — the durable state is the row-120
	// checkpoint, and rows 120..130 will be replayed after restart.
	ckpt := filepath.Join(dir, "server0.dskm")
	cfg0 := cfg
	cfg0.CheckpointPath = ckpt
	cfg0.CheckpointEveryRows = 40
	cfg0.MaxRows = 130
	cfg0.ExitWhenDrained = true
	first := runServer(t, ctx, cfg0, 0, p0, hub.Addr())
	if first.Restored() {
		t.Fatal("first incarnation claims to be restored")
	}
	if !workload.CheckpointExists(ckpt) {
		t.Fatal("no checkpoint written")
	}
	var meta serverMeta
	if _, err := workload.LoadCheckpoint(ckpt, &meta); err != nil {
		t.Fatal(err)
	}
	if meta.Consumed != 120 {
		t.Fatalf("checkpoint at row %d, want 120", meta.Consumed)
	}
	// The sidecar names the default shrink rule "fast-fd", as every earlier
	// checkpoint does (TestRestoresPreviousFormatCheckpoint restores one).
	if meta.Full.Strategy != "fast-fd" || meta.Pending.Strategy != "fast-fd" {
		t.Fatalf("sidecar rule names %q / %q, want fast-fd", meta.Full.Strategy, meta.Pending.Strategy)
	}

	// Second incarnation: restore and finish the shard.
	cfg0b := cfg0
	cfg0b.MaxRows = 0
	cfg0b.CheckpointOnExit = true
	second := runServer(t, ctx, cfg0b, 0, p0, hub.Addr())
	if !second.Restored() {
		t.Fatal("second incarnation did not restore")
	}
	if second.Consumed() != n {
		t.Fatalf("restored server consumed %d rows, want %d", second.Consumed(), n)
	}
	if second.Words() < meta.Words {
		t.Fatalf("words meter went backwards: %v after restoring %v", second.Words(), meta.Words)
	}

	// Bit-exactness: the restored server's cumulative sketch must equal an
	// uninterrupted reference fed the identical stream (the full sketch
	// depends only on the rows, never on threshold/flush timing under the
	// delta policy, so the comparison is deterministic).
	ref := monitoring.NewServer(cfg.Monitoring, 0)
	for i := 0; i < n; i++ {
		if _, err := ref.Offer(m0.Row(i)); err != nil {
			t.Fatal(err)
		}
	}
	refSt, err := ref.State()
	if err != nil {
		t.Fatal(err)
	}
	gotSt, err := second.Tracker().State()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := gotSt.Full, refSt.Full; got.Shrinks != want.Shrinks ||
		got.TotalDelta != want.TotalDelta || got.InputRows != want.InputRows ||
		got.InputFrob2 != want.InputFrob2 {
		t.Fatalf("restored full-sketch counters diverge: %+v vs %+v", got, want)
	}
	gb, wb := gotSt.Full.Buffer, refSt.Full.Buffer
	if gb.Rows() != wb.Rows() || gb.Cols() != wb.Cols() {
		t.Fatalf("restored full-sketch buffer %dx%d, want %dx%d", gb.Rows(), gb.Cols(), wb.Rows(), wb.Cols())
	}
	for i, v := range gb.Data() {
		if v != wb.Data()[i] {
			t.Fatalf("restored full-sketch buffer differs at flat index %d: %v vs %v", i, v, wb.Data()[i])
		}
	}
	if second.Tracker().LocalMass() != ref.LocalMass() {
		t.Fatalf("restored local mass %v, want %v", second.Tracker().LocalMass(), ref.LocalMass())
	}

	// The coordinator's certificate must hold over the true union even
	// though it saw replayed (deduplicated) uploads.
	st := waitMass(t, ctx, coord, second.Tracker().LocalMass()+srv1.Tracker().LocalMass())
	if st.Heard != 2 {
		t.Fatalf("coordinator heard %d servers, want 2", st.Heard)
	}
	sketch, bound, err := coord.SketchQuery(ctx)
	if err != nil {
		t.Fatal(err)
	}
	union := matrix.Stack(m0, m1)
	ce, err := linalg.CovarianceError(union, sketch)
	if err != nil {
		t.Fatal(err)
	}
	if ce > bound+1e-9 {
		t.Fatalf("realized coverr %v exceeds live certificate %v", ce, bound)
	}
	if rel := ce / union.Frob2(); rel > cfg.Monitoring.Eps {
		t.Fatalf("relative error %v exceeded ε=%v", rel, cfg.Monitoring.Eps)
	}
}

// TestRestoresPreviousFormatCheckpoint restores a checkpoint written by an
// earlier version of the code: testdata/checkpoint_v1.dskm (+ .json
// sidecar) is server 0's fd-delta state after 170 of 240 rows, written when
// the shrink still had five pluggable strategies and ran on the Jacobi SVD.
// It checks what must hold across code versions without pinning the
// shrink's last bit:
//   - format: the restored tracker holds exactly the stored fd.States and
//     sidecar values;
//   - determinism: two trackers restored from it and fed rows 170–239 end
//     bit-identical;
//   - soundness: the continued sketch's covariance error over all 240 rows,
//     measured by the Jacobi oracle at d = 24, is within its ErrorBound.
func TestRestoresPreviousFormatCheckpoint(t *testing.T) {
	const n, d, consumed = 240, 24, 170
	cfg := testConfig(2, d)
	cfg.CheckpointPath = filepath.Join(t.TempDir(), "ck.dskm")
	for _, ext := range []string{"", ".json"} {
		raw, err := os.ReadFile("testdata/checkpoint_v1.dskm" + ext)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(cfg.CheckpointPath+ext, raw, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	m := workload.LowRankPlusNoise(rand.New(rand.NewSource(8)), n, d, 3, 10, 0.8, 0.3)
	restore := func(t *testing.T) *Server {
		t.Helper()
		srv, err := NewServer(cfg, 0, workload.NewDenseSource(m))
		if err != nil {
			t.Fatal(err)
		}
		if !srv.Restored() || srv.Consumed() != consumed {
			t.Fatalf("restored=%v consumed=%d, want a restore at row %d", srv.Restored(), srv.Consumed(), consumed)
		}
		return srv
	}
	continued := func(t *testing.T) *monitoring.ServerState {
		t.Helper()
		track := restore(t).Tracker()
		for i := consumed; i < n; i++ {
			if _, err := track.Offer(m.Row(i)); err != nil {
				t.Fatal(err)
			}
		}
		st, err := track.State()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	sameFD := func(t *testing.T, name string, got, want *fd.State) {
		t.Helper()
		if got.D != want.D || got.Ell != want.Ell || got.BufferRows != want.BufferRows || got.Strategy != want.Strategy ||
			got.Shrinks != want.Shrinks || got.TotalDelta != want.TotalDelta ||
			got.InputRows != want.InputRows || got.InputFrob2 != want.InputFrob2 {
			t.Fatalf("%s counters: %+v, want %+v", name, got, want)
		}
		if !got.Buffer.Equal(want.Buffer) {
			t.Fatalf("%s buffer differs", name)
		}
	}

	t.Run("format", func(t *testing.T) {
		var meta serverMeta
		stacked, err := workload.LoadCheckpoint(cfg.CheckpointPath, &meta)
		if err != nil {
			t.Fatal(err)
		}
		srv := restore(t)
		st, err := srv.Tracker().State()
		if err != nil {
			t.Fatal(err)
		}
		if srv.Words() != meta.Words || st.LocalMass != meta.LocalMass || st.UnreportedMass != meta.UnreportedMass ||
			st.Threshold != meta.Threshold || st.Announced != meta.Announced {
			t.Fatalf("sidecar values: words %v mass %v/%v threshold %v announced %v, stored %+v",
				srv.Words(), st.LocalMass, st.UnreportedMass, st.Threshold, st.Announced, meta)
		}
		split := meta.Pending.Rows
		sameFD(t, "pending", st.Pending, meta.Pending.toState(d, stacked.CopyRows(0, split)))
		sameFD(t, "full", st.Full, meta.Full.toState(d, stacked.CopyRows(split, stacked.Rows())))
		if st.Full.Strategy != "fast-fd" || st.Full.Shrinks == 0 || st.Full.TotalDelta == 0 {
			t.Fatalf("stored full sketch %+v: want a fast-fd sketch with a charged shrink", st.Full)
		}
	})

	t.Run("determinism", func(t *testing.T) {
		a, b := continued(t), continued(t)
		sameFD(t, "pending", a.Pending, b.Pending)
		sameFD(t, "full", a.Full, b.Full)
		if a.LocalMass != b.LocalMass || a.UnreportedMass != b.UnreportedMass {
			t.Fatalf("masses diverge: %v/%v vs %v/%v", a.LocalMass, a.UnreportedMass, b.LocalMass, b.UnreportedMass)
		}
	})

	t.Run("soundness", func(t *testing.T) {
		st := continued(t)
		full, err := fd.FromState(st.Full, fd.Options{})
		if err != nil {
			t.Fatal(err)
		}
		sk, err := full.Matrix()
		if err != nil {
			t.Fatal(err)
		}
		if full.InputRows() != n {
			t.Fatalf("continued sketch covers %d rows, want %d", full.InputRows(), n)
		}
		coverr, err := linalg.SpectralNormSym(m.Gram().Sub(sk.Gram()))
		if err != nil {
			t.Fatal(err)
		}
		if coverr > full.ErrorBound() {
			t.Fatalf("coverr %.6e above the continued sketch's ErrorBound %.6e", coverr, full.ErrorBound())
		}
		if full.Shrinks() <= 7 {
			t.Fatalf("%d shrinks: the continuation ran none of its own", full.Shrinks())
		}
	})
}

func TestRestoreRejectsMismatchedConfig(t *testing.T) {
	const n, d = 60, 6
	dir := t.TempDir()
	cfg := testConfig(2, d)
	cfg.CheckpointPath = filepath.Join(dir, "ck.dskm")
	rng := rand.New(rand.NewSource(8))
	m := workload.LowRankPlusNoise(rng, n, d, 2, 10, 0.8, 0.3)

	// Write a checkpoint by hand through the server's own path.
	track := monitoring.NewServer(cfg.Monitoring, 0)
	for i := 0; i < n; i++ {
		if _, err := track.Offer(m.Row(i)); err != nil {
			t.Fatal(err)
		}
	}
	st, err := track.State()
	if err != nil {
		t.Fatal(err)
	}
	if err := saveServerCheckpoint(cfg, 0, st, n, 3, 17); err != nil {
		t.Fatal(err)
	}

	src := workload.NewDenseSource(m)
	if _, err := NewServer(cfg, 1, src); err == nil {
		t.Fatal("checkpoint for server 0 accepted by server 1")
	}
	bad := cfg
	bad.Monitoring.Eps = 0.3
	src.Reset()
	if _, err := NewServer(bad, 0, src); err == nil {
		t.Fatal("checkpoint written at ε=0.2 accepted at ε=0.3")
	}
	src.Reset()
	srv, err := NewServer(cfg, 0, src)
	if err != nil {
		t.Fatal(err)
	}
	if !srv.Restored() || srv.Consumed() != n {
		t.Fatalf("matching config failed to restore: restored=%v consumed=%d", srv.Restored(), srv.Consumed())
	}
}

// TestHTTPEndpoints validates the query API against direct in-process
// queries on the same state: /sketch must serialize exactly the sketch
// SketchQuery returns, and /topk must match pca.SketchPCs on it.
func TestHTTPEndpoints(t *testing.T) {
	const n, d = 200, 8
	dir := t.TempDir()
	cfg := testConfig(2, d)
	rng := rand.New(rand.NewSource(9))
	m0 := workload.LowRankPlusNoise(rng, n, d, 3, 15, 0.8, 0.3)
	m1 := workload.LowRankPlusNoise(rng, n, d, 3, 15, 0.8, 0.3)
	p0 := writeStream(t, dir, "s0.dskm", m0)
	p1 := writeStream(t, dir, "s1.dskm", m1)

	coord, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hub, err := distributed.NewTCPCoordinatorOpts("127.0.0.1:0", 2, nil, distributed.TCPOptions{
		DebugAddr:  "127.0.0.1:0",
		DebugMount: coord.Mount,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go coord.Run(ctx, hub)

	cfgSrv := cfg
	cfgSrv.ExitWhenDrained = true
	srv0 := runServer(t, ctx, cfgSrv, 0, p0, hub.Addr())
	srv1 := runServer(t, ctx, cfgSrv, 1, p1, hub.Addr())
	waitMass(t, ctx, coord, srv0.Tracker().LocalMass()+srv1.Tracker().LocalMass())

	base := "http://" + hub.Debug().Addr()
	getJSON := func(path string, into any) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
	}

	var st Status
	getJSON("/status", &st)
	if st.Heard != 2 || st.Uploads == 0 || st.Words <= 0 {
		t.Fatalf("bad /status: %+v", st)
	}

	direct, directBound, err := coord.SketchQuery(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var sk struct {
		matrixPayload
		ErrorBound float64 `json:"error_bound"`
	}
	getJSON("/sketch", &sk)
	if sk.Rows != direct.Rows() || sk.Cols != direct.Cols() {
		t.Fatalf("/sketch is %dx%d, direct query is %dx%d", sk.Rows, sk.Cols, direct.Rows(), direct.Cols())
	}
	for i := range sk.Data {
		for j, v := range sk.Data[i] {
			if v != direct.At(i, j) {
				t.Fatalf("/sketch differs from direct query at (%d,%d): %v vs %v", i, j, v, direct.At(i, j))
			}
		}
	}
	if sk.ErrorBound != directBound {
		t.Fatalf("/sketch bound %v, direct %v", sk.ErrorBound, directBound)
	}

	wantPCs, err := pca.SketchPCs(direct, 2)
	if err != nil {
		t.Fatal(err)
	}
	var tk struct {
		K int `json:"k"`
		matrixPayload
	}
	getJSON("/topk?k=2", &tk)
	if tk.K != 2 || tk.Rows != wantPCs.Rows() || tk.Cols != wantPCs.Cols() {
		t.Fatalf("bad /topk shape: %+v vs %dx%d", tk, wantPCs.Rows(), wantPCs.Cols())
	}
	for i := range tk.Data {
		for j, v := range tk.Data[i] {
			if v != wantPCs.At(i, j) {
				t.Fatalf("/topk differs from pca.SketchPCs at (%d,%d)", i, j)
			}
		}
	}

	var ce struct {
		ErrorBound   float64 `json:"error_bound"`
		ReportedMass float64 `json:"reported_mass"`
	}
	getJSON("/coverr", &ce)
	if ce.ErrorBound != st.ErrorBound || ce.ReportedMass <= 0 {
		t.Fatalf("bad /coverr: %+v (status bound %v)", ce, st.ErrorBound)
	}

	// Malformed k is a client error surfaced as a non-200.
	resp, err := http.Get(base + "/topk")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("/topk without k succeeded")
	}
}

// TestWindowQueryService exercises the sliding-window pull round: servers
// keep a window sketch of their last W rows; /window fans out, merges, and
// reports coverage within the bucketed-expiry slack.
func TestWindowQueryService(t *testing.T) {
	const n, d, w = 260, 8, 64
	dir := t.TempDir()
	cfg := testConfig(2, d)
	cfg.Window = w
	cfg.WindowBuckets = 4
	rng := rand.New(rand.NewSource(10))
	m0 := workload.LowRankPlusNoise(rng, n, d, 3, 15, 0.8, 0.3)
	m1 := workload.LowRankPlusNoise(rng, n, d, 3, 15, 0.8, 0.3)
	p0 := writeStream(t, dir, "s0.dskm", m0)
	p1 := writeStream(t, dir, "s1.dskm", m1)

	coord, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hub, err := distributed.NewTCPCoordinatorOpts("127.0.0.1:0", 2, nil, distributed.TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go coord.Run(ctx, hub)

	// Servers idle after draining (no ExitWhenDrained) so they can answer
	// the window round.
	done := make(chan error, 2)
	for id, path := range map[int]string{0: p0, 1: p1} {
		go func(id int, path string) {
			src, err := workload.OpenFileSource(path)
			if err != nil {
				done <- err
				return
			}
			defer src.Close()
			srv, err := NewServer(cfg, id, src)
			if err != nil {
				done <- err
				return
			}
			up, err := distributed.DialTCPServerContext(ctx, hub.Addr(), id, nil, distributed.TCPOptions{})
			if err != nil {
				done <- err
				return
			}
			defer up.Close()
			done <- srv.Run(ctx, up)
		}(id, path)
	}
	// The servers are still running (idle), so their trackers are not read
	// here; their final masses follow from the streams.
	waitMass(t, ctx, coord, streamMass(m0)+streamMass(m1))

	res, err := coord.WindowQuery(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Servers != 2 {
		t.Fatalf("window round reached %d servers, want 2", res.Servers)
	}
	bucketRows := (w + cfg.WindowBuckets - 1) / cfg.WindowBuckets
	lo, hi := 2*w, 2*(w+bucketRows)
	if res.Covered < lo || res.Covered >= hi {
		t.Fatalf("window covers %d rows, want in [%d, %d)", res.Covered, lo, hi)
	}
	if res.Matrix.Rows() == 0 || res.Matrix.Cols() != d {
		t.Fatalf("empty window sketch: %dx%d", res.Matrix.Rows(), res.Matrix.Cols())
	}
	if res.Bound < 0 {
		t.Fatalf("negative window certificate %v", res.Bound)
	}
	// The certificate must dominate the realized error on the union of the
	// servers' window suffixes (each server's window holds its last Covered/2
	// rows — coverage is per-server symmetric here: both drained n rows). A
	// zero bound is legitimate — it asserts the merged window is exact, which
	// holds when the bucketed rows fit the query sketch without shrinking —
	// so the dominance check carries a small numerical slack for the SVD.
	perServer := res.Covered / 2
	suffix := matrix.Stack(
		m0.CopyRows(n-perServer, n),
		m1.CopyRows(n-perServer, n),
	)
	ce, err := linalg.CovarianceError(suffix, res.Matrix)
	if err != nil {
		t.Fatal(err)
	}
	if tol := 1e-9 * suffix.Frob2(); ce > res.Bound+tol {
		t.Fatalf("window coverr %v exceeds certificate %v (+%v slack)", ce, res.Bound, tol)
	}

	cancel()
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatalf("server exited with %v", err)
		}
	}
}

// TestWindowDisabled pins the error path: /window without Window > 0.
func TestWindowDisabled(t *testing.T) {
	cfg := testConfig(1, 4)
	coord, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hub, err := distributed.NewTCPCoordinatorOpts("127.0.0.1:0", 1, nil, distributed.TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go coord.Run(ctx, hub)
	if _, err := coord.WindowQuery(ctx); err == nil {
		t.Fatal("window query succeeded with windowing disabled")
	}
}

func TestConfigValidationService(t *testing.T) {
	cfg := testConfig(1, 4)
	cfg.CheckpointEveryRows = 10 // no path
	if err := cfg.validate(); err == nil {
		t.Fatal("checkpoint interval without path accepted")
	}
	cfg = testConfig(1, 4)
	cfg.Window = -1
	if err := cfg.validate(); err == nil {
		t.Fatal("negative window accepted")
	}
	// A bad tracking parameter is an error from both constructors, never a
	// panic from the monitoring layer underneath.
	cfg = testConfig(1, 4)
	cfg.Monitoring.Eps = 1.5
	if _, err := NewCoordinator(cfg); err == nil {
		t.Fatal("coordinator accepted eps 1.5")
	}
	if _, err := NewServer(cfg, 0, workload.NewDenseSource(matrix.New(3, 4))); err == nil {
		t.Fatal("server accepted eps 1.5")
	}
}

// TestCoordinatorDropsWrongWidthUpload: an upload whose block has another
// width than the coordinator's d (a server started with another -d, or a
// malformed frame) is dropped with a note. The daemon keeps serving, and
// neither /status nor the reported mass moves.
func TestCoordinatorDropsWrongWidthUpload(t *testing.T) {
	coord, err := NewCoordinator(testConfig(2, 12))
	if err != nil {
		t.Fatal(err)
	}
	known := map[int]bool{}
	before := *coord.status(known)
	for _, kind := range []string{KindDelta, KindReplace} {
		msg := &comm.Message{
			Kind: kind, From: 0,
			Matrix:  workload.Gaussian(rand.New(rand.NewSource(1)), 2, 10),
			Scalars: []float64{5, 0}, Ints: []int64{0},
		}
		coord.handleMessage(context.Background(), nil, msg, map[int]int64{}, known, nil)
	}
	after := *coord.status(known)
	before.UptimeSec, after.UptimeSec = 0, 0
	if after != before || coord.track.ReportedMass() != 0 {
		t.Fatalf("status %+v after the dropped uploads, want %+v (reported mass %v)", after, before, coord.track.ReportedMass())
	}
	if len(known) != 0 {
		t.Fatalf("the sender of a dropped upload became known: %v", known)
	}
}
