package monitoring

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
	"repro/internal/matrix"
	"repro/internal/workload"
)

func streams(seed int64, s, rowsEach, d int) []*matrix.Dense {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*matrix.Dense, s)
	for i := range out {
		out[i] = workload.LowRankPlusNoise(rng, rowsEach, d, 3, 20, 0.8, 0.3)
	}
	return out
}

func TestTrackingGuaranteeFullSketch(t *testing.T) {
	cfg := Config{Eps: 0.25, S: 4, D: 12, Policy: PolicyFullSketch, Seed: 1}
	res, err := Simulate(cfg, streams(1, 4, 150, 12), 50)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxRelErr > cfg.Eps {
		t.Fatalf("tracking error %v exceeded ε=%v", res.MaxRelErr, cfg.Eps)
	}
	if len(res.Checkpoints) == 0 {
		t.Fatal("no checkpoints")
	}
	if res.Uploads == 0 || res.Broadcasts == 0 {
		t.Fatal("protocol never communicated")
	}
}

func TestTrackingGuaranteeDelta(t *testing.T) {
	cfg := Config{Eps: 0.25, S: 4, D: 12, Policy: PolicyDelta, Seed: 2}
	res, err := Simulate(cfg, streams(2, 4, 150, 12), 50)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxRelErr > cfg.Eps {
		t.Fatalf("delta tracking error %v exceeded ε=%v", res.MaxRelErr, cfg.Eps)
	}
}

func TestTrackingGuaranteeSVSDelta(t *testing.T) {
	cfg := Config{Eps: 0.25, S: 4, D: 12, Policy: PolicySVSDelta, Seed: 3}
	res, err := Simulate(cfg, streams(3, 4, 150, 12), 50)
	if err != nil {
		t.Fatal(err)
	}
	// Probabilistic guarantee: allow slack over the deterministic target.
	if res.MaxRelErr > 2*cfg.Eps {
		t.Fatalf("SVS-delta tracking error %v exceeded 2ε", res.MaxRelErr)
	}
}

func TestTrackingBeatsNaiveStreaming(t *testing.T) {
	// The delta policies must beat streaming every row; the classic
	// full-resend baseline is allowed to lose on short streams (its cost is
	// per-upload Θ(sketch) regardless of how little is new — the
	// inefficiency the delta policies remove).
	var deltaWords, svsWords float64
	for _, policy := range []Policy{PolicyDelta, PolicySVSDelta} {
		cfg := Config{Eps: 0.2, S: 4, D: 16, Policy: policy, Seed: 4}
		res, err := Simulate(cfg, streams(4, 4, 400, 16), 100)
		if err != nil {
			t.Fatal(err)
		}
		if res.TotalWords >= res.NaiveWords {
			t.Fatalf("%v: tracking cost %v not below naive %v", policy, res.TotalWords, res.NaiveWords)
		}
		if policy == PolicyDelta {
			deltaWords = res.TotalWords
		} else {
			svsWords = res.TotalWords
		}
	}
	// The §1.5 open-question measurement: SVS-compressed deltas ship no
	// more than plain FD deltas.
	if svsWords > deltaWords {
		t.Fatalf("svs-delta %v words above fd-delta %v", svsWords, deltaWords)
	}
}

func TestErrorMonotoneInCommunication(t *testing.T) {
	// More budget (larger ε) must mean fewer words.
	loose, err := Simulate(Config{Eps: 0.4, S: 3, D: 10, Policy: PolicyDelta, Seed: 5}, streams(5, 3, 200, 10), 100)
	if err != nil {
		t.Fatal(err)
	}
	tight, err := Simulate(Config{Eps: 0.1, S: 3, D: 10, Policy: PolicyDelta, Seed: 5}, streams(5, 3, 200, 10), 100)
	if err != nil {
		t.Fatal(err)
	}
	if tight.TotalWords <= loose.TotalWords {
		t.Fatalf("tight ε cost %v not above loose ε cost %v", tight.TotalWords, loose.TotalWords)
	}
}

func TestWordsNondecreasingAcrossCheckpoints(t *testing.T) {
	cfg := Config{Eps: 0.25, S: 3, D: 8, Policy: PolicyFullSketch, Seed: 6}
	res, err := Simulate(cfg, streams(6, 3, 120, 8), 30)
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for _, cp := range res.Checkpoints {
		if cp.Words < prev {
			t.Fatalf("words decreased: %v after %v", cp.Words, prev)
		}
		prev = cp.Words
	}
}

func TestNoUploadStormAtStreamStart(t *testing.T) {
	// Before any threshold broadcast the budget is zero. The first row at
	// each server must produce a one-word mass announcement, not a full
	// sketch upload — the old trigger shipped s sketch blocks for the first
	// s rows of the system.
	const s, d = 4, 8
	cfg := Config{Eps: 0.2, S: s, D: d, Policy: PolicyFullSketch, Seed: 9}
	coord := NewCoordinator(cfg)
	servers := make([]*Server, s)
	for i := range servers {
		servers[i] = newServer(cfg, i)
	}
	row := make([]float64, d)
	row[0] = 1
	for i, sv := range servers {
		up, err := sv.Offer(row)
		if err != nil {
			t.Fatal(err)
		}
		if up == nil {
			t.Fatalf("server %d: no announcement on first row", i)
		}
		if !up.Announce || up.Rows != nil || up.Words != 1 {
			t.Fatalf("server %d: first message not a one-word announce: %+v", i, up)
		}
		if _, err := coord.Absorb(up); err != nil {
			t.Fatal(err)
		}
	}
	if coord.Uploads() != 0 {
		t.Fatalf("upload storm: %d sketch uploads before any threshold", coord.Uploads())
	}
	if coord.Announces() != s {
		t.Fatalf("announces = %d, want %d", coord.Announces(), s)
	}
	// A second row with the threshold still uninstalled must stay silent.
	up, err := servers[0].Offer(row)
	if err != nil {
		t.Fatal(err)
	}
	if up != nil {
		t.Fatalf("second pre-threshold row produced a message: %+v", up)
	}
	// Once a threshold is installed and crossed, real uploads flow and the
	// pending (announced-but-unshipped) rows ride along.
	servers[0].SetThreshold(1e-9)
	up, err = servers[0].Offer(row)
	if err != nil {
		t.Fatal(err)
	}
	if up == nil || up.Announce || up.Rows == nil || up.Rows.Rows() == 0 {
		t.Fatalf("post-threshold upload missing pending rows: %+v", up)
	}
}

func TestAbsorbBroadcastCadence(t *testing.T) {
	// The coordinator re-broadcasts exactly when the total reported mass
	// doubles since the last broadcast (plus the initial bootstrap), and a
	// full broadcast reaches exactly the heard-from servers. A server that
	// announces between broadcasts receives a one-recipient catch-up.
	cfg := Config{Eps: 0.2, S: 2, D: 4, Policy: PolicyDelta, Seed: 10}
	coord := NewCoordinator(cfg)
	absorb := func(from int, mass float64) *Broadcast {
		t.Helper()
		bc, err := coord.Absorb(&Upload{From: from, Announce: true, Mass: mass, Words: 1})
		if err != nil {
			t.Fatal(err)
		}
		return bc
	}
	bc := absorb(0, 1)
	if bc == nil || bc.Threshold <= 0 {
		t.Fatal("first absorb must broadcast a threshold")
	}
	if len(bc.To) != 1 || bc.To[0] != 0 {
		t.Fatalf("bootstrap broadcast recipients %v, want [0]", bc.To)
	}
	// total 1 → broadcast at mass > 2.
	if bc := absorb(0, 1.5); bc != nil {
		t.Fatalf("broadcast at total 1.5 ≤ 2: %+v", bc)
	}
	// Server 1's first announce between broadcasts: a catch-up delivering
	// the standing threshold to it alone, no re-broadcast.
	bc = absorb(1, 0.4)
	if bc == nil {
		t.Fatal("late announcer got no catch-up threshold")
	}
	if len(bc.To) != 1 || bc.To[0] != 1 {
		t.Fatalf("catch-up recipients %v, want [1]", bc.To)
	}
	if want := cfg.Eps / 2 * 1 / float64(cfg.S); math.Abs(bc.Threshold-want) > 1e-12 {
		t.Fatalf("catch-up threshold %v, want standing %v", bc.Threshold, want)
	}
	bc = absorb(0, 2.1) // total 2.5 > 2 → broadcast
	if bc == nil {
		t.Fatal("no broadcast after total mass doubled")
	}
	want := cfg.Eps / 2 * 2.5 / float64(cfg.S)
	if math.Abs(bc.Threshold-want) > 1e-12 {
		t.Fatalf("threshold %v, want ε/2·T/s = %v", bc.Threshold, want)
	}
	if len(bc.To) != 2 {
		t.Fatalf("full broadcast recipients %v, want both servers", bc.To)
	}
	// total 2.5 → next broadcast strictly above 5 (server 0 holds 2.1).
	if bc := absorb(1, 2.9); bc != nil {
		t.Fatalf("broadcast at total 5.0, needs > 5: %+v", bc)
	}
	if bc := absorb(1, 3.0); bc == nil {
		t.Fatal("no broadcast at total 5.1 > 5")
	}
	if got := coord.Broadcasts(); got != 3 {
		t.Fatalf("broadcasts = %d, want 3", got)
	}
	if got := coord.Catchups(); got != 1 {
		t.Fatalf("catchups = %d, want 1", got)
	}
}

func TestBroadcastWordsChargeHeardServersOnly(t *testing.T) {
	// Regression for the over-billing bug: a threshold broadcast used to be
	// charged a flat S words even when only a few of the S servers had
	// announced. The charge must be one word per actual recipient.
	cfg := Config{Eps: 0.2, S: 8, D: 4, Policy: PolicyDelta, Seed: 12}
	coord := NewCoordinator(cfg)
	absorb := func(from int, mass float64) {
		t.Helper()
		if _, err := coord.Absorb(&Upload{From: from, Announce: true, Mass: mass, Words: 1}); err != nil {
			t.Fatal(err)
		}
	}
	// First announce: 1 upload word + a 1-recipient bootstrap broadcast.
	// The old accounting charged 1 + S = 9 here.
	absorb(0, 1)
	if got := coord.Words(); got != 2 {
		t.Fatalf("words after first announce = %v, want 2 (1 announce + 1 recipient)", got)
	}
	// Second announce doubles the total → full broadcast to the 2 heard
	// servers: +1 announce word, +2 recipient words.
	absorb(1, 10)
	if got := coord.Words(); got != 5 {
		t.Fatalf("words after doubling = %v, want 5", got)
	}
	// Third server announces a tiny mass: no doubling, but it must still be
	// caught up — +1 announce word, +1 catch-up word.
	absorb(2, 0.01)
	if got := coord.Words(); got != 7 {
		t.Fatalf("words after catch-up = %v, want 7", got)
	}
	if coord.Broadcasts() != 2 || coord.Catchups() != 1 {
		t.Fatalf("broadcasts/catchups = %d/%d, want 2/1", coord.Broadcasts(), coord.Catchups())
	}
}

func TestServerStateRoundTrip(t *testing.T) {
	// A checkpointed server must restore bit-exactly: same sketches, same
	// protocol counters, and identical behaviour on the rows that follow.
	cfg := Config{Eps: 0.25, S: 2, D: 10, Policy: PolicyDelta, Seed: 13}
	rows := workload.LowRankPlusNoise(rand.New(rand.NewSource(13)), 120, 10, 3, 15, 0.8, 0.3)
	live := NewServer(cfg, 1)
	live.SetThreshold(0.9)
	for i := 0; i < 70; i++ {
		if _, err := live.Offer(rows.Row(i)); err != nil {
			t.Fatal(err)
		}
	}
	st, err := live.State()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreServer(cfg, st)
	if err != nil {
		t.Fatal(err)
	}
	if restored.LocalMass() != live.LocalMass() ||
		restored.UnreportedMass() != live.UnreportedMass() ||
		restored.Threshold() != live.Threshold() {
		t.Fatalf("restored counters diverge: mass %v/%v unreported %v/%v threshold %v/%v",
			restored.LocalMass(), live.LocalMass(),
			restored.UnreportedMass(), live.UnreportedMass(),
			restored.Threshold(), live.Threshold())
	}
	// Replay the tail through both; every emitted upload must match exactly.
	for i := 70; i < 120; i++ {
		a, err := live.Offer(rows.Row(i))
		if err != nil {
			t.Fatal(err)
		}
		b, err := restored.Offer(rows.Row(i))
		if err != nil {
			t.Fatal(err)
		}
		if (a == nil) != (b == nil) {
			t.Fatalf("row %d: upload presence diverged (live %v, restored %v)", i, a != nil, b != nil)
		}
		if a == nil {
			continue
		}
		if a.Mass != b.Mass || a.Words != b.Words || a.Shrinkage != b.Shrinkage {
			t.Fatalf("row %d: upload fields diverged: %+v vs %+v", i, a, b)
		}
		if a.Rows.Rows() != b.Rows.Rows() {
			t.Fatalf("row %d: shipped block rows %d vs %d", i, a.Rows.Rows(), b.Rows.Rows())
		}
		for r := 0; r < a.Rows.Rows(); r++ {
			for c := 0; c < a.Rows.Cols(); c++ {
				if a.Rows.At(r, c) != b.Rows.At(r, c) {
					t.Fatalf("row %d: shipped block differs at (%d,%d)", i, r, c)
				}
			}
		}
	}
}

func TestRestoreServerRejectsBadState(t *testing.T) {
	cfg := Config{Eps: 0.25, S: 2, D: 10, Policy: PolicyDelta, Seed: 14}
	if _, err := RestoreServer(cfg, nil); err == nil {
		t.Fatal("nil state accepted")
	}
	s := NewServer(cfg, 0)
	st, err := s.State()
	if err != nil {
		t.Fatal(err)
	}
	st.LocalMass = -1
	if _, err := RestoreServer(cfg, st); err == nil {
		t.Fatal("negative mass accepted")
	}
}

func TestCoordinatorErrorBound(t *testing.T) {
	// The live certificate must dominate the realized covariance error at
	// every audit point, for both the replacing and the additive policy.
	for _, policy := range []Policy{PolicyFullSketch, PolicyDelta} {
		cfg := Config{Eps: 0.25, S: 3, D: 10, Policy: policy, Seed: 15}
		sts := streams(15, 3, 150, 10)
		coord := NewCoordinator(cfg)
		servers := make([]*Server, cfg.S)
		for i := range servers {
			servers[i] = NewServer(cfg, i)
		}
		seen := matrix.New(0, cfg.D)
		for r := 0; r < 150; r++ {
			for i, st := range sts {
				row := st.Row(r)
				up, err := servers[i].Offer(row)
				if err != nil {
					t.Fatal(err)
				}
				if up != nil {
					bc, err := coord.Absorb(up)
					if err != nil {
						t.Fatal(err)
					}
					if bc != nil {
						for _, id := range bc.To {
							servers[id].SetThreshold(bc.Threshold)
						}
					}
				}
				seen = seen.AppendRow(row)
			}
			if r%25 != 24 {
				continue
			}
			b, err := coord.Sketch()
			if err != nil {
				t.Fatal(err)
			}
			ce, err := linalg.CovarianceError(seen, b)
			if err != nil {
				t.Fatal(err)
			}
			if bound := coord.ErrorBound(); ce > bound+1e-9 {
				t.Fatalf("%v at t=%d: realized coverr %v exceeds certificate %v", policy, r, ce, bound)
			}
		}
	}
}

func TestSVSDeltaTrackingErrorEndToEnd(t *testing.T) {
	// End-to-end audit of the experimental SVS-compressed-delta policy: the
	// realized tracking error must stay within the probabilistic budget at
	// EVERY checkpoint (not only the max), and the announce bootstrap must
	// not starve the protocol of uploads.
	cfg := Config{Eps: 0.25, S: 4, D: 12, Policy: PolicySVSDelta, Seed: 11}
	res, err := Simulate(cfg, streams(11, 4, 200, 12), 25)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Checkpoints) == 0 {
		t.Fatal("no checkpoints")
	}
	for _, cp := range res.Checkpoints {
		if cp.RelErr > 2*cfg.Eps {
			t.Fatalf("checkpoint t=%d: tracking error %v exceeded 2ε=%v", cp.Time, cp.RelErr, 2*cfg.Eps)
		}
	}
	if res.Uploads == 0 || res.Broadcasts == 0 {
		t.Fatalf("protocol starved: %d uploads, %d broadcasts", res.Uploads, res.Broadcasts)
	}
	if res.Announces == 0 {
		t.Fatal("no bootstrap announcement recorded")
	}
	if res.TotalWords >= res.NaiveWords {
		t.Fatalf("tracking cost %v not below naive %v", res.TotalWords, res.NaiveWords)
	}
}

func TestPolicyString(t *testing.T) {
	for _, p := range []Policy{PolicyFullSketch, PolicyDelta, PolicySVSDelta, Policy(9)} {
		if p.String() == "" {
			t.Fatal("empty String")
		}
	}
}

func TestConfigValidation(t *testing.T) {
	for _, cfg := range []Config{
		{Eps: 0, S: 1, D: 1},
		{Eps: 1, S: 1, D: 1},
		{Eps: 0.1, S: 0, D: 1},
		{Eps: 0.1, S: 1, D: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%+v: expected panic", cfg)
				}
			}()
			NewCoordinator(cfg)
		}()
	}
	// Stream count mismatch.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for stream mismatch")
			}
		}()
		Simulate(Config{Eps: 0.1, S: 2, D: 4}, streams(7, 3, 10, 4), 5)
	}()
}

func TestEmptyCoordinatorSketch(t *testing.T) {
	c := NewCoordinator(Config{Eps: 0.2, S: 2, D: 5, Policy: PolicyFullSketch})
	b, err := c.Sketch()
	if err != nil || b.Rows() != 0 || b.Cols() != 5 {
		t.Fatalf("empty sketch: %v %d×%d", err, b.Rows(), b.Cols())
	}
}

// TestResumeUploadCertifiesShippedRows: the replace block a restored server
// ships carries the certificate of the rows it ships. When the full
// sketch's buffer holds more than ℓ rows, Snapshot shrinks a private copy,
// and that shrink's charge must be in Shrinkage, or the coordinator's
// ErrorBound sits below the block's covariance error. The error is
// measured by the Jacobi oracle after every row.
func TestResumeUploadCertifiesShippedRows(t *testing.T) {
	const d = 12
	cfg := Config{Eps: 0.5, S: 1, D: d, Policy: PolicyFullSketch, Seed: 1}
	s := NewServer(cfg, 0)
	rows := workload.Gaussian(rand.New(rand.NewSource(3)), 60, d)
	for i := 0; i < rows.Rows(); i++ {
		if _, err := s.Offer(rows.Row(i)); err != nil {
			t.Fatal(err)
		}
		up, err := s.ResumeUpload()
		if err != nil {
			t.Fatal(err)
		}
		a := rows.SliceRows(0, i+1)
		coverr, err := linalg.SpectralNormSym(a.Gram().Sub(up.Rows.Gram()))
		if err != nil {
			t.Fatal(err)
		}
		if coverr > up.Shrinkage+1e-12*a.Frob2() {
			t.Fatalf("after %d rows: block coverr %.4g above its shipped Shrinkage %.4g", i+1, coverr, up.Shrinkage)
		}
	}
}
