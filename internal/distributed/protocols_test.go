package distributed

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/fd"
	"repro/internal/linalg"
	"repro/internal/matrix"
	"repro/internal/workload"
)

func split(t *testing.T, seed int64, n, d, s int) (*matrix.Dense, []*matrix.Dense) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	a := workload.LowRankPlusNoise(rng, n, d, 4, 30, 0.7, 0.4)
	return a, workload.Split(a, s, workload.Contiguous, nil)
}

func TestRunFDMergeGuaranteeAndCost(t *testing.T) {
	a, parts := split(t, 1, 240, 16, 6)
	eps, k := 0.25, 3
	res, err := Run(context.Background(), FDMerge{Eps: eps, K: k}, parts)
	if err != nil {
		t.Fatal(err)
	}
	ok, ce, bound, err := core.IsEpsKSketch(a, res.Sketch, eps, k)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("FD merge not an (ε,k)-sketch: %v > %v", ce, bound)
	}
	// Cost: exactly Σ rows(B_i)·d ≤ s·ℓ·d words.
	maxWords := float64(6 * fd.SketchSize(eps, k) * 16)
	if res.Words > maxWords || res.Words <= 0 {
		t.Fatalf("words = %v, expected in (0, %v]", res.Words, maxWords)
	}
	if res.Rounds != 1 {
		t.Fatalf("rounds = %d, want 1", res.Rounds)
	}
	if res.Messages != 6 {
		t.Fatalf("messages = %d, want 6", res.Messages)
	}
}

func TestRunSVSGuaranteeAndCost(t *testing.T) {
	alpha, delta := 0.15, 0.1
	fails := 0
	const trials = 10
	var lastWords float64
	for trial := 0; trial < trials; trial++ {
		a, parts := split(t, int64(100+trial), 320, 16, 8)
		res, err := Run(context.Background(), SVS{Alpha: alpha, Delta: delta}, parts, WithSeed(int64(trial)))
		if err != nil {
			t.Fatal(err)
		}
		ce, err := core.CovErr(a, res.Sketch)
		if err != nil {
			t.Fatal(err)
		}
		if ce > 4*alpha*a.Frob2() {
			fails++
		}
		lastWords = res.Words
		if res.Rounds != 2 {
			t.Fatalf("rounds = %d, want 2", res.Rounds)
		}
	}
	if fails > 2 {
		t.Fatalf("SVS protocol failed %d/%d trials", fails, trials)
	}
	// Cost sanity: must include the 2s calibration words.
	if lastWords < 16 {
		t.Fatalf("words = %v, below calibration floor", lastWords)
	}
}

func TestSVSBeatsFDMergeAtLargeS(t *testing.T) {
	// The paper's separation: at large s and matching error targets, the
	// randomized protocol ships fewer words than the deterministic one.
	s := 48
	rng := rand.New(rand.NewSource(7))
	a := workload.PowerLawSpectrum(rng, 960, 24, 0.8, 20)
	parts := workload.Split(a, s, workload.Contiguous, nil)
	eps := 0.1
	det, err := Run(context.Background(), FDMerge{Eps: eps}, parts)
	if err != nil {
		t.Fatal(err)
	}
	randomized, err := Run(context.Background(), SVS{Alpha: eps, Delta: 0.1}, parts)
	if err != nil {
		t.Fatal(err)
	}
	if randomized.Words >= det.Words {
		t.Fatalf("SVS (%v words) not below FD merge (%v words) at s=%d", randomized.Words, det.Words, s)
	}
}

func TestRunRowSamplingGuarantee(t *testing.T) {
	eps := 0.3
	okCount := 0
	const trials = 12
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(200 + trial)))
		a := workload.Gaussian(rng, 300, 12)
		// A zero-mass server first: it must be assigned no samples.
		parts := append([]*matrix.Dense{matrix.New(5, 12)}, workload.Split(a, 5, workload.Skewed, nil)...)
		res, err := Run(context.Background(), RowSampling{Eps: eps}, parts, WithSeed(int64(trial)))
		if err != nil {
			t.Fatal(err)
		}
		// Exactly m samples come back, each a rescaled positive-norm row.
		if m := core.SampleSize(eps); res.Sketch.Rows() != m {
			t.Fatalf("trial %d: %d of %d samples returned", trial, res.Sketch.Rows(), m)
		}
		for r := 0; r < res.Sketch.Rows(); r++ {
			if matrix.Norm2(res.Sketch.Row(r)) == 0 {
				t.Fatalf("trial %d: all-zero sampled row %d", trial, r)
			}
		}
		ce, err := core.CovErr(a, res.Sketch)
		if err != nil {
			t.Fatal(err)
		}
		if ce <= 2*eps*a.Frob2() {
			okCount++
		}
	}
	if okCount < trials*3/5 {
		t.Fatalf("sampling protocol ok only %d/%d", okCount, trials)
	}
	// Zero total mass: nothing to sample.
	res, err := Run(context.Background(), RowSampling{Eps: eps}, []*matrix.Dense{matrix.New(4, 3), matrix.New(2, 3)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sketch.Rows() != 0 {
		t.Fatalf("zero-mass input produced %d sampled rows", res.Sketch.Rows())
	}
}

func TestRowSamplingUnbiasedThroughProtocol(t *testing.T) {
	// The distributed rescaling (local draw, global probability) must keep
	// E[BᵀB] = AᵀA.
	rng := rand.New(rand.NewSource(8))
	a := workload.Gaussian(rng, 90, 6)
	parts := workload.Split(a, 3, workload.Skewed, nil)
	sum := matrix.New(6, 6)
	const trials = 400
	for i := 0; i < trials; i++ {
		res, err := Run(context.Background(), RowSampling{Eps: 0.25}, parts, WithSeed(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		sum = sum.Add(res.Sketch.Gram())
	}
	avg := sum.Scale(1 / float64(trials))
	norm, err := linalg.SpectralNormSym(avg.Sub(a.Gram()))
	if err != nil {
		t.Fatal(err)
	}
	if norm > 0.2*a.Frob2() {
		t.Fatalf("protocol sampling biased by %v (‖A‖F² = %v)", norm, a.Frob2())
	}
}

func TestRunAdaptiveGuaranteeAndCost(t *testing.T) {
	// Theorem 7: Q is a (3ε,k)-sketch of A w.h.p. (4ε under the linear
	// sampling function of Theorem 5), and ‖Q‖F² = ‖A‖F² + O(‖A−[A]_k‖F²).
	eps, k := 0.25, 3
	for _, tc := range []struct {
		sampling  SamplingFn
		budgetEps float64
	}{
		{core.SampleQuadratic, 3 * eps},
		{core.SampleLinear, 4 * eps},
	} {
		fails := 0
		const trials = 8
		for trial := 0; trial < trials; trial++ {
			a, parts := split(t, int64(300+trial), 360, 18, 6)
			res, err := Run(context.Background(), Adaptive{AdaptiveParams: AdaptiveParams{Eps: eps, K: k, Sampling: tc.sampling}}, parts, WithSeed(int64(trial)))
			if err != nil {
				t.Fatal(err)
			}
			ok, _, _, err := core.IsEpsKSketch(a, res.Sketch, tc.budgetEps, k)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				fails++
			}
			tail, err := linalg.TailEnergy(a, k)
			if err != nil {
				t.Fatal(err)
			}
			if res.Sketch.Frob2() > a.Frob2()+8*tail {
				t.Fatalf("%v trial %d: ‖Q‖F² = %v too large (‖A‖F²=%v, tail=%v)", tc.sampling, trial, res.Sketch.Frob2(), a.Frob2(), tail)
			}
		}
		if fails > 2 {
			t.Fatalf("adaptive protocol (%v sampling) failed %d/%d trials", tc.sampling, fails, trials)
		}
	}
}

func TestAdaptiveBeatsFDMergeAtLargeS(t *testing.T) {
	// Table 1 (ε,k) column: O(sdk + √s·kd/ε·√log d) < O(skd/ε) at large s.
	s := 64
	rng := rand.New(rand.NewSource(9))
	a := workload.LowRankPlusNoise(rng, 1280, 24, 3, 40, 0.7, 0.5)
	parts := workload.Split(a, s, workload.Contiguous, nil)
	eps, k := 0.1, 3
	det, err := Run(context.Background(), FDMerge{Eps: eps, K: k}, parts)
	if err != nil {
		t.Fatal(err)
	}
	ad, err := Run(context.Background(), Adaptive{AdaptiveParams: AdaptiveParams{Eps: eps, K: k}}, parts)
	if err != nil {
		t.Fatal(err)
	}
	if ad.Words >= det.Words {
		t.Fatalf("adaptive (%v words) not below FD merge (%v words)", ad.Words, det.Words)
	}
}

func TestRunAdaptiveFinalCompress(t *testing.T) {
	a, parts := split(t, 10, 300, 16, 5)
	eps, k := 0.25, 3
	res, err := Run(context.Background(), Adaptive{AdaptiveParams: AdaptiveParams{Eps: eps, K: k, FinalCompress: true}}, parts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sketch.Rows() > fd.SketchSize(eps, k) {
		t.Fatalf("compressed sketch %d rows > %d", res.Sketch.Rows(), fd.SketchSize(eps, k))
	}
	ok, ce, bound, err := core.IsEpsKSketch(a, res.Sketch, 8*eps, k)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("compressed sketch error %v > %v", ce, bound)
	}
}

func TestRunLowRankExact(t *testing.T) {
	// §3.3 Case 1: integer inputs with rank ≤ 2k reconstruct AᵀA exactly.
	rng := rand.New(rand.NewSource(12))
	k := 3
	a := workload.ExactRank(rng, 120, 14, 2*k, 4)
	parts := workload.Split(a, 5, workload.Contiguous, nil)
	res, err := Run(context.Background(), LowRankExact{KBound: k}, parts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Gram.EqualApprox(a.Gram(), 1e-5*(1+a.Gram().MaxAbs())) {
		t.Fatal("low-rank exact protocol did not reconstruct AᵀA")
	}
	ce, err := core.CovErr(a, res.Sketch)
	if err != nil {
		t.Fatal(err)
	}
	if ce > 1e-5*a.Frob2() {
		t.Fatalf("sketch coverr = %v", ce)
	}
	// Cost: at most s·(2k·d + (2k)²) words, far below shipping A.
	maxWords := float64(5 * (2*k*14 + 4*k*k))
	if res.Words > maxWords {
		t.Fatalf("words = %v > %v", res.Words, maxWords)
	}
}

func TestLowRankExactRankOverflow(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := workload.Gaussian(rng, 40, 10) // full rank 10 > 2k = 4
	parts := workload.Split(a, 2, workload.Contiguous, nil)
	if _, err := Run(context.Background(), LowRankExact{KBound: 2}, parts); err == nil {
		t.Fatal("expected rank-overflow error")
	}
}

func TestIndependentRowTracker(t *testing.T) {
	// Y must equal Q·AᵀA·Qᵀ computed directly.
	rng := rand.New(rand.NewSource(14))
	a := workload.ExactRank(rng, 30, 8, 4, 3)
	tr := NewIndependentRowTracker(8, 8, 0)
	if err := tr.UpdateMatrix(a); err != nil {
		t.Fatal(err)
	}
	if tr.Rank() != 4 {
		t.Fatalf("rank = %d, want 4", tr.Rank())
	}
	if tr.Rows() != 30 {
		t.Fatalf("rows = %d", tr.Rows())
	}
	q := tr.Q()
	want := q.Mul(a.Gram()).Mul(q.T())
	if !tr.Y().EqualApprox(want, 1e-6*(1+want.MaxAbs())) {
		t.Fatal("Y != Q·AᵀA·Qᵀ")
	}
}

func TestTrackerZeroRows(t *testing.T) {
	tr := NewIndependentRowTracker(4, 2, 0)
	if err := tr.Update(make([]float64, 4)); err != nil {
		t.Fatal(err)
	}
	if tr.Rank() != 0 || tr.Rows() != 1 {
		t.Fatal("zero row must not add rank")
	}
}

func TestQuantizedProtocolSavesBits(t *testing.T) {
	// F6: with §3.3 quantization, the same protocol ships fewer bits and
	// the error penalty is below the quantizer's worst-case bound.
	a, parts := split(t, 15, 200, 12, 4)
	eps, k := 0.25, 3
	plain, err := Run(context.Background(), FDMerge{Eps: eps, K: k}, parts)
	if err != nil {
		t.Fatal(err)
	}
	step := comm.StepFor(200, 12, eps)
	quant, err := Run(context.Background(), FDMerge{Eps: eps, K: k}, parts, WithQuantization(step))
	if err != nil {
		t.Fatal(err)
	}
	if quant.Bits >= plain.Bits {
		t.Fatalf("quantized bits %d not below plain %d", quant.Bits, plain.Bits)
	}
	cePlain, err := core.CovErr(a, plain.Sketch)
	if err != nil {
		t.Fatal(err)
	}
	ceQuant, err := core.CovErr(a, quant.Sketch)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ceQuant-cePlain) > 0.05*a.Frob2() {
		t.Fatalf("quantization changed error too much: %v vs %v", ceQuant, cePlain)
	}
}

func TestMemNetworkBasics(t *testing.T) {
	net := NewMemNetwork(2, nil)
	defer net.Close()
	n0 := net.Node(0)
	coord := net.Coordinator()
	done := make(chan error, 1)
	go func() {
		done <- n0.Send(context.Background(), comm.CoordinatorID, &comm.Message{Kind: "hi", Scalars: []float64{3}})
	}()
	msg, err := coord.Recv(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if msg.Kind != "hi" || msg.From != 0 || msg.To != comm.CoordinatorID {
		t.Fatalf("message = %+v", msg)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if net.Meter().Words() != 1 {
		t.Fatalf("meter = %v", net.Meter().Words())
	}
	if net.Servers() != 2 {
		t.Fatal("Servers wrong")
	}
	// Unknown endpoint.
	if err := n0.Send(context.Background(), 99, &comm.Message{Kind: "x"}); err == nil {
		t.Fatal("expected unknown-endpoint error")
	}
}

func TestMemNetworkClose(t *testing.T) {
	net := NewMemNetwork(1, nil)
	node := net.Node(0)
	go net.Close()
	if _, err := node.Recv(context.Background()); err != ErrNetworkClosed {
		t.Fatalf("err = %v, want ErrNetworkClosed", err)
	}
	if err := node.Send(context.Background(), comm.CoordinatorID, &comm.Message{Kind: "x"}); err != ErrNetworkClosed {
		t.Fatalf("send err = %v", err)
	}
	net.Close() // double close is a no-op
}

func TestGatherRejectsWrongKind(t *testing.T) {
	net := NewMemNetwork(1, nil)
	defer net.Close()
	go net.Node(0).Send(context.Background(), comm.CoordinatorID, &comm.Message{Kind: "wrong"})
	if _, err := gatherAll(context.Background(), net.Coordinator(), 1, "right", comm.Dims{}, Config{}); err == nil {
		t.Fatal("expected kind mismatch error")
	}
}

// TestShortCalibrationFrameFailsItsRound sends SVS's calibration messages
// without their scalar: a frob2 to the coordinator and a frob2-total to a
// server. Each party must fail the round with an error that names the
// sender and the kind. Over TCP such a frame comes off the wire, so a panic
// on the missing payload would kill the process.
func TestShortCalibrationFrameFailsItsRound(t *testing.T) {
	ctx := context.Background()
	_, parts := split(t, 3, 40, 4, 2)
	p := SVS{Alpha: 0.2, Delta: 0.1, Env: Env{Servers: 2, Dim: 4}}
	noPanic := func(t *testing.T, run func() error) (err error) {
		t.Helper()
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("panicked instead of returning an error: %v", r)
			}
		}()
		return run()
	}
	wantErr := func(t *testing.T, err error, parts ...string) {
		t.Helper()
		if err == nil {
			t.Fatal("expected an error")
		}
		for _, part := range parts {
			if !strings.Contains(err.Error(), part) {
				t.Fatalf("error %q does not name %s", err, part)
			}
		}
	}

	t.Run("coordinator", func(t *testing.T) {
		net := NewMemNetwork(2, nil)
		defer net.Close()
		go net.Node(0).Send(ctx, comm.CoordinatorID, &comm.Message{Kind: "frob2", Scalars: []float64{parts[0].Frob2()}})
		go net.Node(1).Send(ctx, comm.CoordinatorID, &comm.Message{Kind: "frob2"})
		err := noPanic(t, func() error { _, err := p.Coordinator(ctx, net.Coordinator()); return err })
		wantErr(t, err, `"frob2"`, "from 1")
	})

	t.Run("server", func(t *testing.T) {
		net := NewMemNetwork(2, nil)
		defer net.Close()
		go func() {
			if _, err := net.Coordinator().Recv(ctx); err == nil {
				net.Coordinator().Send(ctx, 0, &comm.Message{Kind: "frob2-total"})
			}
		}()
		in := CovarianceInput(workload.NewDenseSource(parts[0]))
		err := noPanic(t, func() error { return p.Server(ctx, net.Node(0), in) })
		wantErr(t, err, `"frob2-total"`, fmt.Sprintf("from %d", comm.CoordinatorID))
	})
}

func TestPartitionInvariance(t *testing.T) {
	// The deterministic protocol's guarantee must not depend on how rows are
	// partitioned (the paper's arbitrary-partition claim).
	rng := rand.New(rand.NewSource(16))
	a := workload.LowRankPlusNoise(rng, 240, 14, 3, 25, 0.7, 0.4)
	eps, k := 0.25, 3
	for _, scheme := range []workload.Partition{workload.Contiguous, workload.RoundRobin, workload.Skewed, workload.RandomAssign} {
		parts := workload.Split(a, 6, scheme, rand.New(rand.NewSource(17)))
		res, err := Run(context.Background(), FDMerge{Eps: eps, K: k}, parts)
		if err != nil {
			t.Fatal(err)
		}
		ok, ce, bound, err := core.IsEpsKSketch(a, res.Sketch, eps, k)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("%v partition: %v > %v", scheme, ce, bound)
		}
	}
}
