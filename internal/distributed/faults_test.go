package distributed

import (
	"context"
	"errors"
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/matrix"
)

// checkGoroutines fails the test if goroutines spawned during it are still
// alive at cleanup time (after a grace period for runtime bookkeeping).
// Every fault-injection test uses it: a protocol aborted mid-round must not
// leave server goroutines parked on a dead network.
func checkGoroutines(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if runtime.NumGoroutine() <= before {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Errorf("goroutine leak: %d before, %d after\n%s", before, runtime.NumGoroutine(), buf[:n])
	})
}

// timeoutCtx returns a context that expires after d, cancelled when the
// test ends.
func timeoutCtx(t *testing.T, d time.Duration) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	t.Cleanup(cancel)
	return ctx
}

// TestFaultMatrixAllProtocols drives every protocol through each single-fault
// plan (drop, delay, duplicate). The contract under faults is "clean outcome,
// promptly": either the run succeeds and the output is usable, or it fails
// with an explicit error — never a hang past the deadline, never a leaked
// party goroutine.
func TestFaultMatrixAllProtocols(t *testing.T) {
	checkGoroutines(t)
	_, parts := split(t, 61, 160, 12, 4)
	k := 2

	protos := []Protocol{
		FDMerge{Eps: 0.25, K: k},
		SVS{Alpha: 0.25, Delta: 0.1, Sampling: SampleQuadratic},
		RowSampling{Eps: 0.3},
		Adaptive{AdaptiveParams: AdaptiveParams{Eps: 0.25, K: k}},
		SketchPCA{Sketch: Adaptive{AdaptiveParams: AdaptiveParams{Eps: 0.125, K: k}}, K: k},
	}
	plans := map[string]FaultPlan{
		"drop":      {Seed: 11, Drop: 0.15},
		"delay":     {Seed: 12, Delay: 3 * time.Millisecond},
		"duplicate": {Seed: 13, Duplicate: 0.3},
	}
	const deadline = 10 * time.Second
	for planName, plan := range plans {
		for _, proto := range protos {
			t.Run(planName+"/"+proto.Name(), func(t *testing.T) {
				start := time.Now()
				res, err := Run(timeoutCtx(t, deadline), proto, parts,
					WithSeed(5),
					WithFaults(plan),
					// Fail fast on lost messages instead of waiting out the
					// whole deadline.
					WithStragglers(StragglerPolicy{Timeout: time.Second}),
				)
				if elapsed := time.Since(start); elapsed > deadline+5*time.Second {
					t.Fatalf("run outlived its deadline: %v", elapsed)
				}
				if err != nil {
					t.Logf("clean failure (acceptable under %s): %v", planName, err)
					return
				}
				if res.Sketch == nil && res.PCs == nil && res.Gram == nil {
					t.Fatal("successful run produced no output")
				}
			})
		}
	}
}

// TestDelayOnlyPreservesResults checks that pure latency (no loss) never
// changes a deterministic protocol's output: the delayed run must match the
// fault-free run bit for bit.
func TestDelayOnlyPreservesResults(t *testing.T) {
	checkGoroutines(t)
	_, parts := split(t, 62, 120, 10, 4)
	clean, err := Run(context.Background(), FDMerge{Eps: 0.25, K: 2}, parts)
	if err != nil {
		t.Fatal(err)
	}
	delayed, err := Run(timeoutCtx(t, 30*time.Second), FDMerge{Eps: 0.25, K: 2}, parts,
		WithFaults(FaultPlan{Seed: 3, Delay: 2 * time.Millisecond}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if !clean.Sketch.Equal(delayed.Sketch) {
		t.Fatal("delays changed a deterministic protocol's sketch")
	}
}

// TestCancellationUnblocksAllParties cancels the run context while every
// server is parked in Recv on a message that will never come; all parties
// must unblock promptly with the context error.
func TestCancellationUnblocksAllParties(t *testing.T) {
	checkGoroutines(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	net := NewMemNetwork(3, nil)
	defer net.Close()

	blocked := make(chan struct{}, 3)
	serverFns := make([]func() error, 3)
	for i := 0; i < 3; i++ {
		node := net.Node(i)
		serverFns[i] = func() error {
			blocked <- struct{}{}
			_, err := node.Recv(ctx) // no broadcast ever arrives
			return err
		}
	}
	done := make(chan error, 1)
	go func() {
		done <- runParties(ctx, net, serverFns, func() error {
			_, err := net.Coordinator().Recv(ctx) // nothing is ever sent
			return err
		})
	}()
	for i := 0; i < 3; i++ {
		<-blocked
	}
	cancel()
	select {
	case err := <-done:
		if err == nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("expected context.Canceled, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancellation did not unblock the parties")
	}
}

// TestRunDeadlineAbortsPartitionedRun partitions every server's uplink so
// the coordinator can never gather; the deadline of the run's context must
// abort the whole run with a deadline error instead of hanging.
func TestRunDeadlineAbortsPartitionedRun(t *testing.T) {
	checkGoroutines(t)
	_, parts := split(t, 63, 80, 8, 3)
	start := time.Now()
	_, err := Run(timeoutCtx(t, 300*time.Millisecond), FDMerge{Eps: 0.25, K: 2}, parts,
		WithFaults(FaultPlan{Seed: 1, Partition: map[int]bool{0: true, 1: true, 2: true}}),
	)
	if err == nil {
		t.Fatal("expected deadline error from fully partitioned run")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expected context.DeadlineExceeded, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline abort took %v", elapsed)
	}
}

// TestStragglerQuorumFDMerge partitions one server's uplink. With a quorum
// the FD-merge coordinator proceeds on the responsive servers' sketches and
// reports the absentee; the partial sketch still carries the (ε,k) guarantee
// for the union of the responsive rows. Without a quorum the same partition
// is a straggler error.
func TestStragglerQuorumFDMerge(t *testing.T) {
	checkGoroutines(t)
	_, parts := split(t, 64, 200, 10, 4)
	eps, k := 0.25, 2
	cut := FaultPlan{Seed: 1, Partition: map[int]bool{2: true}}

	res, err := Run(timeoutCtx(t, 30*time.Second), FDMerge{Eps: eps, K: k}, parts,
		WithFaults(cut),
		WithStragglers(StragglerPolicy{Timeout: 300 * time.Millisecond, Quorum: 3}),
	)
	if err != nil {
		t.Fatalf("quorum run: %v", err)
	}
	if len(res.Missing) != 1 || res.Missing[0] != 2 {
		t.Fatalf("Missing = %v, want [2]", res.Missing)
	}
	responsive := matrix.Stack(parts[0], parts[1], parts[3])
	ok, ce, bound, err := core.IsEpsKSketch(responsive, res.Sketch, eps, k)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("partial sketch violates the guarantee on responsive rows: %v > %v", ce, bound)
	}

	// Fail-fast (Quorum 0): the same partition must surface ErrStraggler.
	_, err = Run(timeoutCtx(t, 30*time.Second), FDMerge{Eps: eps, K: k}, parts,
		WithFaults(cut),
		WithStragglers(StragglerPolicy{Timeout: 300 * time.Millisecond}),
	)
	if !errors.Is(err, ErrStraggler) {
		t.Fatalf("expected ErrStraggler without quorum, got %v", err)
	}
}

// TestQuorumNotHonoredByStrictProtocols verifies that protocols whose
// guarantee needs every server ignore the quorum and fail instead of
// silently dropping a server's contribution.
func TestQuorumNotHonoredByStrictProtocols(t *testing.T) {
	checkGoroutines(t)
	_, parts := split(t, 65, 120, 8, 4)
	for _, proto := range []Protocol{
		SVS{Alpha: 0.25, Delta: 0.1, Sampling: SampleQuadratic},
		SketchPCA{Sketch: FDMerge{Eps: 0.125, K: 2}, K: 2},
	} {
		_, err := Run(timeoutCtx(t, 30*time.Second), proto, parts,
			WithFaults(FaultPlan{Seed: 1, Partition: map[int]bool{1: true}}),
			WithStragglers(StragglerPolicy{Timeout: 200 * time.Millisecond, Quorum: 3}),
		)
		if err == nil {
			t.Fatalf("%s: expected failure despite quorum", proto.Name())
		}
	}
}

// TestMailboxBackpressure fills a capacity-1 mailbox and checks the next
// Send blocks (backpressure, not message loss) until either the context
// expires or the receiver drains the box.
func TestMailboxBackpressure(t *testing.T) {
	checkGoroutines(t)
	net := NewMemNetwork(1, nil, Mailbox(1))
	defer net.Close()
	if got := net.MailboxCapacity(); got != 1 {
		t.Fatalf("MailboxCapacity = %d, want 1", got)
	}
	ctx := context.Background()
	coord, srv := net.Coordinator(), net.Node(0)
	if err := coord.Send(ctx, 0, &comm.Message{Kind: "a"}); err != nil {
		t.Fatal(err)
	}
	// Box is full: a bounded Send must observe backpressure and time out.
	tctx, cancel := context.WithTimeout(ctx, 100*time.Millisecond)
	err := coord.Send(tctx, 0, &comm.Message{Kind: "b"})
	cancel()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expected DeadlineExceeded from full mailbox, got %v", err)
	}
	// Drain, and the same send goes through.
	if _, err := srv.Recv(ctx); err != nil {
		t.Fatal(err)
	}
	if err := coord.Send(ctx, 0, &comm.Message{Kind: "b"}); err != nil {
		t.Fatalf("send after drain: %v", err)
	}
	msg, err := srv.Recv(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Kind != "b" {
		t.Fatalf("got %q, want \"b\"", msg.Kind)
	}
}

// TestFaultPlanDeterminism replays one seeded plan twice over a randomized
// protocol and demands identical outcomes — the property that makes fault
// schedules replayable in CI.
func TestFaultPlanDeterminism(t *testing.T) {
	checkGoroutines(t)
	_, parts := split(t, 66, 150, 10, 4)
	run := func() (*Result, error) {
		return Run(timeoutCtx(t, 30*time.Second), SVS{Alpha: 0.25, Delta: 0.1, Sampling: SampleQuadratic}, parts,
			WithSeed(9),
			WithFaults(FaultPlan{Seed: 21, Delay: time.Millisecond, Duplicate: 0.2}),
			WithStragglers(StragglerPolicy{Timeout: time.Second}),
		)
	}
	r1, err1 := run()
	r2, err2 := run()
	if (err1 == nil) != (err2 == nil) {
		t.Fatalf("outcomes diverged: %v vs %v", err1, err2)
	}
	if err1 != nil {
		if err1.Error() != err2.Error() {
			t.Fatalf("errors diverged: %q vs %q", err1, err2)
		}
		return
	}
	if !r1.Sketch.Equal(r2.Sketch) {
		t.Fatal("same plan seed must reproduce the same sketch")
	}
}

// TestServerFailurePropagatesWithoutDeadlock injects a poisoned input (NaN
// rows make the server's FD reject) and checks every protocol surfaces an
// error promptly instead of deadlocking the coordinator.
func TestServerFailurePropagatesWithoutDeadlock(t *testing.T) {
	checkGoroutines(t)
	_, parts := split(t, 50, 120, 10, 4)
	poisoned := make([]*matrix.Dense, len(parts))
	copy(poisoned, parts)
	bad := parts[2].Clone()
	bad.Set(0, 0, math.NaN())
	poisoned[2] = bad

	type runFn func() error
	runs := map[string]runFn{
		"fd-merge": func() error {
			_, err := Run(context.Background(), FDMerge{Eps: 0.25, K: 2}, poisoned)
			return err
		},
		"adaptive": func() error {
			_, err := Run(context.Background(), Adaptive{AdaptiveParams: AdaptiveParams{Eps: 0.25, K: 2}}, poisoned)
			return err
		},
	}
	for name, fn := range runs {
		done := make(chan error, 1)
		go func(f runFn) { done <- f() }(fn)
		select {
		case err := <-done:
			if err == nil {
				t.Errorf("%s: expected error from poisoned input", name)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("%s: protocol deadlocked on server failure", name)
		}
	}
}

// TestCoordinatorFailureUnblocksServers drives the coordinator side with a
// wrong expectation so it errors first; the servers must unblock via the
// closed network rather than hang.
func TestCoordinatorFailureUnblocksServers(t *testing.T) {
	checkGoroutines(t)
	ctx := context.Background()
	net := NewMemNetwork(2, nil)
	defer net.Close()
	serverFns := []func() error{
		func() error {
			// Waits forever for a broadcast that never comes — until Close.
			_, err := net.Node(0).Recv(ctx)
			return err
		},
		func() error {
			_, err := net.Node(1).Recv(ctx)
			return err
		},
	}
	err := runParties(ctx, net, serverFns, func() error {
		return ErrNetworkClosed // simulate immediate coordinator failure
	})
	if err == nil {
		t.Fatal("expected error")
	}
}

// TestQuantizationSweepAllProtocols checks that with §3.3 quantization every
// sketch protocol (a) ships strictly fewer bits and (b) keeps its guarantee
// with a small additive perturbation.
func TestQuantizationSweepAllProtocols(t *testing.T) {
	ctx := context.Background()
	a, parts := split(t, 51, 240, 16, 6)
	step := comm.StepFor(240, 16, 0.25)

	type result struct {
		plain, quant *Result
	}
	runs := map[string]Protocol{
		"fd-merge": FDMerge{Eps: 0.25, K: 3},
		"svs":      SVS{Alpha: 0.25, Delta: 0.1},
		"adaptive": Adaptive{AdaptiveParams: AdaptiveParams{Eps: 0.25, K: 3}},
		"sampling": RowSampling{Eps: 0.3},
	}
	for name, proto := range runs {
		plain, err := Run(ctx, proto, parts, WithSeed(3))
		if err != nil {
			t.Fatalf("%s plain: %v", name, err)
		}
		quant, err := Run(ctx, proto, parts, WithSeed(3), WithQuantization(step))
		if err != nil {
			t.Fatalf("%s quant: %v", name, err)
		}
		res := result{plain, quant}
		if res.quant.Bits >= res.plain.Bits {
			t.Errorf("%s: quantized bits %d not below plain %d", name, res.quant.Bits, res.plain.Bits)
		}
		cePlain, err := core.CovErr(a, res.plain.Sketch)
		if err != nil {
			t.Fatal(err)
		}
		ceQuant, err := core.CovErr(a, res.quant.Sketch)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(ceQuant-cePlain) > 0.05*a.Frob2()+1e-6 {
			t.Errorf("%s: quantization shifted error %v -> %v", name, cePlain, ceQuant)
		}
	}
}

// TestProtocolDeterminismWithSeed verifies that runs with identical seeds
// are bit-identical (required for reproducible experiments) and different
// seeds actually differ for the randomized protocols.
func TestProtocolDeterminismWithSeed(t *testing.T) {
	ctx := context.Background()
	_, parts := split(t, 52, 200, 12, 4)
	r1, err := Run(ctx, SVS{Alpha: 0.2, Delta: 0.1}, parts, WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(ctx, SVS{Alpha: 0.2, Delta: 0.1}, parts, WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	if !r1.Sketch.Equal(r2.Sketch) {
		t.Fatal("same seed must reproduce the sketch exactly")
	}
	// (Different seeds may still coincide when all sampling probabilities
	// are saturated at 0 or 1, so inequality is not asserted.)
	// The deterministic protocol ignores the seed entirely.
	d1, err := Run(ctx, FDMerge{Eps: 0.2, K: 2}, parts, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Run(ctx, FDMerge{Eps: 0.2, K: 2}, parts, WithSeed(999))
	if err != nil {
		t.Fatal(err)
	}
	if !d1.Sketch.Equal(d2.Sketch) {
		t.Fatal("deterministic protocol must not depend on the seed")
	}
}

// TestEmptyServerInputs runs every protocol with one server holding zero
// rows (legal under skewed partitions).
func TestEmptyServerInputs(t *testing.T) {
	ctx := context.Background()
	a, _ := split(t, 53, 90, 8, 3)
	parts := []*matrix.Dense{a, matrix.New(0, 8), matrix.New(0, 8)}
	if _, err := Run(ctx, FDMerge{Eps: 0.25, K: 2}, parts); err != nil {
		t.Fatalf("fd-merge: %v", err)
	}
	if _, err := Run(ctx, SVS{Alpha: 0.25, Delta: 0.1}, parts); err != nil {
		t.Fatalf("svs: %v", err)
	}
	if _, err := Run(ctx, Adaptive{AdaptiveParams: AdaptiveParams{Eps: 0.25, K: 2}}, parts); err != nil {
		t.Fatalf("adaptive: %v", err)
	}
	if _, err := Run(ctx, RowSampling{Eps: 0.3}, parts); err != nil {
		t.Fatalf("sampling: %v", err)
	}
	// ℓ = ⌈1/0.1⌉ = 10 ≥ d = 8: no shrink ever charges anything, so the
	// merged sketch is exact and its Gram must be the union's.
	res, err := Run(ctx, FDMerge{Eps: 0.1}, parts)
	if err != nil {
		t.Fatalf("fd-merge with ℓ ≥ d: %v", err)
	}
	if !res.Sketch.Gram().EqualApprox(a.Gram(), 1e-7) {
		t.Fatal("empty parts changed the union")
	}
}
