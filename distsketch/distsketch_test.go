package distsketch_test

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"repro/distsketch"
)

// TestFacadeRunCoversProtocolFamilies exercises the public package the way
// the README shows it: generate, split, Run a protocol struct with options,
// verify the guarantee — no internal imports anywhere.
func TestFacadeRunCoversProtocolFamilies(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rng := rand.New(rand.NewSource(8))
	a := distsketch.LowRankPlusNoise(rng, 400, 16, 3, 30, 0.7, 0.4)
	parts := distsketch.Split(a, 4, distsketch.Contiguous, nil)
	eps, k := 0.25, 3

	res, err := distsketch.Run(ctx,
		distsketch.FDMerge{Eps: eps, K: k},
		parts,
		distsketch.WithSeed(1),
	)
	if err != nil {
		t.Fatal(err)
	}
	ok, ce, bound, err := distsketch.IsEpsKSketch(a, res.Sketch, eps, k)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("facade FD merge: %v > %v", ce, bound)
	}
	if res.Words <= 0 || res.Rounds != 1 {
		t.Fatalf("accounting: words=%v rounds=%d", res.Words, res.Rounds)
	}

	pcaRes, err := distsketch.Run(ctx,
		distsketch.SketchPCA{Sketch: distsketch.Adaptive{AdaptiveParams: distsketch.AdaptiveParams{Eps: eps / 2, K: k}}, K: k},
		parts,
		distsketch.WithSeed(1),
	)
	if err != nil {
		t.Fatal(err)
	}
	ratio, err := distsketch.PCAQualityRatio(a, pcaRes.PCs, k)
	if err != nil {
		t.Fatal(err)
	}
	if ratio > 1+6*eps {
		t.Fatalf("facade PCA ratio %v", ratio)
	}

	// The typed sampling enum through the public surface: parse the flag
	// string, run the Theorem 5 linear-sampling SVS with it.
	fn, err := distsketch.ParseSamplingFn("linear")
	if err != nil {
		t.Fatal(err)
	}
	if fn != distsketch.SampleLinear {
		t.Fatalf("ParseSamplingFn: %v", fn)
	}
	svsRes, err := distsketch.Run(ctx,
		distsketch.SVS{Alpha: 0.3, Delta: 0.1, Sampling: fn},
		parts,
		distsketch.WithSeed(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	ce, err = distsketch.CovErr(a, svsRes.Sketch)
	if err != nil {
		t.Fatal(err)
	}
	if ce > 4*0.3*a.Frob2() {
		t.Fatalf("facade SVS coverr %v", ce)
	}
}

// TestFacadeFaultInjection reruns a protocol under a deterministic fault
// plan with a straggler quorum through the public options.
func TestFacadeFaultInjection(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a := distsketch.Gaussian(rng, 200, 10)
	parts := distsketch.Split(a, 4, distsketch.Contiguous, nil)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := distsketch.Run(ctx,
		distsketch.FDMerge{Eps: 0.3, K: 2},
		parts,
		distsketch.WithFaults(distsketch.FaultPlan{Seed: 5, Partition: map[int]bool{3: true}}),
		distsketch.WithStragglers(distsketch.StragglerPolicy{Timeout: 300 * time.Millisecond, Quorum: 3}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Missing) != 1 || res.Missing[0] != 3 {
		t.Fatalf("Missing = %v, want [3]", res.Missing)
	}
}
