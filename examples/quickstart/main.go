// Quickstart for the public distsketch API: run three covariance-sketch
// protocols over simulated servers with one generic driver, bound the run
// with a deadline, verify every guarantee — then rerun the deterministic
// protocol over a faulty network with a straggler quorum to show the
// fault-tolerant runtime at work.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	"repro/distsketch"
)

func main() {
	// The context's deadline bounds every run below: when it expires, every
	// party's pending Send/Recv unblocks and Run returns the error.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	rng := rand.New(rand.NewSource(42))

	// A 4096×64 matrix with a strong rank-5 component plus noise: the
	// regime where (ε,k)-sketches shine (‖A−[A]_k‖F² ≪ ‖A‖F²).
	n, d, k, s := 4096, 64, 5, 8
	eps := 0.1
	a := distsketch.LowRankPlusNoise(rng, n, d, k, 80, 0.7, 0.5)
	parts := distsketch.Split(a, s, distsketch.Contiguous, nil)
	fmt.Printf("input: %d×%d over %d servers, ‖A‖F² = %.4g\n\n", n, d, s, a.Frob2())

	// Every protocol is a plain struct driven by the same Run call; the
	// option seeds the randomness.
	opts := []distsketch.RunOption{distsketch.WithSeed(1)}
	for _, tc := range []struct {
		proto     distsketch.Protocol
		budgetEps float64
		budgetK   int
	}{
		// Theorem 2: deterministic FD merge.
		{distsketch.FDMerge{Eps: eps, K: k}, eps, k},
		// Theorem 6: randomized SVS, (4ε,0) w.h.p.
		{distsketch.SVS{Alpha: eps, Delta: 0.1, Sampling: distsketch.SampleQuadratic}, 4 * eps, 0},
		// Theorem 7: adaptive (3ε,k) w.h.p.
		{distsketch.Adaptive{AdaptiveParams: distsketch.AdaptiveParams{Eps: eps, K: k}}, 3 * eps, k},
	} {
		res, err := distsketch.Run(ctx, tc.proto, parts, opts...)
		if err != nil {
			log.Fatal(err)
		}
		report(tc.proto.Name(), a, res, tc.budgetEps, tc.budgetK)
	}

	// The same protocol under failures: 2% of messages dropped, small
	// random delays, occasional duplicates — all deterministic from the
	// fault seed. The straggler policy lets the coordinator proceed once 6
	// of 8 FD sketches arrived (sound, because FD merges associatively);
	// servers whose sketch was lost are reported in Missing.
	res, err := distsketch.Run(ctx,
		distsketch.FDMerge{Eps: eps, K: k},
		parts,
		distsketch.WithSeed(1),
		distsketch.WithFaults(distsketch.FaultPlan{
			Seed:      7,
			Drop:      0.02,
			Delay:     2 * time.Millisecond,
			Duplicate: 0.05,
		}),
		distsketch.WithStragglers(distsketch.StragglerPolicy{
			Timeout: 2 * time.Second,
			Quorum:  6,
		}),
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nunder faults (2%% drop, delays, duplicates): sketch from %d/%d servers",
		s-len(res.Missing), s)
	if len(res.Missing) > 0 {
		fmt.Printf(" (missing %v)", res.Missing)
	}
	fmt.Printf(", %.0f words\n", res.Words)
}

func report(name string, a *distsketch.Dense, res *distsketch.Result, eps float64, k int) {
	ok, ce, bound, err := distsketch.IsEpsKSketch(a, res.Sketch, eps, k)
	if err != nil {
		log.Fatal(err)
	}
	status := "FAIL"
	if ok {
		status = "ok"
	}
	fmt.Printf("%-12s rows=%-4d coverr=%-11.4g budget=%-11.4g words=%-8.0f rounds=%d [%s]\n",
		name, res.Sketch.Rows(), ce, bound, res.Words, res.Rounds, status)
}
