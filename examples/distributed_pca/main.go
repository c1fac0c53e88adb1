// Distributed PCA (Theorem 9): rows of a clustered dataset are spread over
// 16 servers; the sketch-and-solve pipeline recovers near-optimal principal
// components at a fraction of the deterministic baseline's communication.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"repro/distsketch"
)

func main() {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(7))
	n, d, k, s := 8192, 96, 4, 16
	eps := 0.15

	// Points from k well-separated Gaussian clusters: the top-k principal
	// components capture the cluster-center subspace.
	a := distsketch.ClusteredGaussians(rng, n, d, k, 30, 1.0)
	parts := distsketch.Split(a, s, distsketch.RoundRobin, nil)
	fmt.Printf("input: %d×%d over %d servers, k=%d, ε=%.2f\n\n", n, d, s, k, eps)

	params := distsketch.PCAParams{K: k, Eps: eps}
	seed := distsketch.WithSeed(1)
	type result struct {
		name string
		res  *distsketch.Result
	}
	var runs []result
	for _, tc := range []struct {
		name  string
		proto distsketch.Protocol
	}{
		// SketchPCA reads the PCs off a covariance sketch built at ε/2 (Lemma 8).
		{"FD-merge PCA (baseline [22])", distsketch.SketchPCA{Sketch: distsketch.FDMerge{Eps: eps / 2, K: k}, K: k}},
		{"batch solve (stand-in for [5])", distsketch.BWZ{PCAParams: params}},
		{"Thm9: sketch + coordinator SVD", distsketch.SketchPCA{Sketch: distsketch.Adaptive{AdaptiveParams: distsketch.AdaptiveParams{Eps: eps / 2, K: k}}, K: k}},
		{"Thm9: sketch + distributed solve", distsketch.PCACombined{PCAParams: params}},
	} {
		res, err := distsketch.Run(ctx, tc.proto, parts, seed)
		if err != nil {
			log.Fatal(err)
		}
		runs = append(runs, result{tc.name, res})
	}

	fmt.Printf("%-34s %12s %14s\n", "algorithm", "words", "quality ratio")
	for _, r := range runs {
		ratio, err := distsketch.PCAQualityRatio(a, r.res.PCs, k)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-34s %12.0f %14.4f\n", r.name, r.res.Words, ratio)
	}
	fmt.Printf("\n(quality ratio = ‖A−AVVᵀ‖F² / ‖A−[A]_k‖F²; 1.0 is optimal, the\n guarantee is ≤ 1+O(ε))\n")
}
