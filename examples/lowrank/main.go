// Low-rank approximation via Lemma 1: the top-k right singular vectors of
// an (ε,k)-sketch B give a rank-k projection of A whose Frobenius error is
// within (1+ε) of optimal — without ever running an SVD on A itself.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/core"
	"repro/internal/fd"
	"repro/internal/linalg"
	"repro/internal/pca"
	"repro/internal/workload"
)

func main() {
	rng := rand.New(rand.NewSource(3))
	n, d := 6000, 80
	// A power-law spectrum, the shape real-world matrices usually have.
	a := workload.PowerLawSpectrum(rng, n, d, 1.2, 50)
	fmt.Printf("input: %d×%d power-law matrix (σ_j ∝ j^-1.2)\n\n", n, d)

	fmt.Printf("%3s %14s %14s %12s %10s\n", "k", "sketch err", "optimal err", "lemma1 bound", "ratio")
	for _, k := range []int{1, 2, 4, 8, 16} {
		eps := 0.2
		b, err := fd.SketchEpsK(a, eps, k)
		if err != nil {
			log.Fatal(err)
		}
		// Project A on the sketch's top-k right singular vectors.
		v, err := pca.TopKRightSV(b, k)
		if err != nil {
			log.Fatal(err)
		}
		projErr := pca.ProjectionCost(a, v)
		opt, err := linalg.TailEnergy(a, k)
		if err != nil {
			log.Fatal(err)
		}
		ce, err := core.CovErr(a, b)
		if err != nil {
			log.Fatal(err)
		}
		bound := opt + 2*float64(k)*ce // Lemma 1
		fmt.Printf("%3d %14.4g %14.4g %12.4g %10.4f\n", k, projErr, opt, bound, projErr/opt)
		if projErr > bound+1e-9 {
			log.Fatalf("Lemma 1 violated at k=%d", k)
		}
	}
	fmt.Println("\nevery row satisfies Lemma 1: projErr ≤ optimal + 2k·coverr")
}
