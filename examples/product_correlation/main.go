// Distributed feature × label covariance via coordinated sampling: the
// product estimand (AᵀB) through the public facade.
//
// A is a sparse feature matrix (n rows of d_A features, ~2% nonzero), B a
// dense label matrix (n rows of d_B responses) generated from a planted
// sparse weight matrix: label j responds to exactly one feature. The rows
// are split across s servers as aligned (A-shard, B-shard) pairs;
// the CoordinatedProduct protocol estimates the cross-covariance AᵀB with an a-priori
// Frobenius certificate, and the estimate's largest entry per column
// recovers each label's planted feature — without any server ever shipping
// its raw rows.
//
// The last section shows the estimand seam failing loudly: a covariance
// protocol handed a product input pair is rejected with an explanation, not
// a silently wrong sketch.
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"math/rand"

	"repro/distsketch"
)

func main() {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(11))

	// Features: 8192×64 sparse Gaussian (2% of cells nonzero). Materialized
	// here only to build labels and the exact AᵀB for comparison — the
	// protocol itself would be just as happy with streaming sources.
	n, dA, dB, s := 8192, 64, 8, 8
	a, err := distsketch.Materialize(distsketch.NewSparseGaussianSource(n, dA, 0.02, 3))
	if err != nil {
		log.Fatal(err)
	}

	// Labels: label j = weight · feature 8j + noise. The planted map is what
	// the product estimate must recover.
	planted := make([]int, dB)
	b := distsketch.NewDense(n, dB)
	for j := 0; j < dB; j++ {
		planted[j] = 8 * j
	}
	for i := 0; i < n; i++ {
		row := a.Row(i)
		for j := 0; j < dB; j++ {
			b.Set(i, j, 3*row[planted[j]]+0.1*rng.NormFloat64())
		}
	}
	exact := a.TMul(b)
	fmt.Printf("features: %d×%d (%.1f%% dense), labels: %d×%d, servers: %d\n\n",
		n, dA, 100*float64(sparseNNZ(a))/float64(n*dA), n, dB, s)

	// Aligned shard pairs under the contiguous partition: shard i's A rows
	// and B rows carry the same global indices, which is what makes the
	// servers' shared-seed priorities coordinate.
	inputs, err := distsketch.ProductShardsDense(a, b, s)
	if err != nil {
		log.Fatal(err)
	}

	rawWords := float64(n) * float64(dA+dB) // shipping every row, dense
	fmt.Printf("%-10s %12s %12s %12s %10s %s\n", "sample m", "words", "vs raw", "‖Est−AᵀB‖F", "certified", "planted map recovered")
	for _, m := range []int{64, 256, 1024} {
		res, err := distsketch.RunWorkload(ctx, distsketch.CoordinatedProduct{SampleSize: m}, inputs, distsketch.WithSeed(7))
		if err != nil {
			log.Fatal(err)
		}
		errF := distsketch.ProductErr(res.Product, exact)
		fmt.Printf("%-10d %12.0f %11.1f%% %12.4g %10.4g %s\n",
			m, res.Words, 100*res.Words/rawWords, errF, res.Certificate,
			recovered(res.Product, planted))
		if errF > res.Certificate {
			log.Fatalf("certificate violated: %v > %v", errF, res.Certificate)
		}
	}

	// The estimand seam at work: an FD covariance merge cannot consume a
	// product input pair, and says so instead of sketching the wrong thing.
	_, err = distsketch.RunWorkload(ctx,
		distsketch.FDMerge{Eps: 0.1, K: 4}, inputs, distsketch.WithSeed(7))
	fmt.Printf("\nfd-merge over the same product inputs:\n  %v\n", err)
}

// recovered reports how many of the planted feature→label pairs the
// estimate identifies (argmax |column j| equals the planted feature).
func recovered(est *distsketch.Dense, planted []int) string {
	dA, dB := est.Dims()
	hits := 0
	for j := 0; j < dB; j++ {
		best, arg := 0.0, -1
		for i := 0; i < dA; i++ {
			if v := math.Abs(est.At(i, j)); v > best {
				best, arg = v, i
			}
		}
		if arg == planted[j] {
			hits++
		}
	}
	return fmt.Sprintf("%d/%d", hits, dB)
}

// sparseNNZ counts the nonzero entries of a dense-materialized matrix.
func sparseNNZ(m *distsketch.Dense) int {
	nnz := 0
	r, _ := m.Dims()
	for i := 0; i < r; i++ {
		for _, v := range m.Row(i) {
			if v != 0 {
				nnz++
			}
		}
	}
	return nnz
}
