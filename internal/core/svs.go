package core

import (
	"math"
	"math/rand"

	"repro/internal/linalg"
	"repro/internal/matrix"
)

// SVS runs Algorithm 1 of the paper on a: compute the SVD A = UΣVᵀ, then for
// each singular triple keep the row σ_j·v_jᵀ of the aggregated form
// agg(A) = ΣVᵀ independently with probability g(σ_j²), rescaled by
// 1/√g(σ_j²). Zero rows (unsampled vectors) are removed.
//
// The output B satisfies E[BᵀB] = AᵀA (Claim 3); its concentration is
// governed by the Matrix Bernstein inequality (Theorem 4).
func SVS(a *matrix.Dense, g SamplingFunc, rng *rand.Rand) (*matrix.Dense, error) {
	svd, err := linalg.ComputeSVD(a)
	if err != nil {
		return nil, err
	}
	return SVSFromSVD(svd, g, rng), nil
}

// SVSFromSVD is SVS applied to a precomputed SVD, avoiding a second
// factorization when the caller already has one (as in the adaptive sketch,
// where Decomp and SVS share the SVD of the local FD sketch).
func SVSFromSVD(svd *linalg.SVD, g SamplingFunc, rng *rand.Rand) *matrix.Dense {
	d, _ := svd.V.Dims()
	var rows [][]float64
	for j, sigma := range svd.Sigma {
		p := g.Prob(sigma * sigma)
		if p <= 0 {
			continue
		}
		if p < 1 && rng.Float64() >= p {
			continue
		}
		// A sampling function may return p > 1 (the paper's g's are capped
		// analytically, but nothing enforces that at this interface). The
		// row is then kept surely, so the unbiasedness weight is 1/√1, not
		// 1/√p — without the clamp the kept row would be rescaled by
		// σ/√p < σ, silently biasing E[BᵀB] below AᵀA. No RNG draw happens
		// in that branch, so clamping cannot perturb the random stream.
		if p > 1 {
			p = 1
		}
		w := sigma / math.Sqrt(p)
		row := make([]float64, d)
		for l := 0; l < d; l++ {
			row[l] = w * svd.V.At(l, j)
		}
		rows = append(rows, row)
	}
	if len(rows) == 0 {
		return matrix.New(0, d)
	}
	return matrix.NewFromRows(rows)
}

// IIDRowSampleAggregated is the ablation variant discussed in §3.1.1: it
// samples rows of the aggregated form agg(A) = ΣVᵀ i.i.d. with replacement,
// proportional to σ_j² (the classic row-sampling scheme of [10,30,12]
// applied to agg(A) instead of A), taking m samples rescaled so that
// E[BᵀB] = AᵀA. The paper argues Bernoulli sampling is crucial for the
// improved analysis; this variant lets the benchmarks compare the two.
func IIDRowSampleAggregated(a *matrix.Dense, m int, rng *rand.Rand) (*matrix.Dense, error) {
	svd, err := linalg.ComputeSVD(a)
	if err != nil {
		return nil, err
	}
	d, _ := svd.V.Dims()
	total := 0.0
	for _, s := range svd.Sigma {
		total += s * s
	}
	if total == 0 || m <= 0 {
		return matrix.New(0, d), nil
	}
	// Cumulative distribution over singular indices. Zero singular values
	// carry no mass, so the last index with positive mass is the largest
	// the sampler may legally return: floating-point rounding can leave
	// cum[lastPos] a hair below 1, and without the clamp below a draw in
	// that gap would select a zero singular value and emit a 0/√0 = NaN row.
	cum := make([]float64, len(svd.Sigma))
	run := 0.0
	lastPos := -1
	for j, s := range svd.Sigma {
		run += s * s / total
		cum[j] = run
		if s > 0 {
			lastPos = j // sigma is sorted, so zeros only trail
		}
	}
	out := matrix.New(m, d)
	for i := 0; i < m; i++ {
		u := rng.Float64()
		j := 0
		for j < len(cum)-1 && cum[j] < u {
			j++
		}
		if j > lastPos {
			j = lastPos // rounding walked past the positive-mass prefix
		}
		p := svd.Sigma[j] * svd.Sigma[j] / total
		// Rescale by σ_j/√(m·p) so that E[Σ rows] = AᵀA.
		w := svd.Sigma[j] / math.Sqrt(float64(m)*p)
		row := out.Row(i)
		for l := 0; l < d; l++ {
			row[l] = w * svd.V.At(l, j)
		}
	}
	return out, nil
}
