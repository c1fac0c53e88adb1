package core

import (
	"math"
	"math/rand"

	"repro/internal/linalg"
	"repro/internal/matrix"
)

// SVS runs Algorithm 1 of the paper on a: for each row σ_j·v_jᵀ of the
// aggregated form agg(A) = ΣVᵀ, keep it independently with probability
// g(σ_j²), rescaled by 1/√g(σ_j²). Zero rows (unsampled vectors) are
// removed. agg(A) is read off the eigendecomposition of the Gram of A's
// smaller side (linalg.RightFactor).
//
// The output B satisfies E[BᵀB] = AᵀA (Claim 3); its concentration is
// governed by the Matrix Bernstein inequality (Theorem 4).
func SVS(a *matrix.Dense, g SamplingFunc, rng *rand.Rand) (*matrix.Dense, error) {
	var agg linalg.RightFactor
	if err := agg.Factor(a); err != nil {
		return nil, err
	}
	return sample(&agg, a.Cols(), g, rng), nil
}

// SVSGram is SVS for a matrix with n rows that is known only through its
// d×d Gram AᵀA — what a server that streamed its rows once holds. agg(A) is
// determined by AᵀA alone, so this is SVS(A) without A.
func SVSGram(gram *matrix.Dense, n int, g SamplingFunc, rng *rand.Rand) (*matrix.Dense, error) {
	var agg linalg.RightFactor
	if err := agg.FactorGram(gram, n); err != nil {
		return nil, err
	}
	return sample(&agg, gram.Rows(), g, rng), nil
}

// SVSFromSVD is SVS on a precomputed SVD (no cutoff), kept for the
// reference benchmark's SVS replay.
func SVSFromSVD(svd *linalg.SVD, g SamplingFunc, rng *rand.Rand) *matrix.Dense {
	return sample(svd.RightFactor(), svd.V.Rows(), g, rng)
}

// sample is Algorithm 1's Bernoulli pass over the rows (length d) of agg(A).
func sample(agg *linalg.RightFactor, d int, g SamplingFunc, rng *rand.Rand) *matrix.Dense {
	var js []int
	var ws []float64
	for j, lambda := range agg.Lambda {
		p := g.Prob(math.Ldexp(lambda, 2*agg.Exp))
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
		js = append(js, j)
		ws = append(ws, agg.Sigma(j)/math.Sqrt(p))
	}
	out := matrix.New(len(js), d)
	agg.Rows(out, js, ws)
	return out
}

// IIDRowSampleAggregated is the ablation variant discussed in §3.1.1: it
// samples rows of the aggregated form agg(A) = ΣVᵀ i.i.d. with replacement,
// proportional to σ_j² (the classic row-sampling scheme of [10,30,12]
// applied to agg(A) instead of A), taking m samples rescaled so that
// E[BᵀB] = AᵀA. The paper argues Bernoulli sampling is crucial for the
// improved analysis; this variant lets the benchmarks compare the two.
func IIDRowSampleAggregated(a *matrix.Dense, m int, rng *rand.Rand) (*matrix.Dense, error) {
	var agg linalg.RightFactor
	if err := agg.Factor(a); err != nil {
		return nil, err
	}
	d := a.Cols()
	total := 0.0
	for _, l := range agg.Lambda {
		total += l
	}
	if total == 0 || m <= 0 {
		return matrix.New(0, d), nil
	}
	// Cumulative distribution over singular indices. Zero singular values
	// carry no mass, so the last index with positive mass is the largest
	// the sampler may legally return: floating-point rounding can leave
	// cum[lastPos] a hair below 1, and without the clamp below a draw in
	// that gap would select a zero singular value and emit a 0/√0 = NaN row.
	cum := make([]float64, len(agg.Lambda))
	run := 0.0
	lastPos := -1
	for j, l := range agg.Lambda {
		run += l / total
		cum[j] = run
		if l > 0 {
			lastPos = j // λ is sorted, so zeros only trail
		}
	}
	js, ws := make([]int, m), make([]float64, m)
	for i := range js {
		u := rng.Float64()
		j := 0
		for j < len(cum)-1 && cum[j] < u {
			j++
		}
		if j > lastPos {
			j = lastPos // rounding walked past the positive-mass prefix
		}
		p := agg.Lambda[j] / total
		// Rescale by σ_j/√(m·p) so that E[Σ rows] = AᵀA.
		js[i], ws[i] = j, agg.Sigma(j)/math.Sqrt(float64(m)*p)
	}
	out := matrix.New(m, d)
	agg.Rows(out, js, ws)
	return out, nil
}
