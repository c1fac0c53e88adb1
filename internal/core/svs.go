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
// smaller side (see aggregate).
//
// The output B satisfies E[BᵀB] = AᵀA (Claim 3); its concentration is
// governed by the Matrix Bernstein inequality (Theorem 4).
func SVS(a *matrix.Dense, g SamplingFunc, rng *rand.Rand) (*matrix.Dense, error) {
	agg, err := aggregate(a)
	if err != nil {
		return nil, err
	}
	return agg.sample(g, rng), nil
}

// SVSGram is SVS for a matrix with n rows that is known only through its
// d×d Gram AᵀA — what a server that streamed its rows once holds. agg(A) is
// determined by AᵀA alone, so this is SVS(A) without A.
func SVSGram(gram *matrix.Dense, n int, g SamplingFunc, rng *rand.Rand) (*matrix.Dense, error) {
	agg, err := aggFromGram(gram, n, nil)
	if err != nil {
		return nil, err
	}
	return agg.sample(g, rng), nil
}

// SVSFromSVD is SVS applied to a precomputed SVD, avoiding a second
// factorization when the caller already has one.
func SVSFromSVD(svd *linalg.SVD, g SamplingFunc, rng *rand.Rand) *matrix.Dense {
	lambda := make([]float64, len(svd.Sigma))
	for j, s := range svd.Sigma {
		lambda[j] = s * s
	}
	return aggRows{d: svd.V.Rows(), sigma: svd.Sigma, lambda: lambda, vecs: svd.V}.sample(g, rng)
}

// aggRows is agg(A) = ΣVᵀ as the samplers read it: the squared row norms
// λ_j = σ_j² in non-increasing order, one per j < r = min(n,d), and the
// rows themselves on demand.
type aggRows struct {
	d             int // row length
	sigma, lambda []float64
	vecs          *matrix.Dense // v_j in columns (d×r); u_j (n×r) when a is set
	a             *matrix.Dense // a wide A, whose v_j = Aᵀu_j/σ_j
}

// aggregate returns agg(A) from the eigendecomposition of the Gram of A's
// smaller side, as ComputeSVD's transpose branch picks its side: eig(AᵀA)
// (d×d) with rows √λ_j·v_jᵀ when A is tall, eig(AAᵀ) (n×n) with rows u_jᵀA
// when A is wide. Squaring costs relative accuracy only below √u·σ₁, which
// the samplers never see: SVS's guarantee is additive in α‖A‖F².
func aggregate(a *matrix.Dense) (aggRows, error) {
	n, d := a.Dims()
	if n >= d {
		return aggFromGram(a.Gram(), n, nil)
	}
	return aggFromGram(a.MulT(a), n, a)
}

// aggFromGram eigendecomposes the m×m Gram s of a matrix with n rows (AᵀA,
// or AAᵀ with a set to A) and keeps the leading r = min(n, m) pairs, with
// λ_j set to exactly 0 where it is within the Gram's rounding noise,
// max(n,m)·ε·λ₁. A rank-deficient A thus has exactly as many positive λ as
// it has nonzero Jacobi singular values, so a sampler draws from its rng
// exactly as often as it would over ComputeSVD(A) (SVSFromSVD).
func aggFromGram(s *matrix.Dense, n int, a *matrix.Dense) (aggRows, error) {
	m := s.Rows()
	agg := aggRows{d: m, a: a}
	if a != nil {
		agg.d = a.Cols()
	}
	r := min(n, m)
	if r == 0 {
		return agg, nil
	}
	e, err := linalg.ComputeEigSym(s)
	if err != nil {
		return agg, err
	}
	agg.vecs, agg.lambda, agg.sigma = e.V, e.Values[:r], make([]float64, r)
	tol := float64(max(n, m)) * 0x1p-52 * agg.lambda[0]
	for j, l := range agg.lambda {
		if l <= tol {
			agg.lambda[j] = 0
		}
		agg.sigma[j] = math.Sqrt(agg.lambda[j])
	}
	return agg, nil
}

// row returns w·v_jᵀ as a new slice; w = c·σ_j gives c times row j of
// agg(A).
func (agg aggRows) row(j int, w float64) []float64 {
	out := make([]float64, agg.d)
	switch {
	case w == 0: // also σ_j = 0, where a wide A has no v_j
	case agg.a == nil:
		for l := range out {
			out[l] = w * agg.vecs.At(l, j)
		}
	default:
		c := w / agg.sigma[j]
		for i := 0; i < agg.a.Rows(); i++ {
			if x := c * agg.vecs.At(i, j); x != 0 {
				for l, y := range agg.a.Row(i) {
					out[l] += x * y
				}
			}
		}
	}
	return out
}

// sample is Algorithm 1's Bernoulli pass over the rows of agg(A).
func (agg aggRows) sample(g SamplingFunc, rng *rand.Rand) *matrix.Dense {
	var rows [][]float64
	for j, lambda := range agg.lambda {
		p := g.Prob(lambda)
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
		rows = append(rows, agg.row(j, agg.sigma[j]/math.Sqrt(p)))
	}
	if len(rows) == 0 {
		return matrix.New(0, agg.d)
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
	agg, err := aggregate(a)
	if err != nil {
		return nil, err
	}
	d := a.Cols()
	total := 0.0
	for _, l := range agg.lambda {
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
	cum := make([]float64, len(agg.lambda))
	run := 0.0
	lastPos := -1
	for j, l := range agg.lambda {
		run += l / total
		cum[j] = run
		if l > 0 {
			lastPos = j // λ is sorted, so zeros only trail
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
		p := agg.lambda[j] / total
		// Rescale by σ_j/√(m·p) so that E[Σ rows] = AᵀA.
		out.SetRow(i, agg.row(j, agg.sigma[j]/math.Sqrt(float64(m)*p)))
	}
	return out, nil
}
