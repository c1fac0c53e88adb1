// Package core implements the paper's primary contribution: the
// Singular Value Sampling (SVS) sketch (Algorithm 1), the linear and
// quadratic sampling functions of Theorems 5 and 6, the Decomp split of
// Lemma 6, and the adaptive (ε,k)-sketch of §3.2 (Theorem 7) that combines
// local Frequent Directions sketches with SVS on their tails, plus the
// squared-norm row-sampling baseline ([10]) the paper compares against.
//
// The algorithms here are the per-server computations; the protocols in
// internal/distributed orchestrate them across servers with exact
// communication accounting.
package core

import (
	"fmt"
	"math"
)

// SamplingFunc is the function g of Algorithm 1: g(σ²) is the probability of
// keeping the right singular vector whose squared singular value is σ².
type SamplingFunc interface {
	// Prob returns g(x) ∈ [0,1] for x = σ².
	Prob(x float64) float64
	// Name identifies the function in benchmark output.
	Name() string
}

// LinearSampling is the Theorem 5 function
//
//	g(x) = min{ √s·log(d/δ)·x / (α‖A‖F²), 1 }.
//
// With it, SVS achieves ‖BᵀB−AᵀA‖₂ ≤ 3α‖A‖F² and ‖B‖F ≤ 2‖A‖F with
// probability 1−δ at communication cost O(√s·d·log(d/δ)/α).
type LinearSampling struct {
	coef float64
}

// NewLinearSampling builds the Theorem 5 sampling function for s servers,
// dimension d, target error α‖A‖F², failure probability δ, and the global
// squared Frobenius norm frob2 = ‖A‖F².
func NewLinearSampling(s, d int, alpha, delta, frob2 float64) *LinearSampling {
	validateSamplingParams(s, d, alpha, delta)
	if frob2 <= 0 {
		return &LinearSampling{coef: 0}
	}
	return &LinearSampling{coef: math.Sqrt(float64(s)) * math.Log(float64(d)/delta) / (alpha * frob2)}
}

// Prob implements SamplingFunc.
func (l *LinearSampling) Prob(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Min(l.coef*x, 1)
}

// Name implements SamplingFunc.
func (l *LinearSampling) Name() string { return "linear" }

// QuadraticSampling is the Theorem 6 function
//
//	g(x) = min{ s·log(d/δ)·x² / (α²‖A‖F⁴), 1 }  if x ≥ α‖A‖F²/s,
//	       0                                     otherwise.
//
// The cutoff drops singular values too small to matter (their total
// contribution to the error is at most α‖A‖F², Eq. (7) in the paper) and is
// what keeps the Bernstein range term M bounded. With it, SVS achieves
// covariance error O(α‖A‖F²) at cost O(√s·d·√log(d/δ)/α) — the √log d
// improvement over the linear function that gives the paper its headline
// bound.
type QuadraticSampling struct {
	coef   float64 // s·log(d/δ)/(α²‖A‖F⁴)
	cutoff float64 // α‖A‖F²/s
}

// NewQuadraticSampling builds the Theorem 6 sampling function.
func NewQuadraticSampling(s, d int, alpha, delta, frob2 float64) *QuadraticSampling {
	validateSamplingParams(s, d, alpha, delta)
	if frob2 <= 0 {
		return &QuadraticSampling{coef: 0, cutoff: math.Inf(1)}
	}
	sf := float64(s)
	return &QuadraticSampling{
		coef:   sf * math.Log(float64(d)/delta) / (alpha * alpha * frob2 * frob2),
		cutoff: alpha * frob2 / sf,
	}
}

// Prob implements SamplingFunc.
func (q *QuadraticSampling) Prob(x float64) float64 {
	if x < q.cutoff {
		return 0
	}
	return math.Min(q.coef*x*x, 1)
}

// Name implements SamplingFunc.
func (q *QuadraticSampling) Name() string { return "quadratic" }

// Cutoff returns the small-singular-value threshold α‖A‖F²/s.
func (q *QuadraticSampling) Cutoff() float64 { return q.cutoff }

func validateSamplingParams(s, d int, alpha, delta float64) {
	if s <= 0 || d <= 0 {
		panic(fmt.Sprintf("core: invalid sampling params s=%d d=%d", s, d))
	}
	if alpha <= 0 || alpha >= 1 {
		panic(fmt.Sprintf("core: alpha %v out of (0,1)", alpha))
	}
	if delta <= 0 || delta >= 1 {
		panic(fmt.Sprintf("core: delta %v out of (0,1)", delta))
	}
}

// KeepAll is a degenerate sampling function that keeps every singular vector
// (g ≡ 1), turning SVS into the exact aggregated form agg(A) = ΣVᵀ. Useful
// as a correctness oracle in tests.
type KeepAll struct{}

// Prob implements SamplingFunc.
func (KeepAll) Prob(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return 1
}

// Name implements SamplingFunc.
func (KeepAll) Name() string { return "keep-all" }

// ExpectedRows returns Σ_j g(σ_j²), the expected number of sampled rows for
// the given squared singular values — the per-server expected communication
// is d times this.
func ExpectedRows(g SamplingFunc, sigma []float64) float64 {
	sum := 0.0
	for _, s := range sigma {
		sum += g.Prob(s * s)
	}
	return sum
}
