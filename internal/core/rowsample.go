// The classic squared-norm row sampling baseline of Drineas–Kannan–Mahoney
// ([10] in the paper): sample m = O(1/ε²) rows of A i.i.d. with replacement,
// each row i picked with probability p_i = ‖A_i‖²/‖A‖F² and rescaled by 1/√(m·p_i). The resulting
// matrix B satisfies ‖AᵀA−BᵀB‖₂ ≤ ε‖A‖F² with constant probability.
//
// In the distributed model this costs O(s + d/ε²) words: one scalar round to
// learn the per-server masses, then the coordinator assigns sample counts.
// The paper uses it as the baseline whose quadratic 1/ε² dependence SVS
// beats. Servers sample in one streaming pass (SampleStream).
//
// Floating-point edge cases in the estimator are handled explicitly
// (MultinomialSplit): a cumulative-mass walk can end with run < total after
// rounding, which used to silently drop a sample (undercounting m and
// biasing BᵀB low), and a draw of exactly 0 could land on a zero-mass
// bucket, which used to emit never-populated all-zero rows. The split now
// skips zero-mass buckets entirely and clamps any rounding fall-through to
// the last positive-mass bucket, so exactly m samples always land on
// positive-mass buckets.

package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/matrix"
)

// SampleSize returns the number of rows m = ⌈c/ε²⌉ needed for covariance
// error ε‖A‖F² with constant probability; c is an absolute constant (the
// analyses of [10, 30, 12] give small constants; we use 1, and the
// benchmarks report measured error next to the target).
func SampleSize(eps float64) int {
	if eps <= 0 || eps >= 1 {
		panic(fmt.Sprintf("core: row-sampling epsilon %v out of (0,1)", eps))
	}
	return int(math.Ceil(1 / (eps * eps)))
}

// RowIter delivers one stream row per call, returning false after the last
// row — the minimal iteration contract, satisfied by the Next method of any
// workload row source.
type RowIter func() ([]float64, bool)

// SampleStream draws count rows from the stream i.i.d. proportional to
// squared norm, with replacement, in one pass and O(count·d) working space.
// localMass must equal the stream's exact Σ‖row‖² (from a prior pass; the
// distributed protocol learns it in the calibration round), and each sampled
// row is rescaled by 1/√(m·p) against the global probability
// p = ‖row‖²/globalMass, where m is the global draw count across all
// servers. It consumes exactly count rng.Float64 draws in slot order, so
// fixed-seed runs are stable, and it never reads past the row that satisfies
// the last draw.
//
// Zero-norm rows receive no probability mass, and a draw that floating-point
// rounding pushes past the accumulated mass is clamped to the last
// positive-norm row (mirroring MultinomialSplit) instead of being dropped.
func SampleStream(next RowIter, d, count, m int, localMass, globalMass float64, rng *rand.Rand) *matrix.Dense {
	if count <= 0 || localMass <= 0 || globalMass <= 0 {
		return matrix.New(0, d)
	}
	// Draw all count uniforms up front in slot order, then serve them in
	// sorted order as the cumulative normalized mass passes each target.
	type target struct {
		u    float64
		slot int
	}
	targets := make([]target, count)
	for t := 0; t < count; t++ {
		targets[t] = target{rng.Float64(), t}
	}
	sort.Slice(targets, func(a, b int) bool {
		if targets[a].u != targets[b].u {
			return targets[a].u < targets[b].u
		}
		return targets[a].slot < targets[b].slot
	})
	out := matrix.New(count, d)
	run := 0.0
	ptr := 0
	lastPos := make([]float64, d) // most recent positive-norm row, for clamping
	lastN2 := 0.0
	for ptr < count {
		row, ok := next()
		if !ok {
			break
		}
		n2 := matrix.Norm2(row)
		if n2 == 0 {
			continue
		}
		copy(lastPos, row)
		lastN2 = n2
		run += n2 / localMass
		w := 1 / math.Sqrt(float64(m)*n2/globalMass)
		for ptr < count && targets[ptr].u <= run {
			dst := out.Row(targets[ptr].slot)
			for j, v := range row {
				dst[j] = w * v
			}
			ptr++
		}
	}
	for ; ptr < count && lastN2 > 0; ptr++ {
		w := 1 / math.Sqrt(float64(m)*lastN2/globalMass)
		dst := out.Row(targets[ptr].slot)
		for j, v := range lastPos {
			dst[j] = w * v
		}
	}
	return out
}

// MultinomialSplit distributes m draws over buckets proportionally to their
// masses (one rng.Float64 per draw, so fixed-seed callers keep a stable
// draw sequence). All m draws land on positive-mass buckets: zero-mass
// buckets are skipped outright — a draw of exactly 0 can otherwise select
// one — and a draw that floating-point rounding pushes past the accumulated
// total is clamped to the last positive-mass bucket instead of being
// silently discarded. With zero total mass (or no buckets) all counts are 0.
func MultinomialSplit(masses []float64, m int, rng *rand.Rand) []int {
	return splitMultinomial(masses, m, rng.Float64)
}

// splitMultinomial is MultinomialSplit over an arbitrary draw() ∈ [0,1)
// source, so tests can force the exact edge-case draws.
func splitMultinomial(masses []float64, m int, draw func() float64) []int {
	counts := make([]int, len(masses))
	total := 0.0
	lastPos := -1
	for i, v := range masses {
		total += v
		if v > 0 {
			lastPos = i
		}
	}
	if total <= 0 || lastPos < 0 {
		return counts
	}
	for t := 0; t < m; t++ {
		u := draw() * total
		run := 0.0
		chosen := -1
		for i, v := range masses {
			if v == 0 {
				continue
			}
			run += v
			if u <= run {
				chosen = i
				break
			}
		}
		if chosen < 0 {
			chosen = lastPos // rounding left u > Σ masses; never drop the draw
		}
		counts[chosen]++
	}
	return counts
}
