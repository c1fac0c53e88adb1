package fd

import (
	"fmt"
	"math"
)

// The shrink rule is α-FD ("Improved Practical Matrix Sketching with
// Guarantees", Desai–Ghashami–Phillips): when the buffer fills, δ = σ²_{ℓ+1}
// is subtracted, clamped at zero, from the bottom m = ⌈αℓ⌉ of the ℓ
// retained directions and from every direction beyond ℓ; the top ℓ−m
// directions pass through untouched. α = 1, the default, is the classic FD
// shrink on the 2ℓ doubling buffer ("fast-fd"); a smaller α protects the
// dominant directions.
//
// One shrink moves the covariance by at most δ in spectral norm (no
// direction moves by more), which is the charge TotalShrinkage sums, and
// removes at least (m+1)·δ of Frobenius mass: positions ℓ−m … ℓ each hold
// at least δ and each loses δ. Every shrink anywhere in a merge tree drains
// the one global budget ‖A‖F², so a sketch built or merged under α satisfies
// ‖AᵀA − BᵀB‖₂ ≤ ‖A‖F²/(⌈αℓ⌉+1) — FD mergeability (Theorem 2) for every
// α ∈ (0,1].

// CheckAlpha returns an error when alpha is not a legal Options.Alpha: the
// rule needs α ∈ (0,1], and 0 stands for 1.
func CheckAlpha(alpha float64) error {
	if alpha == 0 || (alpha > 0 && alpha <= 1) {
		return nil
	}
	return fmt.Errorf("fd: alpha %v outside (0,1]", alpha)
}

// Rule names the shrink rule o selects, as recorded in State.Strategy and
// checkpoint sidecars: "fast-fd" at α = 1 (and its zero value), otherwise
// "alpha-fd(α)".
func (o Options) Rule() string {
	if o.Alpha == 0 || o.Alpha == 1 {
		return "fast-fd"
	}
	return fmt.Sprintf("alpha-fd(%g)", o.Alpha)
}

// eligible is m = ⌈αℓ⌉, how many of the retained directions absorb the
// subtraction; it lies in [1, ℓ] for every α ∈ (0,1] and ℓ ≥ 1.
func eligible(ell int, alpha float64) int {
	return int(math.Ceil(alpha * float64(ell)))
}

// shrinkSpectrum applies the α-FD rule to the descending squared spectrum
// sig2 in place, leaving only entries j < ℓ positive and the sequence
// non-increasing, and returns the shrink's charge δ (0 when the spectrum
// already fits in ℓ directions and nothing changes).
func shrinkSpectrum(sig2 []float64, ell int, alpha float64) float64 {
	if len(sig2) <= ell {
		return 0
	}
	delta := sig2[ell]
	if delta <= 0 {
		return 0
	}
	for j := ell - eligible(ell, alpha); j < len(sig2); j++ {
		if s := sig2[j] - delta; s > 0 {
			sig2[j] = s
		} else {
			sig2[j] = 0
		}
	}
	return delta
}
