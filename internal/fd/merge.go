package fd

import (
	"repro/internal/matrix"
)

// MergeCanonical reduces a list of partial FD sketches (each at most ℓ rows)
// to one sketch of at most ℓ rows using the canonical balanced binary
// reduction: adjacent pairs are merged level by level, and an odd trailing
// element passes to the next level unchanged. Merging a pair feeds both
// operands into a fresh sketch whose buffer holds them entirely, so exactly
// one shrink runs per pair (none when the pair already fits in ℓ rows).
//
// The reduction is grouping-invariant for consecutive groups whose size is a
// power of two: at round r the reduction joins blocks aligned at stride 2^r,
// which never straddle a boundary at a multiple of 2^j, and a partial
// trailing group finishes its internal rounds and then passes through
// unchanged. Hierarchical aggregation that merges consecutive groups of
// fan-out 2^j with MergeCanonical at every tree node therefore produces a
// result bit-identical to the flat (star) reduction over the same parts, for
// any power-of-two fan-out. Non-power-of-two fan-outs still satisfy the
// (ε,k) merge guarantee (mergeability holds for arbitrary merge trees) but
// are not bitwise equal to the star.
//
// Pair merges shrink under opts.Alpha, and since every shrink anywhere in
// the tree still drains (⌈αℓ⌉+1)·charge of the one global Frobenius budget,
// the merged sketch satisfies ‖AᵀA − BᵀB‖₂ ≤ ‖A‖F²/(⌈αℓ⌉+1), A being the
// union of all leaves' input. Both grouping-invariance statements above hold
// at every α.
func MergeCanonical(d, ell int, parts []*matrix.Dense, opts Options) (*matrix.Dense, error) {
	if len(parts) == 0 {
		return matrix.New(0, d), nil
	}
	cur := append([]*matrix.Dense(nil), parts...)
	for len(cur) > 1 {
		next := make([]*matrix.Dense, 0, (len(cur)+1)/2)
		for i := 0; i+1 < len(cur); i += 2 {
			m, err := mergePair(d, ell, cur[i], cur[i+1], opts)
			if err != nil {
				return nil, err
			}
			next = append(next, m)
		}
		if len(cur)%2 == 1 {
			next = append(next, cur[len(cur)-1])
		}
		cur = next
	}
	return cur[0], nil
}

// mergePair merges two partial sketches with one fresh FD pass sized to hold
// both operands, so no shrink fires mid-update and Matrix() shrinks exactly
// once — the determinism anchor of MergeCanonical. A pair that fits in ℓ
// rows stacks without shrinking (what the oversized sketch would return).
func mergePair(d, ell int, x, y *matrix.Dense, opts Options) (*matrix.Dense, error) {
	total := x.Rows() + y.Rows()
	if total <= ell {
		return matrix.Stack(x, y), nil
	}
	o := opts
	o.BufferRows = total
	if o.BufferRows < ell+1 {
		o.BufferRows = ell + 1
	}
	s := New(d, ell, o)
	if err := s.UpdateMatrix(x); err != nil {
		return nil, err
	}
	if err := s.UpdateMatrix(y); err != nil {
		return nil, err
	}
	return s.Matrix()
}
