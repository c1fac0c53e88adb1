package linalg

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/matrix"
	"repro/internal/parallel"
)

func atWidth(w int, fn func()) {
	prev := parallel.Workers()
	parallel.SetWorkers(w)
	defer parallel.SetWorkers(prev)
	fn()
}

func denseBitsEqual(a, b *matrix.Dense) bool {
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() {
		return false
	}
	ad, bd := a.Data(), b.Data()
	for i := range ad {
		if math.Float64bits(ad[i]) != math.Float64bits(bd[i]) {
			return false
		}
	}
	return true
}

// Disjoint row-pair rotations within one round-robin Jacobi round commute
// exactly, so the sweep result — and hence the full SVD — is bit-identical
// at every pool width.
func TestComputeSVDWidthInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, shape := range [][2]int{{30, 12}, {17, 17}, {8, 25}} {
		a := randDense(rng, shape[0], shape[1])
		var serial *SVD
		atWidth(1, func() {
			s, err := ComputeSVD(a)
			if err != nil {
				t.Fatalf("serial SVD: %v", err)
			}
			serial = s
		})
		for _, w := range []int{2, 4, 8} {
			atWidth(w, func() {
				got, err := ComputeSVD(a)
				if err != nil {
					t.Fatalf("w=%d: %v", w, err)
				}
				for i := range got.Sigma {
					if math.Float64bits(got.Sigma[i]) != math.Float64bits(serial.Sigma[i]) {
						t.Errorf("w=%d shape=%v: sigma[%d] differs from serial", w, shape, i)
					}
				}
				if !denseBitsEqual(got.U, serial.U) || !denseBitsEqual(got.V, serial.V) {
					t.Errorf("w=%d shape=%v: U/V differ from serial", w, shape)
				}
			})
		}
	}
}

// Householder panel updates parallelize over independent columns with
// unchanged per-column arithmetic: QR must be width-invariant bit for bit.
func TestComputeQRWidthInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := randDense(rng, 40, 18)
	var serialPiv *PivotedQR
	atWidth(1, func() {
		serialPiv = ComputePivotedQR(a, 0)
	})
	for _, w := range []int{2, 4, 8} {
		atWidth(w, func() {
			piv := ComputePivotedQR(a, 0)
			if !denseBitsEqual(piv.Q, serialPiv.Q) || !denseBitsEqual(piv.R, serialPiv.R) {
				t.Errorf("w=%d: pivoted QR differs from serial", w)
			}
			if piv.Rank != serialPiv.Rank {
				t.Errorf("w=%d: rank %d != serial %d", w, piv.Rank, serialPiv.Rank)
			}
			for i, p := range piv.Perm {
				if p != serialPiv.Perm[i] {
					t.Errorf("w=%d: pivot order differs at %d", w, i)
					break
				}
			}
		})
	}
}

// A reused workspace must give the same factorization as a fresh call, for
// every call in a sequence of different shapes (the FD shrink loop pattern).
func TestSVDWorkspaceReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var ws SVDWorkspace
	for iter, shape := range [][2]int{{20, 10}, {20, 10}, {12, 16}, {30, 6}, {20, 10}} {
		a := randDense(rng, shape[0], shape[1])
		fresh, err := ComputeSVD(a)
		if err != nil {
			t.Fatalf("iter %d fresh: %v", iter, err)
		}
		got, err := ComputeSVDWith(a, &ws)
		if err != nil {
			t.Fatalf("iter %d reuse: %v", iter, err)
		}
		for i := range got.Sigma {
			if math.Float64bits(got.Sigma[i]) != math.Float64bits(fresh.Sigma[i]) {
				t.Fatalf("iter %d: sigma[%d] differs with workspace reuse", iter, i)
			}
		}
		if !denseBitsEqual(got.U, fresh.U) || !denseBitsEqual(got.V, fresh.V) {
			t.Fatalf("iter %d: U/V differ with workspace reuse", iter)
		}
	}
}
