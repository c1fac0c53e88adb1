package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/fd"
	"repro/internal/linalg"
	"repro/internal/matrix"
	"repro/internal/pca"
	"repro/internal/workload"
)

func TestDecompIdentity(t *testing.T) {
	// Lemma 6: BᵀB = TᵀT + RᵀR and ‖R‖F² = ‖B−[B]_k‖F².
	rng := rand.New(rand.NewSource(1))
	b := workload.LowRankPlusNoise(rng, 20, 8, 3, 5, 0.8, 0.5)
	for _, k := range []int{0, 1, 3, 8, 20} {
		tt, r, err := Decomp(b, k)
		if err != nil {
			t.Fatal(err)
		}
		sum := tt.Gram().Add(r.Gram())
		if !sum.EqualApprox(b.Gram(), 1e-7) {
			t.Fatalf("k=%d: TᵀT+RᵀR != BᵀB", k)
		}
		tail, err := linalg.TailEnergy(b, k)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(r.Frob2()-tail) > 1e-7*(1+tail) {
			t.Fatalf("k=%d: ‖R‖F² = %v, want tail %v", k, r.Frob2(), tail)
		}
		wantT := k
		if m := min(b.Rows(), b.Cols()); wantT > m {
			wantT = m
		}
		if tt.Rows() != wantT {
			t.Fatalf("k=%d: T has %d rows, want %d", k, tt.Rows(), wantT)
		}
	}
}

func TestDecompNegativeKPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Decomp(matrix.New(2, 2), -1)
}

func TestLemma5TailShrinkage(t *testing.T) {
	// Lemma 5: ‖B−[B]_k‖F² ≤ (1+ε)‖A−[A]_k‖F² for B = FD(A, ε, k).
	rng := rand.New(rand.NewSource(2))
	a := workload.LowRankPlusNoise(rng, 200, 16, 4, 20, 0.7, 0.5)
	eps, k := 0.25, 4
	b, err := fd.SketchEpsK(a, eps, k)
	if err != nil {
		t.Fatal(err)
	}
	tailB, err := linalg.TailEnergy(b, k)
	if err != nil {
		t.Fatal(err)
	}
	tailA, err := linalg.TailEnergy(a, k)
	if err != nil {
		t.Fatal(err)
	}
	if tailB > (1+eps)*tailA+1e-9 {
		t.Fatalf("‖B−[B]_k‖F² = %v > (1+ε)·%v", tailB, tailA)
	}
}

func TestAdaptiveTailBound(t *testing.T) {
	// Eq. (11): Σ‖R_i‖F² ≤ (1+ε)‖A−[A]_k‖F², with (T_i, R_i) the Decomp of
	// each server's local FD sketch as the adaptive protocol computes them.
	rng := rand.New(rand.NewSource(5))
	eps, k := 0.2, 4
	a := workload.LowRankPlusNoise(rng, 300, 20, k, 25, 0.6, 0.5)
	tailFrob2 := 0.0
	for _, p := range workload.Split(a, 5, workload.RoundRobin, nil) {
		b, err := fd.SketchEpsK(p, eps, k)
		if err != nil {
			t.Fatal(err)
		}
		tt, r, err := Decomp(b, k)
		if err != nil {
			t.Fatal(err)
		}
		if tt.Rows() != k {
			t.Fatalf("T rows = %d, want %d", tt.Rows(), k)
		}
		tailFrob2 += r.Frob2()
	}
	tail, err := linalg.TailEnergy(a, k)
	if err != nil {
		t.Fatal(err)
	}
	if tailFrob2 > (1+eps)*tail+1e-9 {
		t.Fatalf("Σ‖R_i‖F² = %v > (1+ε)‖A−[A]_k‖F² = %v", tailFrob2, (1+eps)*tail)
	}
}

func TestIsEpsKSketch(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := workload.Gaussian(rng, 80, 8)
	b, err := fd.SketchEpsK(a, 0.2, 0)
	if err != nil {
		t.Fatal(err)
	}
	ok, ce, bound, err := IsEpsKSketch(a, b, 0.2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("FD sketch must pass its own guarantee: %v > %v", ce, bound)
	}
	// The zero matrix fails for small ε (coverr = ‖AᵀA‖₂ > ε‖A‖F² here).
	ok, _, _, err = IsEpsKSketch(a, matrix.New(0, 8), 0.01, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("empty sketch should not satisfy a tight guarantee")
	}
}

func TestProjectionErrorAndLemma1(t *testing.T) {
	// Lemma 1: ‖A−π_B^k(A)‖F² ≤ ‖A−[A]_k‖F² + 2k·coverr(A,B), where
	// π_B^k(A) projects A onto B's top-k right singular vectors.
	rng := rand.New(rand.NewSource(10))
	a := workload.LowRankPlusNoise(rng, 120, 12, 3, 15, 0.8, 0.5)
	k := 3
	b, err := fd.SketchEpsK(a, 0.2, k)
	if err != nil {
		t.Fatal(err)
	}
	projErr := func(b *matrix.Dense, k int) float64 {
		t.Helper()
		v, err := pca.TopKRightSV(b, k)
		if err != nil {
			t.Fatal(err)
		}
		return pca.ProjectionCost(a, v)
	}
	pe := projErr(b, k)
	tail, err := linalg.TailEnergy(a, k)
	if err != nil {
		t.Fatal(err)
	}
	ce, err := CovErr(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if pe > tail+2*float64(k)*ce+1e-8 {
		t.Fatalf("Lemma 1 violated: %v > %v + 2k·%v", pe, tail, ce)
	}
	// Projection error is at least the optimum.
	if pe < tail-1e-8 {
		t.Fatalf("projection error %v below optimal %v", pe, tail)
	}
	// Self-projection achieves the optimum exactly.
	if self := projErr(a, k); math.Abs(self-tail) > 1e-7*(1+tail) {
		t.Fatalf("π_A^k(A) error %v != tail %v", self, tail)
	}
	// k = 0 convention: nothing is projected away.
	if p0 := projErr(b, 0); p0 != a.Frob2() {
		t.Fatalf("k=0 projection error %v, want ‖A‖F² = %v", p0, a.Frob2())
	}
}

func TestEpsKBound(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := workload.Gaussian(rng, 30, 6)
	b0, err := EpsKBound(a, 0.1, 0)
	if err != nil || math.Abs(b0-0.1*a.Frob2()) > 1e-12 {
		t.Fatalf("k=0 bound %v", b0)
	}
	b2, err := EpsKBound(a, 0.1, 2)
	if err != nil {
		t.Fatal(err)
	}
	tail, _ := linalg.TailEnergy(a, 2)
	if math.Abs(b2-0.1*tail/2) > 1e-12 {
		t.Fatalf("k=2 bound %v", b2)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
