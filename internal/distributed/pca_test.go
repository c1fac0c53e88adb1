package distributed

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/linalg"
	"repro/internal/matrix"
	"repro/internal/pca"
	"repro/internal/workload"
)

func pcaInput(seed int64, n, d, k, s int) (*matrix.Dense, []*matrix.Dense) {
	rng := rand.New(rand.NewSource(seed))
	a := workload.ClusteredGaussians(rng, n, d, k, 25, 1.0)
	return a, workload.Split(a, s, workload.Contiguous, nil)
}

// adaptivePCA is Theorem 9's plain form at target ε: the PCs of the
// Theorem 7 (ε/2,k)-sketch.
func adaptivePCA(eps float64, k int) SketchPCA {
	return SketchPCA{Sketch: Adaptive{AdaptiveParams: AdaptiveParams{Eps: eps / 2, K: k}}, K: k}
}

// fdPCA is the [22] baseline at target ε: the PCs of an FD-merged
// (ε/2,k)-sketch.
func fdPCA(eps float64, k int) SketchPCA {
	return SketchPCA{Sketch: FDMerge{Eps: eps / 2, K: k}, K: k}
}

func TestRunPCASketchSolveQuality(t *testing.T) {
	eps, k := 0.2, 3
	a, parts := pcaInput(1, 480, 16, k, 6)
	res, err := Run(context.Background(), adaptivePCA(eps, k), parts)
	if err != nil {
		t.Fatal(err)
	}
	if res.PCs.Rows() != 16 || res.PCs.Cols() != k {
		t.Fatalf("PCs dims %d×%d", res.PCs.Rows(), res.PCs.Cols())
	}
	if !linalg.IsOrthonormalColumns(res.PCs, 1e-8) {
		t.Fatal("PCs not orthonormal")
	}
	ratio, err := pca.QualityRatio(a, res.PCs, k)
	if err != nil {
		t.Fatal(err)
	}
	if ratio > 1+3*eps {
		t.Fatalf("quality ratio %v > 1+3ε", ratio)
	}
	if res.Rounds != 2 {
		t.Fatalf("rounds = %d", res.Rounds)
	}
}

func TestRunBWZQualityRegime1(t *testing.T) {
	// d ≤ m: single-round left sketch.
	eps, k := 0.3, 3
	a, parts := pcaInput(2, 600, 14, k, 5)
	res, err := Run(context.Background(), BWZ{PCAParams: PCAParams{K: k, Eps: eps, EmbeddingRows: 150}}, parts, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	ratio, err := pca.QualityRatio(a, res.PCs, k)
	if err != nil {
		t.Fatal(err)
	}
	if ratio > 1.6 {
		t.Fatalf("BWZ regime-1 ratio %v", ratio)
	}
	// Cost accounting (Theorem 8's min{n, sk/ε²} term): each server ships
	// min(n_i·(d+1), m·d) words — here n_i = 120 < m = 150, so the sparse
	// form wins: s·n_i·(d+1) = 5·120·15 = 9000 plus control words.
	minWords := float64(5 * 120 * 15)
	if res.Words < minWords || res.Words > 1.05*minWords {
		t.Fatalf("words = %v, expected ≈ %v", res.Words, minWords)
	}
}

func TestBWZSparseDenseAgree(t *testing.T) {
	// The sparse wire form must produce exactly the same PCs as the dense
	// form (same embedding, different encoding): force dense by making
	// n_i ≥ m, then compare against a sparse run with the same seed on the
	// same global matrix split more thinly.
	eps, k := 0.3, 3
	a, parts := pcaInput(4, 600, 14, k, 5)                                                                                     // n_i = 120
	dense, err := Run(context.Background(), BWZ{PCAParams: PCAParams{K: k, Eps: eps, EmbeddingRows: 100}}, parts, WithSeed(9)) // m=100 ≤ n_i → dense
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := Run(context.Background(), BWZ{PCAParams: PCAParams{K: k, Eps: eps, EmbeddingRows: 150}}, parts, WithSeed(9)) // m=150 > n_i → sparse
	if err != nil {
		t.Fatal(err)
	}
	// Different m means different embeddings, so compare quality, not
	// vectors; both must deliver sane ratios and the sparse run must be
	// cheaper per embedded row.
	q1, err := pca.QualityRatio(a, dense.PCs, k)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := pca.QualityRatio(a, sparse.PCs, k)
	if err != nil {
		t.Fatal(err)
	}
	if q1 > 1.6 || q2 > 1.6 {
		t.Fatalf("ratios %v %v", q1, q2)
	}
	if sparse.Words >= float64(5*150*14) {
		t.Fatalf("sparse run cost %v not below dense m·d bound %v", sparse.Words, 5*150*14)
	}
}

func TestRunBWZQualityRegime2(t *testing.T) {
	// d > m: two-sided compression + recovery round.
	eps, k := 0.3, 3
	a, parts := pcaInput(3, 800, 60, k, 4)
	res, err := Run(context.Background(), BWZ{PCAParams: PCAParams{K: k, Eps: eps, EmbeddingRows: 40}}, parts, WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	ratio, err := pca.QualityRatio(a, res.PCs, k)
	if err != nil {
		t.Fatal(err)
	}
	if ratio > 2.0 {
		t.Fatalf("BWZ regime-2 ratio %v", ratio)
	}
	// Regime-2 cost: s·(m·m + m·k + k·d) approx; the W matrices (m×m=1600)
	// dominate the direct d-regime alternative m·d = 2400 — the point of
	// min{d, k/ε²}: here each server ships m² + kd + mk ≈ 1600+180+120 words
	// instead of m·d = 2400.
	maxWords := float64(4*(40*40+40*k+k*60+3)) * 1.1
	if res.Words > maxWords {
		t.Fatalf("words = %v > %v", res.Words, maxWords)
	}
}

func TestRunPCACombinedQualityAndCost(t *testing.T) {
	eps, k := 0.25, 3
	a, parts := pcaInput(5, 640, 16, k, 8)
	res, err := Run(context.Background(), PCACombined{PCAParams: PCAParams{K: k, Eps: eps, EmbeddingRows: 120}}, parts, WithSeed(6))
	if err != nil {
		t.Fatal(err)
	}
	ratio, err := pca.QualityRatio(a, res.PCs, k)
	if err != nil {
		t.Fatal(err)
	}
	if ratio > 1+4*eps {
		t.Fatalf("combined PCA ratio %v", ratio)
	}
	if res.PCs.Cols() != k || !linalg.IsOrthonormalColumns(res.PCs, 1e-8) {
		t.Fatal("combined PCs malformed")
	}
}

func TestRunPCAFDMergeQuality(t *testing.T) {
	eps, k := 0.25, 3
	a, parts := pcaInput(7, 480, 16, k, 6)
	res, err := Run(context.Background(), fdPCA(eps, k), parts)
	if err != nil {
		t.Fatal(err)
	}
	ratio, err := pca.QualityRatio(a, res.PCs, k)
	if err != nil {
		t.Fatal(err)
	}
	if ratio > 1+2*eps {
		t.Fatalf("FD-merge PCA ratio %v", ratio)
	}
}

// TestSketchPCAIsInnerPlusOneSVD pins the wrapper to its definition: the
// same messages as the bare inner protocol under the same seed, the same
// sketch, and PCs that are exactly pca.SketchPCs of that sketch.
func TestSketchPCAIsInnerPlusOneSVD(t *testing.T) {
	eps, k := 0.25, 3
	// Rank 2k, so LowRankExact's promise holds too.
	a := workload.ExactRank(rand.New(rand.NewSource(11)), 480, 16, 2*k, 4)
	parts := workload.Split(a, 6, workload.Contiguous, nil)
	for _, inner := range []Protocol{
		FDMerge{Eps: eps / 2, K: k},
		Adaptive{AdaptiveParams: AdaptiveParams{Eps: eps / 2, K: k}},
		SVS{Alpha: eps, Delta: 0.1},
		LowRankExact{KBound: k},
	} {
		t.Run(inner.Name(), func(t *testing.T) {
			bare, err := Run(context.Background(), inner, parts, WithSeed(5))
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(context.Background(), SketchPCA{Sketch: inner, K: k}, parts, WithSeed(5))
			if err != nil {
				t.Fatal(err)
			}
			if res.Words != bare.Words || res.Bits != bare.Bits || res.Messages != bare.Messages || res.Rounds != bare.Rounds {
				t.Fatalf("cost words/bits/messages/rounds = %v/%d/%d/%d, inner alone %v/%d/%d/%d",
					res.Words, res.Bits, res.Messages, res.Rounds, bare.Words, bare.Bits, bare.Messages, bare.Rounds)
			}
			if !res.Sketch.Equal(bare.Sketch) {
				t.Fatal("sketch differs from the inner protocol's")
			}
			want, err := pca.SketchPCs(bare.Sketch, k)
			if err != nil {
				t.Fatal(err)
			}
			if !res.PCs.Equal(want) {
				t.Fatal("PCs differ from pca.SketchPCs of the inner sketch")
			}
		})
	}
}

// TestPCAParamsValidation: the batch-solve protocols reject k < 1 and ε
// outside (0,1).
func TestPCAParamsValidation(t *testing.T) {
	_, parts := pcaInput(9, 60, 8, 2, 2)
	for _, p := range []PCAParams{
		{K: 0, Eps: 0.1},
		{K: 2, Eps: 0},
		{K: 2, Eps: 1},
	} {
		for _, proto := range []Protocol{BWZ{PCAParams: p}, PCACombined{PCAParams: p}} {
			if _, err := Run(context.Background(), proto, parts); err == nil {
				t.Errorf("%s %+v: expected an error", proto.Name(), p)
			}
		}
	}
}

func TestPCACombinedCheaperThanBWZOnRawData(t *testing.T) {
	// Theorem 9's point: running the batch solve on the distributed SKETCH
	// (n_sketch ≪ n rows) costs no more than on the raw data, and the
	// sketch step itself is nearly free. With equal embedding sizes the two
	// costs are similar in regime 1 (both ship m×d), so compare in the
	// regime where [5] must also ship raw-data-dependent G rounds: here we
	// simply require the combined run to stay within 1.5× of raw BWZ and
	// the sketch-solve run to beat FD-merge at larger s (covered elsewhere).
	eps, k := 0.25, 2
	_, parts := pcaInput(10, 400, 12, k, 5)
	combined, err := Run(context.Background(), PCACombined{PCAParams: PCAParams{K: k, Eps: eps, EmbeddingRows: 80}}, parts, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := Run(context.Background(), BWZ{PCAParams: PCAParams{K: k, Eps: eps, EmbeddingRows: 80}}, parts, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if combined.Words > 1.5*raw.Words {
		t.Fatalf("combined %v words vs raw %v", combined.Words, raw.Words)
	}
}
