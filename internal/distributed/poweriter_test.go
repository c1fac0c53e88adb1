package distributed

import (
	"context"
	"testing"

	"repro/internal/linalg"
	"repro/internal/pca"
)

func TestRunPCAPowerIterationQuality(t *testing.T) {
	a, parts := pcaInput(30, 500, 16, 3, 5)
	res, err := Run(context.Background(), PowerIteration{PowerIterParams: PowerIterParams{K: 3, Rounds: 12, Seed: 1}}, parts)
	if err != nil {
		t.Fatal(err)
	}
	if !linalg.IsOrthonormalColumns(res.PCs, 1e-8) {
		t.Fatal("iterate not orthonormal")
	}
	ratio, err := pca.QualityRatio(a, res.PCs, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ratio > 1.05 {
		t.Fatalf("power-iteration ratio %v after 12 rounds", ratio)
	}
	// Cost accounting: 2·s·d·k·rounds plus the end signals' zero payload.
	want := float64(2 * 5 * 16 * 3 * 12)
	if res.Words != want {
		t.Fatalf("words = %v, want %v", res.Words, want)
	}
	if res.Rounds != 12 {
		t.Fatalf("rounds = %d", res.Rounds)
	}
}

func TestPowerIterationConvergesWithRounds(t *testing.T) {
	a, parts := pcaInput(31, 400, 12, 3, 4)
	ratios, words, err := QualityAfterRounds(context.Background(), parts, a, 3, []int{1, 4, 16}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Quality improves (weakly) and words grow linearly with rounds.
	if ratios[2] > ratios[0]+1e-9 {
		t.Fatalf("quality not improving: %v", ratios)
	}
	if ratios[2] > 1.05 {
		t.Fatalf("final ratio %v", ratios[2])
	}
	if words[2] != 16*words[0] {
		t.Fatalf("words not linear in rounds: %v", words)
	}
}

func TestRunPCACombinedPowerIter(t *testing.T) {
	a, parts := pcaInput(32, 600, 16, 3, 6)
	res, err := Run(context.Background(), PCACombinedPowerIter{Eps: 0.25, PowerIterParams: PowerIterParams{K: 3, Rounds: 12, Seed: 3}}, parts, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	ratio, err := pca.QualityRatio(a, res.PCs, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ratio > 1.3 {
		t.Fatalf("combined power-iteration ratio %v", ratio)
	}
}

func TestPowerIterationRankDeficient(t *testing.T) {
	// k above the input rank: the iterate must stay k-dimensional and the
	// protocol must terminate.
	_, parts := pcaInput(33, 100, 8, 2, 2)
	// Make inputs rank-1 by zeroing all but the first row of each part.
	for _, p := range parts {
		for i := 1; i < p.Rows(); i++ {
			row := p.Row(i)
			copy(row, p.Row(0))
		}
	}
	res, err := Run(context.Background(), PowerIteration{PowerIterParams: PowerIterParams{K: 4, Rounds: 5, Seed: 4}}, parts)
	if err != nil {
		t.Fatal(err)
	}
	if res.PCs.Cols() != 4 {
		t.Fatalf("iterate lost columns: %d", res.PCs.Cols())
	}
	if !linalg.IsOrthonormalColumns(res.PCs, 1e-8) {
		t.Fatal("padded iterate not orthonormal")
	}
}

func TestPowerIterParamsValidation(t *testing.T) {
	_, parts := pcaInput(34, 50, 6, 2, 2)
	if _, err := Run(context.Background(), PowerIteration{PowerIterParams: PowerIterParams{K: 0}}, parts); err == nil {
		t.Fatal("expected an error for k=0")
	}
}
