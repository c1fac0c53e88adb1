// Package bench is the paper-reproduction harness: it regenerates every
// table and figure of the paper (see DESIGN.md's experiment index).
// Experiments, in table.go, is the one list of experiments; cmd/sketchbench
// prints it through Write, the root-level BenchmarkExperiments runs it entry
// by entry, and the committed outputs (results_default.txt, testdata/
// golden_small.txt) are Write's output at two configurations.
//
// The harness answers the paper's question — how many words, at what
// error — and records words, errors, certificates and shrink/upload counts.
// It reads no clock (a test enforces it), so its output is a function of the
// Config alone. How fast anything runs is measured by benchmark/.
//
// "Theory" columns are the paper's formulas with unit constants
// (internal/lowerbound); "measured" columns are words counted at the
// transport layer and exact covariance errors. The reproduction claim is
// about shapes: scaling exponents, orderings and crossovers — not absolute
// constants.
package bench

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/distributed"
	"repro/internal/linalg"
	"repro/internal/lowerbound"
	"repro/internal/matrix"
	"repro/internal/pca"
	"repro/internal/workload"
)

// Config fixes the workload for a run of the harness.
type Config struct {
	Seed int64
	N    int     // global rows
	D    int     // columns
	S    int     // servers
	K    int     // rank parameter
	Eps  float64 // accuracy
}

// DefaultConfig returns the workload used by the headline tables.
func DefaultConfig() Config {
	return Config{Seed: 1, N: 1 << 13, D: 64, S: 16, K: 5, Eps: 0.1}
}

// validate rejects the configs the experiments cannot run, so a bad flag
// comes back as one error instead of a panic deep inside a protocol.
func (c Config) validate() error {
	switch {
	case !(c.Eps > 0 && c.Eps < 1):
		return fmt.Errorf("bench: eps %g out of (0,1)", c.Eps)
	case c.N < 1 || c.D < 1:
		return fmt.Errorf("bench: need n >= 1 and d >= 1, got n=%d d=%d", c.N, c.D)
	case c.S < 1 || c.S > c.N:
		return fmt.Errorf("bench: s=%d out of [1, n=%d]", c.S, c.N)
	case c.K < 0:
		return fmt.Errorf("bench: k=%d is negative", c.K)
	}
	return nil
}

// Row is one algorithm's measured outcome on one configuration.
type Row struct {
	Experiment string
	Algorithm  string
	S, D, K    int
	Eps        float64
	Words      float64 // measured at the transport layer
	TheoryW    float64 // paper formula, unit constants
	CovErr     float64 // measured ‖AᵀA−BᵀB‖₂ (or PCA ratio for Table 2)
	Budget     float64 // error budget the guarantee promises
	OK         bool    // guarantee satisfied
	Note       string
}

func makeLowRank(cfg Config) (*matrix.Dense, []*matrix.Dense) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	// Signal mass dominates noise mass (the regime the paper's (ε,k)
	// guarantees target): signal²·Σdecay^2j ≫ noise²·n·d.
	a := workload.LowRankPlusNoise(rng, cfg.N, cfg.D, cfg.K, 150, 0.8, 0.1)
	return a, workload.Split(a, cfg.S, workload.Contiguous, nil)
}

func covRow(exp, algo string, cfg Config, a, sketch *matrix.Dense, words, theory float64, budgetEps float64, k int) (Row, error) {
	ce, err := linalg.CovarianceError(a, sketch)
	if err != nil {
		return Row{}, err
	}
	budget, err := core.EpsKBound(a, budgetEps, k)
	if err != nil {
		return Row{}, err
	}
	return Row{
		Experiment: exp, Algorithm: algo,
		S: cfg.S, D: cfg.D, K: k, Eps: cfg.Eps,
		Words: words, TheoryW: theory,
		CovErr: ce, Budget: budget, OK: ce <= budget,
	}, nil
}

// Table1 reproduces Table 1: communication costs (measured vs theory) and
// guarantee checks for both error regimes, all four algorithm rows plus the
// deterministic lower bound.
func Table1(cfg Config) ([]Row, error) {
	a, parts := makeLowRank(cfg)
	p := lowerbound.Params{S: cfg.S, D: cfg.D, K: 0, Eps: cfg.Eps, Delta: 0.1}
	pk := lowerbound.Params{S: cfg.S, D: cfg.D, K: cfg.K, Eps: cfg.Eps, Delta: 0.1}
	var rows []Row

	// --- (ε,0) column: error budget ε‖A‖F². ---
	ctx := context.Background()
	det, err := distributed.Run(ctx, distributed.FDMerge{Eps: cfg.Eps}, parts, distributed.WithSeed(cfg.Seed))
	if err != nil {
		return nil, fmt.Errorf("T1.1: %w", err)
	}
	r, err := covRow("T1.1", "FD-merge [27,16]", cfg, a, det.Sketch, det.Words, lowerbound.FDMergeWords(p), cfg.Eps, 0)
	if err != nil {
		return nil, err
	}
	rows = append(rows, r)

	samp, err := distributed.Run(ctx, distributed.RowSampling{Eps: cfg.Eps}, parts, distributed.WithSeed(cfg.Seed))
	if err != nil {
		return nil, fmt.Errorf("T1.2: %w", err)
	}
	r, err = covRow("T1.2", "row-sampling [10]", cfg, a, samp.Sketch, samp.Words, lowerbound.SamplingWords(p), 3*cfg.Eps, 0)
	if err != nil {
		return nil, err
	}
	r.Note = "constant-prob guarantee (3ε budget)"
	rows = append(rows, r)

	svs, err := distributed.Run(ctx, distributed.SVS{Alpha: cfg.Eps, Delta: 0.1}, parts, distributed.WithSeed(cfg.Seed))
	if err != nil {
		return nil, fmt.Errorf("T1.3: %w", err)
	}
	r, err = covRow("T1.3", "SVS quadratic (new)", cfg, a, svs.Sketch, svs.Words, lowerbound.SVSWords(p), 4*cfg.Eps, 0)
	if err != nil {
		return nil, err
	}
	r.Note = "whp guarantee (4ε budget)"
	rows = append(rows, r)

	// --- (ε,k) column: error budget ε‖A−[A]_k‖F²/k. ---
	detK, err := distributed.Run(ctx, distributed.FDMerge{Eps: cfg.Eps, K: cfg.K}, parts, distributed.WithSeed(cfg.Seed))
	if err != nil {
		return nil, fmt.Errorf("T1.1k: %w", err)
	}
	r, err = covRow("T1.1", "FD-merge (ε,k)", cfg, a, detK.Sketch, detK.Words, lowerbound.FDMergeWords(pk), cfg.Eps, cfg.K)
	if err != nil {
		return nil, err
	}
	rows = append(rows, r)

	ad, err := distributed.Run(ctx, distributed.Adaptive{AdaptiveParams: distributed.AdaptiveParams{Eps: cfg.Eps, K: cfg.K}}, parts, distributed.WithSeed(cfg.Seed))
	if err != nil {
		return nil, fmt.Errorf("T1.4: %w", err)
	}
	r, err = covRow("T1.4", "adaptive (ε,k) (new)", cfg, a, ad.Sketch, ad.Words, lowerbound.AdaptiveWords(pk), 3*cfg.Eps, cfg.K)
	if err != nil {
		return nil, err
	}
	r.Note = "whp guarantee (3ε budget)"
	rows = append(rows, r)

	rows = append(rows, Row{
		Experiment: "T1.5", Algorithm: "deterministic LB (bits)",
		S: cfg.S, D: cfg.D, K: cfg.K, Eps: cfg.Eps,
		TheoryW: lowerbound.DeterministicLowerBoundBits(pk) / comm.WordBits,
		OK:      true, Note: "Ω(skd/ε) bits ÷ 64 for comparability",
	})
	return rows, nil
}

// Table2 reproduces Table 2: distributed PCA communication and the (1+ε)
// quality ratio for the [5]-substitute baseline, the Theorem 9 algorithms,
// and the FD-merge PCA baseline.
func Table2(cfg Config) ([]Row, error) {
	if cfg.K < 1 {
		return nil, fmt.Errorf("T2: PCA needs k >= 1, got %d", cfg.K)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	a := workload.ClusteredGaussians(rng, cfg.N, cfg.D, cfg.K, 40, 1.0)
	parts := workload.Split(a, cfg.S, workload.Contiguous, nil)
	p := lowerbound.Params{S: cfg.S, D: cfg.D, K: cfg.K, Eps: cfg.Eps, Delta: 0.1}
	params := distributed.PCAParams{K: cfg.K, Eps: cfg.Eps}
	var rows []Row

	add := func(exp, algo string, res *distributed.Result, theory float64, note string) error {
		ratio, err := pca.QualityRatio(a, res.PCs, cfg.K)
		if err != nil {
			return err
		}
		rows = append(rows, Row{
			Experiment: exp, Algorithm: algo,
			S: cfg.S, D: cfg.D, K: cfg.K, Eps: cfg.Eps,
			Words: res.Words, TheoryW: theory,
			CovErr: ratio, Budget: 1 + cfg.Eps,
			OK:   ratio <= 1+3*cfg.Eps,
			Note: note,
		})
		return nil
	}

	ctx := context.Background()
	bwz, err := distributed.Run(ctx, distributed.BWZ{PCAParams: params}, parts, distributed.WithSeed(cfg.Seed))
	if err != nil {
		return nil, fmt.Errorf("T2.1: %w", err)
	}
	if err := add("T2.1", "BWZ-substitute [5]", bwz, lowerbound.BWZWords(p), "error col = PCA ratio"); err != nil {
		return nil, err
	}

	ss, err := distributed.Run(ctx, distributed.SketchPCA{Sketch: distributed.Adaptive{AdaptiveParams: distributed.AdaptiveParams{Eps: cfg.Eps / 2, K: cfg.K}}, K: cfg.K}, parts, distributed.WithSeed(cfg.Seed))
	if err != nil {
		return nil, fmt.Errorf("T2.2: %w", err)
	}
	if err := add("T2.2", "Thm9 sketch+coord-SVD", ss, lowerbound.NewPCAWords(p), ""); err != nil {
		return nil, err
	}

	comb, err := distributed.Run(ctx, distributed.PCACombined{PCAParams: params}, parts, distributed.WithSeed(cfg.Seed))
	if err != nil {
		return nil, fmt.Errorf("T2.2c: %w", err)
	}
	if err := add("T2.2", "Thm9 combined (new)", comb, lowerbound.NewPCAWords(p), "solve on distributed sketch"); err != nil {
		return nil, err
	}

	fdp, err := distributed.Run(ctx, distributed.SketchPCA{Sketch: distributed.FDMerge{Eps: cfg.Eps / 2, K: cfg.K}, K: cfg.K}, parts, distributed.WithSeed(cfg.Seed))
	if err != nil {
		return nil, fmt.Errorf("T2.0: %w", err)
	}
	if err := add("T2.0", "FD-merge PCA [22]", fdp, lowerbound.FDMergeWords(p), "pre-[5] baseline"); err != nil {
		return nil, err
	}
	return rows, nil
}
