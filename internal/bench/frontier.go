package bench

import (
	"context"
	"fmt"

	"repro/internal/distributed"
	"repro/internal/fd"
	"repro/internal/linalg"
	"repro/internal/lowerbound"
)

// ShrinkFrontier is the S1 experiment: the error frontier of the FD shrink
// rule's one parameter α. The default α = 1 ("fast-fd") and α = 0.5
// ingest the same low-rank workload single-node at three sketch sizes
// (ε·2, ε, ε/2), producing one curve per α: measured covariance error
// against the work the schedule costs (buffer rows held, shrinks = SVDs
// performed), with the sketch's own a-posteriori certificate (ErrorBound)
// as the budget column and OK recording that the certificate held. (The
// one-SVD-per-row ℓ+1 schedule is a buffer size, not a rule: A3 measures
// it.) A sweep point whose ε reaches 1 has no sketch size and is recorded
// as a note row.
//
// Each α additionally runs a distributed fd-merge leg at the config's ε
// (nonzero Words; certificate from the a-priori (ε,k) budget, as in
// Table 1): every α is mergeable.
func ShrinkFrontier(cfg Config) ([]Row, error) {
	a, parts := makeLowRank(cfg)
	frob2 := a.Frob2()
	rules := []fd.Options{{Alpha: 1}, {Alpha: 0.5}}

	var rows []Row
	// Single-node ingest legs: one curve point per (α, ε).
	for _, opts := range rules {
		for _, mult := range []float64{2, 1, 0.5} {
			eps := cfg.Eps * mult
			row := Row{
				Experiment: "S1", Algorithm: "shrink=" + opts.Rule(),
				S: 1, D: cfg.D, K: cfg.K, Eps: eps,
			}
			if eps >= 1 {
				row.OK, row.Note = true, "skipped: eps out of (0,1)"
				rows = append(rows, row)
				continue
			}
			ell := fd.SketchSize(eps, cfg.K)
			sk := fd.New(cfg.D, ell, opts)
			if err := sk.UpdateMatrix(a); err != nil {
				return nil, fmt.Errorf("S1 %s eps=%g: %w", opts.Rule(), eps, err)
			}
			b, err := sk.Matrix()
			if err != nil {
				return nil, fmt.Errorf("S1 %s eps=%g: %w", opts.Rule(), eps, err)
			}
			row.CovErr, err = linalg.CovarianceError(a, b)
			if err != nil {
				return nil, fmt.Errorf("S1 %s eps=%g: %w", opts.Rule(), eps, err)
			}
			row.Budget = sk.ErrorBound()
			// The certificate holds in exact arithmetic; the floor absorbs
			// SVD roundoff accumulated over the shrink schedule (observed
			// ~1e-12·‖A‖F² per thousand shrinks), which matters only in
			// the rank-deficient regime where the certificate is 0.
			row.OK = row.CovErr <= row.Budget*(1+1e-9)+1e-10*frob2
			row.Note = fmt.Sprintf("ell=%d buffer=%d shrinks=%d cert=a-posteriori",
				ell, sk.WorkingSpaceRows(), sk.Shrinks())
			rows = append(rows, row)
		}
	}

	// Distributed legs: every α through fd-merge at the config's ε, so the
	// frontier also shows that α never moves metered words.
	ctx := context.Background()
	p := lowerbound.Params{S: cfg.S, D: cfg.D, K: cfg.K, Eps: cfg.Eps, Delta: 0.1}
	for _, opts := range rules {
		res, err := distributed.Run(ctx, distributed.FDMerge{Eps: cfg.Eps, K: cfg.K}, parts, distributed.WithSeed(cfg.Seed), distributed.WithAlpha(opts.Alpha))
		if err != nil {
			return nil, fmt.Errorf("S1 fd-merge %s: %w", opts.Rule(), err)
		}
		r, err := covRow("S1", "fd-merge shrink="+opts.Rule(), cfg, a, res.Sketch, res.Words, lowerbound.FDMergeWords(p), cfg.Eps, cfg.K)
		if err != nil {
			return nil, err
		}
		r.Note = "cert=a-priori (ε,k)"
		rows = append(rows, r)
	}
	return rows, nil
}
