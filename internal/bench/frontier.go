package bench

import (
	"context"
	"fmt"

	"repro/internal/distributed"
	"repro/internal/fd"
	"repro/internal/linalg"
	"repro/internal/lowerbound"
)

// ShrinkFrontier is the S1 experiment: the error frontier of the pluggable
// FD shrink strategies. Every shipped strategy — vanilla fd, fast-fd, isvd,
// alpha-fd(0.5), compensative — ingests the same low-rank workload
// single-node at three sketch sizes (ε·2, ε, ε/2), producing one curve per
// strategy: measured covariance error against the work the schedule costs
// (buffer rows held, shrinks = SVDs performed), with the sketch's own
// a-posteriori certificate (ErrorBound) as the budget column and OK
// recording that the certificate held. The headline point of the frontier
// is the vanilla-vs-fast-fd pair: same certificate family, one SVD per row
// versus one SVD per ℓ rows. A sweep point whose ε reaches 1 has no sketch
// size and is recorded as a note row.
//
// The three mergeable strategies additionally run a distributed fd-merge leg
// at the config's ε (nonzero Words; certificate from the a-priori (ε,k)
// budget, as in Table 1). The non-mergeable strategies have no distributed
// leg by construction — fd-merge rejects them — which the frontier records
// as a note row rather than silently omitting.
func ShrinkFrontier(cfg Config) ([]Row, error) {
	a, parts := makeLowRank(cfg)
	frob2 := a.Frob2()

	strategies := []fd.ShrinkStrategy{
		fd.Vanilla,
		fd.FastFD,
		fd.ISVD,
		fd.AlphaFD(0.5),
		fd.Compensative,
	}

	var rows []Row
	// Single-node ingest legs: one curve point per (strategy, ε).
	for _, st := range strategies {
		for _, mult := range []float64{2, 1, 0.5} {
			eps := cfg.Eps * mult
			row := Row{
				Experiment: "S1", Algorithm: "shrink=" + st.Name(),
				S: 1, D: cfg.D, K: cfg.K, Eps: eps,
			}
			if eps >= 1 {
				row.OK, row.Note = true, "skipped: eps out of (0,1)"
				rows = append(rows, row)
				continue
			}
			ell := fd.SketchSize(eps, cfg.K)
			sk := fd.New(cfg.D, ell, fd.Options{Strategy: st})
			if err := sk.UpdateMatrix(a); err != nil {
				return nil, fmt.Errorf("S1 %s eps=%g: %w", st.Name(), eps, err)
			}
			b, err := sk.Matrix()
			if err != nil {
				return nil, fmt.Errorf("S1 %s eps=%g: %w", st.Name(), eps, err)
			}
			row.CovErr, err = linalg.CovarianceError(a, b)
			if err != nil {
				return nil, fmt.Errorf("S1 %s eps=%g: %w", st.Name(), eps, err)
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

	// Distributed legs: the mergeable strategies through fd-merge at the
	// config's ε, so the frontier also shows that strategy choice never moves
	// metered words.
	ctx := context.Background()
	p := lowerbound.Params{S: cfg.S, D: cfg.D, K: cfg.K, Eps: cfg.Eps, Delta: 0.1}
	for _, st := range strategies {
		if fd.CheckMergeable(st) != nil {
			rows = append(rows, Row{
				Experiment: "S1", Algorithm: "fd-merge shrink=" + st.Name(),
				S: cfg.S, D: cfg.D, K: cfg.K, Eps: cfg.Eps,
				OK:   true,
				Note: "not mergeable: fd-merge rejects this strategy (single-node only)",
			})
			continue
		}
		res, err := distributed.Run(ctx, distributed.FDMerge{Eps: cfg.Eps, K: cfg.K}, parts, distributed.WithSeed(cfg.Seed), distributed.WithShrink(st))
		if err != nil {
			return nil, fmt.Errorf("S1 fd-merge %s: %w", st.Name(), err)
		}
		r, err := covRow("S1", "fd-merge shrink="+st.Name(), cfg, a, res.Sketch, res.Words, lowerbound.FDMergeWords(p), cfg.Eps, cfg.K)
		if err != nil {
			return nil, err
		}
		r.Note = "cert=a-priori (ε,k)"
		rows = append(rows, r)
	}
	return rows, nil
}
