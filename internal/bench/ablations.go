package bench

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/distributed"
	"repro/internal/fd"
	"repro/internal/linalg"
	"repro/internal/matrix"
	"repro/internal/workload"
)

// The ablations below correspond to the "Design choices called out for
// ablation" list in DESIGN.md.

// BernoulliVsIID is ablation A1: the paper argues (§3.1.1) that Bernoulli
// sampling of the aggregated rows — not i.i.d. sampling with replacement —
// is what makes the Matrix Bernstein analysis go through. We compare both
// at matched expected output size across adversarial spectra and report the
// measured covariance error distributions.
func BernoulliVsIID(cfg Config, trials int) ([]Row, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	var rows []Row
	for _, spec := range []struct {
		name string
		mk   func() *matrix.Dense
	}{
		{"power-law", func() *matrix.Dense { return workload.PowerLawSpectrum(rng, cfg.N/8, cfg.D, 0.8, 20) }},
		{"flat-sign", func() *matrix.Dense { return workload.SignMatrix(rng, cfg.N/8, cfg.D) }},
		{"low-rank", func() *matrix.Dense { return workload.LowRankPlusNoise(rng, cfg.N/8, cfg.D, cfg.K, 100, 0.8, 0.1) }},
	} {
		var bernMax, iidMax float64
		var sizeSum int
		for trial := 0; trial < trials; trial++ {
			a := spec.mk()
			parts := workload.Split(a, cfg.S, workload.Contiguous, nil)
			res, err := distributed.Run(context.Background(), distributed.SVS{
				Alpha: cfg.Eps, Delta: 0.1, Sampling: core.SampleQuadratic,
			}, parts, distributed.WithSeed(rng.Int63()))
			if err != nil {
				return nil, err
			}
			bern := res.Sketch
			sizeSum += bern.Rows()
			ceB, err := linalg.CovarianceError(a, bern)
			if err != nil {
				return nil, err
			}
			if ceB/a.Frob2() > bernMax {
				bernMax = ceB / a.Frob2()
			}
			// Matched-size i.i.d. sample per server on the same aggregated
			// rows (at least 1 row per server to keep it meaningful).
			perServer := bern.Rows()/cfg.S + 1
			var iparts []*matrix.Dense
			for _, p := range parts {
				ip, err := core.IIDRowSampleAggregated(p, perServer, rng)
				if err != nil {
					return nil, err
				}
				iparts = append(iparts, ip)
			}
			iid := matrix.Stack(iparts...)
			ceI, err := linalg.CovarianceError(a, iid)
			if err != nil {
				return nil, err
			}
			if ceI/a.Frob2() > iidMax {
				iidMax = ceI / a.Frob2()
			}
		}
		rows = append(rows,
			Row{Experiment: "A1", Algorithm: "Bernoulli SVS / " + spec.name, S: cfg.S, D: cfg.D, Eps: cfg.Eps,
				CovErr: bernMax, Budget: 4 * cfg.Eps, OK: bernMax <= 4*cfg.Eps,
				Note: fmt.Sprintf("max rel. err over %d trials, avg %d rows", trials, sizeSum/trials)},
			Row{Experiment: "A1", Algorithm: "iid-matched / " + spec.name, S: cfg.S, D: cfg.D, Eps: cfg.Eps,
				CovErr: iidMax, Budget: 4 * cfg.Eps, OK: true,
				Note: "same expected size, with replacement"},
		)
	}
	return rows, nil
}

// FinalCompressAblation is ablation A2: the Theorem 7 remark — one extra FD
// pass over Q trades sketch size for an extra O(ε) error.
func FinalCompressAblation(cfg Config) ([]Row, error) {
	a, parts := makeLowRank(cfg)
	var rows []Row
	for _, compress := range []bool{false, true} {
		res, err := distributed.Run(context.Background(), distributed.Adaptive{AdaptiveParams: distributed.AdaptiveParams{
			Eps: cfg.Eps, K: cfg.K, FinalCompress: compress,
		}}, parts, distributed.WithSeed(cfg.Seed))
		if err != nil {
			return nil, err
		}
		name := "adaptive Q (raw)"
		budgetEps := 3 * cfg.Eps
		if compress {
			name = "adaptive Q (+final FD)"
			budgetEps = 8 * cfg.Eps
		}
		r, err := covRow("A2", name, cfg, a, res.Sketch, res.Words, 0, budgetEps, cfg.K)
		if err != nil {
			return nil, err
		}
		r.Note = fmt.Sprintf("%d sketch rows", res.Sketch.Rows())
		rows = append(rows, r)
	}
	return rows, nil
}

// BufferFactorAblation is ablation A3: FD shrink-schedule buffer size vs
// the number of shrinks (one SVD each), at identical guarantees.
func BufferFactorAblation(cfg Config) ([]Row, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	a := workload.LowRankPlusNoise(rng, cfg.N, cfg.D, cfg.K, 100, 0.8, 0.2)
	ell := fd.SketchSize(cfg.Eps, cfg.K)
	var rows []Row
	for _, factor := range []struct {
		name string
		rows int
	}{
		{"ℓ+1 (Liberty original)", ell + 1},
		{"1.5ℓ", ell * 3 / 2},
		{"2ℓ (default)", 2 * ell},
		{"4ℓ", 4 * ell},
	} {
		s := fd.New(cfg.D, ell, fd.Options{BufferRows: factor.rows})
		if err := s.UpdateMatrix(a); err != nil {
			return nil, err
		}
		b, err := s.Matrix()
		if err != nil {
			return nil, err
		}
		r, err := covRow("A3", "FD buffer "+factor.name, cfg, a, b, 0, 0, cfg.Eps, cfg.K)
		if err != nil {
			return nil, err
		}
		r.Note = fmt.Sprintf("%d shrinks", s.Shrinks())
		rows = append(rows, r)
	}
	return rows, nil
}

// SparseInputAblation is ablation A5: the FD update path on sparse streams
// of varying density — dense Update vs nnz-proportional UpdateSparse into
// the same sketch, which must land on the same measured error.
func SparseInputAblation(cfg Config, density float64) ([]Row, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	sp := workload.SparseRandom(rng, cfg.N, cfg.D, density)
	dense := sp.ToDense()
	ell := fd.SketchSize(cfg.Eps, 0)
	note := fmt.Sprintf("density %.2f, nnz %d", density, sp.NNZ())
	var rows []Row
	for _, sparse := range []bool{false, true} {
		s := fd.New(cfg.D, ell, fd.Options{})
		name := "dense"
		var err error
		if sparse {
			name = "sparse"
			err = s.UpdateSparseMatrix(sp)
		} else {
			err = s.UpdateMatrix(dense)
		}
		if err != nil {
			return nil, err
		}
		b, err := s.Matrix()
		if err != nil {
			return nil, err
		}
		r, err := covRow("A5", "FD "+name+"+jacobi", cfg, dense, b, 0, 0, cfg.Eps, 0)
		if err != nil {
			return nil, err
		}
		r.Note = note
		rows = append(rows, r)
	}
	// The same regime through the distributed protocol: each server streams
	// its contiguous sparse shard via a SparseSource, so the FDMerge server takes
	// the nnz-proportional fd.UpdateSparse hot path end-to-end.
	spParts := workload.SplitSparseContiguous(sp, cfg.S)
	sources := make([]workload.RowSource, len(spParts))
	for i, p := range spParts {
		sources[i] = workload.NewSparseSource(p)
	}
	res, err := distributed.RunWorkload(context.Background(),
		distributed.FDMerge{Eps: cfg.Eps}, distributed.CovarianceInputs(sources), distributed.WithSeed(cfg.Seed))
	if err != nil {
		return nil, err
	}
	r, err := covRow("A5", "FD sparse distributed", cfg, dense, res.Sketch, res.Words, 0, cfg.Eps, 0)
	if err != nil {
		return nil, err
	}
	r.Note = note
	return append(rows, r), nil
}
