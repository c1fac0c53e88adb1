package bench

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/distributed"
	"repro/internal/fd"
	"repro/internal/linalg"
	"repro/internal/lowerbound"
	"repro/internal/matrix"
	"repro/internal/pca"
	"repro/internal/workload"
)

// Series is one measured curve for a figure-style sweep.
type Series struct {
	Name   string
	XLabel string
	X      []float64
	Y      []float64
}

// FormatSeries renders sweeps as aligned columns: one x column, one column
// per series.
func FormatSeries(xlabel string, series []Series) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%12s", xlabel)
	for _, s := range series {
		fmt.Fprintf(&b, " %18s", s.Name)
	}
	b.WriteString("\n")
	if len(series) == 0 {
		return b.String()
	}
	for i := range series[0].X {
		fmt.Fprintf(&b, "%12.4g", series[0].X[i])
		for _, s := range series {
			if i < len(s.Y) {
				fmt.Fprintf(&b, " %18.4g", s.Y[i])
			} else {
				fmt.Fprintf(&b, " %18s", "-")
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// HeadlineD25 is experiment F1: the §1.4 headline claim at s = d and error
// ‖A‖F²/d. Returns measured words for each algorithm at each d; the "New"
// curve should grow like d^2.5·√log d while the others grow like d³.
//
// The workload has a power-law spectrum (σ_j ∝ 1/j): on the adversarial
// flat sign-matrix instance of the lower bound no algorithm can compress at
// ε = 1/d (that is the lower bound's content), so the headline separation
// is exhibited on the decaying spectra real data has.
func HeadlineD25(ds []int, seed int64) ([]Series, error) {
	fdW := Series{Name: "FD-merge", XLabel: "d"}
	svsW := Series{Name: "SVS (new)", XLabel: "d"}
	sampW := Series{Name: "sampling", XLabel: "d"}
	theory := Series{Name: "theory-d^2.5", XLabel: "d"}
	for _, d := range ds {
		s := d
		eps := 1 / float64(d)
		rowsPer := d / 4
		if rowsPer < 4 {
			rowsPer = 4
		}
		rng := rand.New(rand.NewSource(seed + int64(d)))
		a := workload.PowerLawSpectrum(rng, s*rowsPer, d, 1.0, 10)
		parts := workload.Split(a, s, workload.Contiguous, nil)

		det, err := distributed.Run(context.Background(), distributed.FDMerge{Eps: eps}, parts, distributed.WithSeed(seed))
		if err != nil {
			return nil, fmt.Errorf("F1 fd d=%d: %w", d, err)
		}
		svs, err := distributed.Run(context.Background(), distributed.SVS{Alpha: eps, Delta: 0.1}, parts, distributed.WithSeed(seed))
		if err != nil {
			return nil, fmt.Errorf("F1 svs d=%d: %w", d, err)
		}
		samp, err := distributed.Run(context.Background(), distributed.RowSampling{Eps: eps}, parts, distributed.WithSeed(seed))
		if err != nil {
			return nil, fmt.Errorf("F1 samp d=%d: %w", d, err)
		}
		x := float64(d)
		fdW.X, fdW.Y = append(fdW.X, x), append(fdW.Y, det.Words)
		svsW.X, svsW.Y = append(svsW.X, x), append(svsW.Y, svs.Words)
		sampW.X, sampW.Y = append(sampW.X, x), append(sampW.Y, samp.Words)
		theory.X = append(theory.X, x)
		theory.Y = append(theory.Y, lowerbound.SVSWords(lowerbound.Params{S: s, D: d, K: 0, Eps: eps, Delta: 0.1}))
	}
	return []Series{fdW, svsW, sampW, theory}, nil
}

// CommVsServers is experiment F2: measured words vs s at fixed (d, ε),
// exposing the deterministic/randomized crossover (linear vs √s growth).
func CommVsServers(svals []int, d int, eps float64, seed int64) ([]Series, error) {
	det := Series{Name: "FD-merge", XLabel: "s"}
	svs := Series{Name: "SVS (new)", XLabel: "s"}
	ad := Series{Name: "adaptive(k=3)", XLabel: "s"}
	for _, s := range svals {
		rng := rand.New(rand.NewSource(seed + int64(s)))
		a := workload.LowRankPlusNoise(rng, s*32, d, 3, 40, 0.7, 0.4)
		parts := workload.Split(a, s, workload.Contiguous, nil)
		r1, err := distributed.Run(context.Background(), distributed.FDMerge{Eps: eps}, parts, distributed.WithSeed(seed))
		if err != nil {
			return nil, fmt.Errorf("F2 fd s=%d: %w", s, err)
		}
		r2, err := distributed.Run(context.Background(), distributed.SVS{Alpha: eps, Delta: 0.1}, parts, distributed.WithSeed(seed))
		if err != nil {
			return nil, fmt.Errorf("F2 svs s=%d: %w", s, err)
		}
		r3, err := distributed.Run(context.Background(), distributed.Adaptive{AdaptiveParams: distributed.AdaptiveParams{Eps: eps, K: 3}}, parts, distributed.WithSeed(seed))
		if err != nil {
			return nil, fmt.Errorf("F2 adaptive s=%d: %w", s, err)
		}
		x := float64(s)
		det.X, det.Y = append(det.X, x), append(det.Y, r1.Words)
		svs.X, svs.Y = append(svs.X, x), append(svs.Y, r2.Words)
		ad.X, ad.Y = append(ad.X, x), append(ad.Y, r3.Words)
	}
	return []Series{det, svs, ad}, nil
}

// CommVsEpsilon is experiment F3: measured words vs 1/ε, exposing the
// sampling baseline's quadratic blowup against the 1/ε growth of the rest.
func CommVsEpsilon(epsvals []float64, s, d int, seed int64) ([]Series, error) {
	det := Series{Name: "FD-merge", XLabel: "1/eps"}
	svs := Series{Name: "SVS (new)", XLabel: "1/eps"}
	samp := Series{Name: "sampling", XLabel: "1/eps"}
	rng := rand.New(rand.NewSource(seed))
	a := workload.LowRankPlusNoise(rng, s*64, d, 3, 40, 0.7, 0.4)
	parts := workload.Split(a, s, workload.Contiguous, nil)
	for _, eps := range epsvals {
		r1, err := distributed.Run(context.Background(), distributed.FDMerge{Eps: eps}, parts, distributed.WithSeed(seed))
		if err != nil {
			return nil, fmt.Errorf("F3 fd eps=%v: %w", eps, err)
		}
		r2, err := distributed.Run(context.Background(), distributed.SVS{Alpha: eps, Delta: 0.1}, parts, distributed.WithSeed(seed))
		if err != nil {
			return nil, fmt.Errorf("F3 svs eps=%v: %w", eps, err)
		}
		r3, err := distributed.Run(context.Background(), distributed.RowSampling{Eps: eps}, parts, distributed.WithSeed(seed))
		if err != nil {
			return nil, fmt.Errorf("F3 samp eps=%v: %w", eps, err)
		}
		x := 1 / eps
		det.X, det.Y = append(det.X, x), append(det.Y, r1.Words)
		svs.X, svs.Y = append(svs.X, x), append(svs.Y, r2.Words)
		samp.X, samp.Y = append(samp.X, x), append(samp.Y, r3.Words)
	}
	return []Series{det, svs, samp}, nil
}

// ErrorFrontier is experiment F4: for each protocol, the measured
// (words, relative covariance error) frontier over an ε sweep — who wins at
// a given communication budget.
func ErrorFrontier(epsvals []float64, s, d int, alphaDecay float64, seed int64) ([]Series, error) {
	rng := rand.New(rand.NewSource(seed))
	a := workload.PowerLawSpectrum(rng, s*48, d, alphaDecay, 20)
	parts := workload.Split(a, s, workload.Contiguous, nil)
	frob2 := a.Frob2()
	det := Series{Name: "FD-merge", XLabel: "words"}
	svs := Series{Name: "SVS (new)", XLabel: "words"}
	samp := Series{Name: "sampling", XLabel: "words"}
	measure := func(sk *matrix.Dense) (float64, error) {
		ce, err := linalg.CovarianceError(a, sk)
		return ce / frob2, err
	}
	for _, eps := range epsvals {
		r1, err := distributed.Run(context.Background(), distributed.FDMerge{Eps: eps}, parts, distributed.WithSeed(seed))
		if err != nil {
			return nil, err
		}
		e1, err := measure(r1.Sketch)
		if err != nil {
			return nil, err
		}
		det.X, det.Y = append(det.X, r1.Words), append(det.Y, e1)
		r2, err := distributed.Run(context.Background(), distributed.SVS{Alpha: eps, Delta: 0.1}, parts, distributed.WithSeed(seed))
		if err != nil {
			return nil, err
		}
		e2, err := measure(r2.Sketch)
		if err != nil {
			return nil, err
		}
		svs.X, svs.Y = append(svs.X, r2.Words), append(svs.Y, e2)
		r3, err := distributed.Run(context.Background(), distributed.RowSampling{Eps: eps}, parts, distributed.WithSeed(seed))
		if err != nil {
			return nil, err
		}
		e3, err := measure(r3.Sketch)
		if err != nil {
			return nil, err
		}
		samp.X, samp.Y = append(samp.X, r3.Words), append(samp.Y, e3)
	}
	return []Series{det, svs, samp}, nil
}

// SamplingFunctionAblation is experiment F5 (the paper's Theorem 5 vs 6
// comparison): measured words of the linear vs quadratic sampling function
// across d, at matched measured error.
func SamplingFunctionAblation(ds []int, s int, eps float64, seed int64) ([]Series, error) {
	lin := Series{Name: "linear (Thm5)", XLabel: "d"}
	quad := Series{Name: "quadratic (Thm6)", XLabel: "d"}
	errLin := Series{Name: "err-linear", XLabel: "d"}
	errQuad := Series{Name: "err-quadratic", XLabel: "d"}
	for _, d := range ds {
		rng := rand.New(rand.NewSource(seed + int64(d)))
		a := workload.PowerLawSpectrum(rng, s*32, d, 0.8, 15)
		parts := workload.Split(a, s, workload.Contiguous, nil)
		rl, err := distributed.Run(context.Background(), distributed.SVS{Alpha: eps, Delta: 0.1, Sampling: distributed.SampleLinear}, parts, distributed.WithSeed(seed))
		if err != nil {
			return nil, err
		}
		rq, err := distributed.Run(context.Background(), distributed.SVS{Alpha: eps, Delta: 0.1}, parts, distributed.WithSeed(seed))
		if err != nil {
			return nil, err
		}
		el, err := linalg.CovarianceError(a, rl.Sketch)
		if err != nil {
			return nil, err
		}
		eq, err := linalg.CovarianceError(a, rq.Sketch)
		if err != nil {
			return nil, err
		}
		x := float64(d)
		lin.X, lin.Y = append(lin.X, x), append(lin.Y, rl.Words)
		quad.X, quad.Y = append(quad.X, x), append(quad.Y, rq.Words)
		errLin.X, errLin.Y = append(errLin.X, x), append(errLin.Y, el/a.Frob2())
		errQuad.X, errQuad.Y = append(errQuad.X, x), append(errQuad.Y, eq/a.Frob2())
	}
	return []Series{lin, quad, errLin, errQuad}, nil
}

// BitComplexity is experiment F6: bits shipped on the float64 wire, on the
// float32 wire (exactly half the words, paid for by an explicit certificate
// charge) and under the §3.3 quantization, plus the Case-1 exact protocol on
// a rank-bounded integer input.
func BitComplexity(cfg Config) ([]Row, error) {
	if 2*cfg.K > min(cfg.N, cfg.D) {
		return nil, fmt.Errorf("F6: the rank-2k input needs 2k <= min(n, d), got k=%d n=%d d=%d", cfg.K, cfg.N, cfg.D)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	a := workload.ExactRank(rng, cfg.N, cfg.D, 2*cfg.K, 8)
	parts := workload.Split(a, cfg.S, workload.Contiguous, nil)
	var rows []Row

	plain, err := distributed.Run(context.Background(), distributed.FDMerge{Eps: cfg.Eps, K: cfg.K}, parts, distributed.WithSeed(cfg.Seed))
	if err != nil {
		return nil, err
	}
	r, err := covRow("F6", "FD-merge float64", cfg, a, plain.Sketch, plain.Words, 0, cfg.Eps, cfg.K)
	if err != nil {
		return nil, err
	}
	r.Note = fmt.Sprintf("%d bits", plain.Bits)
	rows = append(rows, r)

	f32, err := distributed.Run(context.Background(), distributed.FDMerge{Eps: cfg.Eps, K: cfg.K}, parts, distributed.WithSeed(cfg.Seed), distributed.WithWirePrecision(comm.Float32))
	if err != nil {
		return nil, err
	}
	r32, err := covRow("F6", "FD-merge float32", cfg, a, f32.Sketch, f32.Words, 0, cfg.Eps, cfg.K)
	if err != nil {
		return nil, err
	}
	// The certificate delta charged for s float32-rounded uplink sketches of
	// ℓ rows each: the §3.3 round-trip bound at the float32 relative step.
	ell := f32.Sketch.Rows()
	charge := float64(cfg.S) * comm.Float32RoundTripError(ell, cfg.D, math.Sqrt(a.Frob2()))
	r32.Budget += charge
	r32.OK = f32.Words == plain.Words/2 && r32.CovErr <= r.CovErr+charge && r32.CovErr <= r32.Budget
	r32.Note = fmt.Sprintf("%d bits; certificate charge +%.3g = s·Float32RoundTripError(%d,%d,‖A‖F)", f32.Bits, charge, ell, cfg.D)
	rows = append(rows, r32)

	step := comm.StepFor(cfg.N, cfg.D, cfg.Eps)
	quant, err := distributed.Run(context.Background(), distributed.FDMerge{Eps: cfg.Eps, K: cfg.K}, parts, distributed.WithSeed(cfg.Seed), distributed.WithQuantization(step))
	if err != nil {
		return nil, err
	}
	r, err = covRow("F6", "FD-merge quantized", cfg, a, quant.Sketch, quant.Words, 0, cfg.Eps, cfg.K)
	if err != nil {
		return nil, err
	}
	r.Note = fmt.Sprintf("%d bits (%.1f%% of float)", quant.Bits, 100*float64(quant.Bits)/float64(plain.Bits))
	rows = append(rows, r)

	exact, err := distributed.Run(context.Background(), distributed.LowRankExact{KBound: cfg.K}, parts, distributed.WithSeed(cfg.Seed))
	if err != nil {
		return nil, err
	}
	r, err = covRow("F6", "case-1 exact (rank≤2k)", cfg, a, exact.Sketch, exact.Words, 0, cfg.Eps, cfg.K)
	if err != nil {
		return nil, err
	}
	r.Note = "exact AᵀA reconstruction"
	rows = append(rows, r)
	return rows, nil
}

// PCAQuality is experiment F7: the Lemma 1 / Lemma 8 quality chain — PCA
// ratio vs k for PCs extracted from sketches of each protocol.
func PCAQuality(ks []int, cfg Config) ([]Series, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	a := workload.ClusteredGaussians(rng, cfg.N, cfg.D, 6, 40, 1.0)
	parts := workload.Split(a, cfg.S, workload.Contiguous, nil)
	fdPCA := Series{Name: "FD-merge PCA", XLabel: "k"}
	newPCA := Series{Name: "Thm9 PCA", XLabel: "k"}
	bwzPCA := Series{Name: "BWZ PCA", XLabel: "k"}
	for _, k := range ks {
		params := distributed.PCAParams{K: k, Eps: cfg.Eps}
		r1, err := distributed.Run(context.Background(), distributed.SketchPCA{Sketch: distributed.FDMerge{Eps: cfg.Eps / 2, K: k}, K: k}, parts, distributed.WithSeed(cfg.Seed))
		if err != nil {
			return nil, err
		}
		q1, err := pca.QualityRatio(a, r1.PCs, k)
		if err != nil {
			return nil, err
		}
		r2, err := distributed.Run(context.Background(), distributed.SketchPCA{Sketch: distributed.Adaptive{AdaptiveParams: distributed.AdaptiveParams{Eps: cfg.Eps / 2, K: k}}, K: k}, parts, distributed.WithSeed(cfg.Seed))
		if err != nil {
			return nil, err
		}
		q2, err := pca.QualityRatio(a, r2.PCs, k)
		if err != nil {
			return nil, err
		}
		r3, err := distributed.Run(context.Background(), distributed.BWZ{PCAParams: params}, parts, distributed.WithSeed(cfg.Seed))
		if err != nil {
			return nil, err
		}
		q3, err := pca.QualityRatio(a, r3.PCs, k)
		if err != nil {
			return nil, err
		}
		x := float64(k)
		fdPCA.X, fdPCA.Y = append(fdPCA.X, x), append(fdPCA.Y, q1)
		newPCA.X, newPCA.Y = append(newPCA.X, x), append(newPCA.Y, q2)
		bwzPCA.X, bwzPCA.Y = append(bwzPCA.X, x), append(bwzPCA.Y, q3)
	}
	return []Series{fdPCA, newPCA, bwzPCA}, nil
}

// LowerBoundSeparation is experiment F8: the Lemma 3 probability and the
// Lemma 2 gap statistic across d.
func LowerBoundSeparation(ds []int, seed int64) ([]Series, error) {
	prob := Series{Name: "Lemma3 Pr", XLabel: "d"}
	gap := Series{Name: "Lemma2 gap", XLabel: "d"}
	rng := rand.New(rand.NewSource(seed))
	for _, d := range ds {
		setSize := 1 << (3 * d / 4)
		if setSize > 1<<14 {
			setSize = 1 << 14
		}
		l3 := lowerbound.VerifyLemma3(rng, d, setSize, 150)
		sep, err := lowerbound.VerifySeparation(rng, 4, 2, d, 64, 10, 0.25)
		if err != nil {
			return nil, err
		}
		x := float64(d)
		prob.X, prob.Y = append(prob.X, x), append(prob.Y, l3.Probability)
		gap.X, gap.Y = append(gap.X, x), append(gap.Y, sep.MeanGap)
	}
	return []Series{prob, gap}, nil
}

// StreamingSpace is experiment F9: per-server working space (rows held in
// memory) of the streaming algorithms vs the batch alternative.
func StreamingSpace(cfg Config) ([]Row, error) {
	sk := fd.New(cfg.D, fd.SketchSize(cfg.Eps, cfg.K), fd.Options{})
	rows := []Row{
		{
			Experiment: "F9", Algorithm: "FD server (stream)",
			S: cfg.S, D: cfg.D, K: cfg.K, Eps: cfg.Eps,
			Words: float64(sk.WorkingSpaceRows() * cfg.D),
			OK:    true, Note: fmt.Sprintf("%d buffer rows = O(k/ε)", sk.WorkingSpaceRows()),
		},
		{
			Experiment: "F9", Algorithm: "reservoir server (stream)",
			S: cfg.S, D: cfg.D, K: cfg.K, Eps: cfg.Eps,
			Words: float64(core.SampleSize(cfg.Eps) * cfg.D),
			OK:    true, Note: "O(1/ε²) rows",
		},
		{
			Experiment: "F9", Algorithm: "batch server (full input)",
			S: cfg.S, D: cfg.D, K: cfg.K, Eps: cfg.Eps,
			Words: float64(cfg.N / cfg.S * cfg.D),
			OK:    true, Note: "n/s rows",
		},
	}
	return rows, nil
}

// Mergeability is experiment F10: FD(merge of sketches) error vs FD(concat)
// error across random partitions — the Theorem 2 correctness core.
func Mergeability(cfg Config, partitions int) ([]Series, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	a := workload.LowRankPlusNoise(rng, cfg.N, cfg.D, cfg.K, 40, 0.7, 0.4)
	direct, err := fd.SketchEpsK(a, cfg.Eps, cfg.K)
	if err != nil {
		return nil, err
	}
	directErr, err := linalg.CovarianceError(a, direct)
	if err != nil {
		return nil, err
	}
	budget, err := core.EpsKBound(a, cfg.Eps, cfg.K)
	if err != nil {
		return nil, err
	}
	merged := Series{Name: "merged-error", XLabel: "trial"}
	directS := Series{Name: "direct-error", XLabel: "trial"}
	budgetS := Series{Name: "budget", XLabel: "trial"}
	for trial := 0; trial < partitions; trial++ {
		parts := workload.Split(a, cfg.S, workload.RandomAssign, rand.New(rand.NewSource(cfg.Seed+int64(trial))))
		res, err := distributed.Run(context.Background(), distributed.FDMerge{Eps: cfg.Eps, K: cfg.K}, parts, distributed.WithSeed(cfg.Seed))
		if err != nil {
			return nil, err
		}
		ce, err := linalg.CovarianceError(a, res.Sketch)
		if err != nil {
			return nil, err
		}
		x := float64(trial)
		merged.X, merged.Y = append(merged.X, x), append(merged.Y, ce)
		directS.X, directS.Y = append(directS.X, x), append(directS.Y, directErr)
		budgetS.X, budgetS.Y = append(budgetS.X, x), append(budgetS.Y, budget)
	}
	return []Series{merged, directS, budgetS}, nil
}
