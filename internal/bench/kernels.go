package bench

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/distributed"
	"repro/internal/linalg"
	"repro/internal/matrix"
	"repro/internal/parallel"
	"repro/internal/workload"
)

// KernelBench (experiment K1) measures the two perf claims of the blocked-
// kernel work on the Gram/shrink hot path, as Rows:
//
//   - Kernel legs: the register-tiled blocked Gram/TMul kernels against the
//     serial reference triple loops (matrix.RefGram/RefTMul) on the headline
//     n×d shape, timed single-threaded. The blocked legs' Note carries the
//     measured speedup and matrix.KernelISA(); their OK asserts the ≥2×
//     acceptance bar.
//
//   - Wire legs: one fd-merge run per wire precision. The float32 leg's OK
//     asserts (a) its words are exactly half the float64 leg's and (b) its
//     covariance error stays within the float64 leg's error plus the
//     explicitly charged certificate delta s·Float32RoundTripError(ℓ, d,
//     ‖A‖F) — the Budget column is the (ε,k) budget plus that charge, and
//     the Note spells the charge out.
//
// Timing legs force the pool to width 1 (and restore it) so the comparison
// is kernels-vs-kernels, not parallelism.
func KernelBench(cfg Config) ([]Row, error) {
	cfg.applyParallel()
	rng := rand.New(rand.NewSource(cfg.Seed))
	a := workload.LowRankPlusNoise(rng, cfg.N, cfg.D, cfg.K, 150, 0.8, 0.1)

	prev := parallel.Workers()
	parallel.SetWorkers(1)
	rows := []Row{
		timeKernel(cfg, "gram-ref", a, func() *matrix.Dense { return matrix.RefGram(a) }, 0),
		timeKernel(cfg, "tmul-ref", a, func() *matrix.Dense { return matrix.RefTMul(a, a) }, 0),
	}
	rows = append(rows,
		timeKernel(cfg, "gram-blocked", a, func() *matrix.Dense { return a.Gram() }, rows[0].ElapsedMS),
		timeKernel(cfg, "tmul-blocked", a, func() *matrix.Dense { return a.TMul(a) }, rows[1].ElapsedMS),
	)
	parallel.SetWorkers(prev)

	wire, err := wireLegs(cfg, a)
	if err != nil {
		return nil, err
	}
	return append(rows, wire...), nil
}

// timeKernel runs fn repeatedly (enough repetitions for a stable wall-clock)
// and returns its Row; refMS > 0 marks a blocked leg compared against the
// reference leg's time.
func timeKernel(cfg Config, name string, a *matrix.Dense, fn func() *matrix.Dense, refMS float64) Row {
	const reps = 8
	fn() // warm up: page in the input, settle the pool
	start := time.Now()
	var sink *matrix.Dense
	for i := 0; i < reps; i++ {
		sink = fn()
	}
	elapsed := time.Since(start)
	runtime.KeepAlive(sink)
	ms := float64(elapsed.Microseconds()) / 1000 / reps
	row := Row{
		Experiment: "k1", Algorithm: name,
		S: cfg.S, D: cfg.D, K: cfg.K, Eps: cfg.Eps,
		OK:        true,
		ElapsedMS: ms,
		Note:      fmt.Sprintf("isa=%s", matrix.KernelISA()),
	}
	if ms > 0 {
		row.Throughput = float64(a.Rows()) / (ms / 1000)
	}
	if refMS > 0 {
		speedup := refMS / ms
		row.OK = speedup >= 2
		row.Note = fmt.Sprintf("%.2fx vs ref, isa=%s", speedup, matrix.KernelISA())
	}
	return row
}

// wireLegs runs fd-merge once per wire precision and emits the comparison
// rows described on KernelBench.
func wireLegs(cfg Config, a *matrix.Dense) ([]Row, error) {
	parts := workload.Split(a, cfg.S, workload.Contiguous, nil)
	ctx := context.Background()
	res64, err := distributed.Run(ctx, distributed.FDMerge{Eps: cfg.Eps, K: cfg.K}, parts, distributed.WithSeed(cfg.Seed))
	if err != nil {
		return nil, fmt.Errorf("K1 float64 leg: %w", err)
	}
	res32, err := distributed.Run(ctx, distributed.FDMerge{Eps: cfg.Eps, K: cfg.K}, parts, distributed.WithSeed(cfg.Seed), distributed.WithWirePrecision(comm.Float32))
	if err != nil {
		return nil, fmt.Errorf("K1 float32 leg: %w", err)
	}
	r64, err := covRow("k1", "fd-merge/float64", cfg, a, res64.Sketch, res64.Words, 0, cfg.Eps, cfg.K)
	if err != nil {
		return nil, err
	}
	r64.Note = "exact wire"
	r32, err := covRow("k1", "fd-merge/float32", cfg, a, res32.Sketch, res32.Words, 0, cfg.Eps, cfg.K)
	if err != nil {
		return nil, err
	}
	ce64, err := linalg.CovarianceError(a, res64.Sketch)
	if err != nil {
		return nil, err
	}
	// The certificate delta charged for s float32-rounded uplink sketches of
	// ℓ rows each: the §3.3 round-trip bound at the float32 relative step.
	ell := res32.Sketch.Rows()
	charge := float64(cfg.S) * comm.Float32RoundTripError(ell, cfg.D, math.Sqrt(a.Frob2()))
	budget, err := core.EpsKBound(a, cfg.Eps, cfg.K)
	if err != nil {
		return nil, err
	}
	r32.Budget = budget + charge
	r32.OK = res32.Words == res64.Words/2 &&
		r32.CovErr <= ce64+charge && r32.CovErr <= r32.Budget
	r32.Note = fmt.Sprintf("words halved exactly; certificate charge +%.3g = s·Float32RoundTripError(%d,%d,‖A‖F)", charge, ell, cfg.D)
	return []Row{r64, r32}, nil
}
