package bench

import (
	"context"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/distributed"
	"repro/internal/matrix"
	"repro/internal/workload"
)

// ProductFrontier is the C1 experiment: the words-vs-error frontier of
// distributed AᵀB estimation on sparse inputs. Row-aligned sparse Gaussian
// matrices A (n×d_A) and B (n×d_B) stream through two estimators at three
// densities:
//
//   - coord-product: coordinated priority sampling (the product estimand's
//     native protocol) at a sweep of sample sizes. Words scale with the kept
//     rows' nonzeros; Budget is the a-priori certificate.
//   - svs [A|B]: the covariance baseline — sketch the column-stacked
//     W = [A|B] with the SVS protocol and read AᵀB off the off-diagonal block of the
//     sketch's Gram matrix. Words scale with d_A+d_B per sampled row no
//     matter how sparse the input; Budget lifts the (4α,0) spectral
//     guarantee on WᵀW to the block's Frobenius norm via the √min(d_A,d_B)
//     rank factor.
//
// Errors are relative: ‖Est − AᵀB‖F / (‖A‖F·‖B‖F), the scale both budgets
// are stated in. The frontier's headline — the reason the product estimand
// exists — is that at low density coordinated sampling reaches the
// baseline's error at a fraction of its words (CheckProductHeadline
// verifies it mechanically; the C1 regression test pins it).
//
// cfg.D is d_A; d_B = max(2, d_A/2) keeps the product rectangular so block
// extraction bugs cannot hide. cfg.Eps parameterizes the SVS sweep.
func ProductFrontier(cfg Config) ([]Row, error) {
	ctx := context.Background()
	n, dA, s := cfg.N, cfg.D, cfg.S
	dB := dA / 2
	if dB < 2 {
		dB = 2
	}
	samples := productSampleSweep(n)
	var rows []Row
	for di, density := range productDensities {
		seedA := cfg.Seed + int64(1000*di)
		seedB := seedA + 1
		a, err := workload.Materialize(workload.NewSparseGaussianSource(n, dA, density, seedA))
		if err != nil {
			return nil, fmt.Errorf("C1 density=%g: %w", density, err)
		}
		b, err := workload.Materialize(newLabelSource(n, dA, dB, density, seedA, seedB))
		if err != nil {
			return nil, fmt.Errorf("C1 density=%g: %w", density, err)
		}
		exact := a.TMul(b)
		scale := math.Sqrt(a.Frob2()) * math.Sqrt(b.Frob2())
		note := fmt.Sprintf("density=%g", density)

		// Coordinated-sampling leg: the streaming shard inputs re-derive the
		// same rows the materialized copies hold (same seeds, same sources).
		for _, sample := range samples {
			inputs, err := productShardInputs(n, dA, dB, s, density, seedA, seedB)
			if err != nil {
				return nil, fmt.Errorf("C1 density=%g: %w", density, err)
			}
			res, err := distributed.RunWorkload(ctx, distributed.CoordinatedProduct{SampleSize: sample}, inputs, distributed.WithSeed(cfg.Seed))
			if err != nil {
				return nil, fmt.Errorf("C1 coord-product sample=%d density=%g: %w", sample, density, err)
			}
			relErr := core.ProductErr(res.Product, exact) / scale
			relBudget := res.Certificate / scale
			rows = append(rows, Row{
				Experiment: "c1",
				Algorithm:  fmt.Sprintf("coord-product m=%d", sample),
				S:          s, D: dA, K: sample,
				Eps:    density,
				Words:  res.Words,
				CovErr: relErr,
				Budget: relBudget,
				OK:     relErr <= relBudget,
				Note:   note,
			})
		}

		// SVS baseline: sketch the stacked [A|B] and extract the block.
		w := stackColumns(a, b)
		parts := workload.Split(w, s, workload.Contiguous, nil)
		wFrob2 := w.Frob2()
		// α must be well below the covariance experiments' ε: the baseline's
		// useful range only starts once it samples enough rows to beat the
		// all-zeros estimate (the cross-covariance mass is a ~ρ/√d_A
		// fraction of the ‖A‖F·‖B‖F scale).
		for _, alpha := range []float64{cfg.Eps / 2, cfg.Eps / 4, cfg.Eps / 8} {
			svs, err := distributed.Run(ctx, distributed.SVS{Alpha: alpha, Delta: 0.1}, parts, distributed.WithSeed(cfg.Seed))
			if err != nil {
				return nil, fmt.Errorf("C1 svs alpha=%g density=%g: %w", alpha, density, err)
			}
			est := offDiagonalBlock(svs.Sketch.Gram(), dA, dB)
			relErr := core.ProductErr(est, exact) / scale
			// (4α,0) bounds ‖WᵀW − SᵀS‖₂ ≤ 4α‖W‖F²; the d_A×d_B block has
			// rank ≤ min(d_A,d_B), so its Frobenius error is bounded by the
			// spectral bound times √min(d_A,d_B).
			relBudget := 4 * alpha * wFrob2 * math.Sqrt(float64(min(dA, dB))) / scale
			rows = append(rows, Row{
				Experiment: "c1",
				Algorithm:  fmt.Sprintf("svs [A|B] α=%.3g", alpha),
				S:          s, D: dA, K: 0,
				Eps:    density,
				Words:  svs.Words,
				CovErr: relErr,
				Budget: relBudget,
				OK:     relErr <= relBudget,
				Note:   note,
			})
		}
	}
	return rows, nil
}

// productDensities are the C1 sparsity levels, sparsest first — the regime
// where row samples undercut d_A+d_B-wide sketch rows.
var productDensities = []float64{0.01, 0.05, 0.2}

// productRho is the feature/label correlation of the C1 workload. It must
// be well away from 0: with independent A and B the true product AᵀB
// concentrates near zero and the all-zeros estimate — what an empty sketch
// returns — is unbeatable, so the frontier would measure nothing.
const productRho = 0.7

// labelSource streams the C1 label shard: row i of B is
// ρ·(the first d_B coordinates of A's row i) + √(1−ρ²)·an independent
// sparse Gaussian draw, so AᵀB carries real cross-covariance mass. The
// source privately regenerates A's rows from seedA (generators are
// seed-deterministic), which keeps the A and B shards independently
// streamable yet row-aligned — exactly the alignment ProductShards proves
// by offsets.
type labelSource struct {
	a  *workload.SparseGaussianSource // private regeneration of the features
	e  *workload.SparseGaussianSource // independent label noise
	dB int
}

func newLabelSource(n, dA, dB int, density float64, seedA, seedB int64) *labelSource {
	return &labelSource{
		a:  workload.NewSparseGaussianSource(n, dA, density, seedA),
		e:  workload.NewSparseGaussianSource(n, dB, density, seedB),
		dB: dB,
	}
}

func (c *labelSource) Dims() (int, int) { n, _ := c.e.Dims(); return n, c.dB }

func (c *labelSource) SparseNext() (*matrix.SparseVector, bool) {
	av, ok := c.a.SparseNext()
	if !ok {
		return nil, false
	}
	ev, ok := c.e.SparseNext()
	if !ok {
		return nil, false
	}
	noise := math.Sqrt(1 - productRho*productRho)
	var idx []int
	var val []float64
	for j, i := range av.Indices {
		if i < c.dB {
			idx = append(idx, i)
			val = append(val, productRho*av.Values[j])
		}
	}
	for j, i := range ev.Indices {
		idx = append(idx, i)
		val = append(val, noise*ev.Values[j])
	}
	// NewSparseVector sorts and merges the duplicate indices of the sum.
	return matrix.NewSparseVector(c.dB, idx, val), true
}

func (c *labelSource) Next() ([]float64, bool) {
	v, ok := c.SparseNext()
	if !ok {
		return nil, false
	}
	return v.Dense(), true
}

func (c *labelSource) Reset() error {
	if err := c.a.Reset(); err != nil {
		return err
	}
	return c.e.Reset()
}

func (c *labelSource) Err() error {
	if err := c.a.Err(); err != nil {
		return err
	}
	return c.e.Err()
}

// productSampleSweep picks the coord-product sample sizes for n global rows:
// up to four points spanning the decades up to the regime where the sample
// covers every nonzero row (at low density most rows are all-zero, so the
// largest point goes exact while its words stay nnz-proportional), the last
// one capped below n.
func productSampleSweep(n int) []int {
	var sw []int
	for _, v := range []int{64, 256, 1024, 4096} {
		if v >= n {
			return append(sw, n-1)
		}
		sw = append(sw, v)
	}
	return sw
}

// productShardInputs builds the per-server streaming (A, B) shard pairs for
// the contiguous partition of n rows, windowing fresh re-seeded generators.
func productShardInputs(n, dA, dB, s int, density float64, seedA, seedB int64) ([]distributed.Input, error) {
	aSrcs := make([]distributed.RowSource, s)
	bSrcs := make([]distributed.RowSource, s)
	for i := 0; i < s; i++ {
		lo, hi := workload.ContiguousRange(n, s, i)
		aSrcs[i] = workload.NewSectionSource(workload.NewSparseGaussianSource(n, dA, density, seedA), lo, hi)
		bSrcs[i] = workload.NewSectionSource(newLabelSource(n, dA, dB, density, seedA, seedB), lo, hi)
	}
	return distributed.ProductShards(n, aSrcs, bSrcs)
}

// stackColumns returns the n×(d_A+d_B) matrix [A|B].
func stackColumns(a, b *matrix.Dense) *matrix.Dense {
	n, dA := a.Dims()
	nb, dB := b.Dims()
	if n != nb {
		panic(fmt.Sprintf("bench: stackColumns rows %d vs %d", n, nb))
	}
	w := matrix.New(n, dA+dB)
	for i := 0; i < n; i++ {
		row := w.Row(i)
		copy(row[:dA], a.Row(i))
		copy(row[dA:], b.Row(i))
	}
	return w
}

// offDiagonalBlock extracts G[0:dA, dA:dA+dB] — the AᵀB block of the
// stacked Gram matrix.
func offDiagonalBlock(g *matrix.Dense, dA, dB int) *matrix.Dense {
	out := matrix.New(dA, dB)
	for i := 0; i < dA; i++ {
		copy(out.Row(i), g.Row(i)[dA:dA+dB])
	}
	return out
}

// CheckProductHeadline verifies the C1 acceptance claim on a finished
// frontier: at at least one density there is a coord-product point that is
// at least as accurate as the best SVS point at that density while spending
// strictly fewer words. Returns the density where it holds, or an error
// listing the per-density frontiers when it holds nowhere.
func CheckProductHeadline(rows []Row) (float64, error) {
	type frontier struct {
		svsErr, svsWords     float64 // best (lowest-error) SVS point
		coordWords, coordErr float64 // cheapest coord point beating svsErr
		haveSVS, haveCoord   bool
	}
	byDensity := map[float64]*frontier{}
	for _, r := range rows {
		f := byDensity[r.Eps]
		if f == nil {
			f = &frontier{}
			byDensity[r.Eps] = f
		}
		switch {
		case len(r.Algorithm) >= 3 && r.Algorithm[:3] == "svs":
			if !f.haveSVS || r.CovErr < f.svsErr {
				f.svsErr, f.svsWords, f.haveSVS = r.CovErr, r.Words, true
			}
		default:
			if !f.haveCoord || r.Words < f.coordWords {
				f.coordWords, f.coordErr, f.haveCoord = r.Words, r.CovErr, true
			}
		}
	}
	var report string
	for _, density := range productDensities {
		f := byDensity[density]
		if f == nil || !f.haveSVS || !f.haveCoord {
			continue
		}
		// Re-scan for the cheapest coord point whose error beats the best SVS.
		best := math.Inf(1)
		for _, r := range rows {
			if r.Eps == density && r.Algorithm[:3] != "svs" && r.CovErr <= f.svsErr && r.Words < best {
				best = r.Words
			}
		}
		if best < f.svsWords {
			return density, nil
		}
		report += fmt.Sprintf(" density=%g: svs err=%.3g words=%.0f, no cheaper coord point at that error;", density, f.svsErr, f.svsWords)
	}
	return 0, fmt.Errorf("bench: coordinated sampling beat SVS at no density:%s", report)
}
