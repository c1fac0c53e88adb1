package bench

import (
	"context"
	"fmt"

	"repro/internal/comm"
	"repro/internal/distributed"
	"repro/internal/fd"
	"repro/internal/matrix"
)

// FanoutSweep is experiment T1: FD merge under increasing tree fan-outs
// against the star baseline at the same (s, d, ε, k) — exact words versus
// the tree-edge formula Edges·ℓ·d, the coordinator's inbound message count
// (O(fan-out) in a tree versus s in the star), depth, and whether the tree's
// sketch is bit-identical to the star's. The fan-outs swept are powers of
// two, which group leaves exactly as the canonical pairwise merge does, so
// their sketches must match the star bit for bit (OK records it).
func FanoutSweep(cfg Config) ([]Row, error) {
	_, parts := makeLowRank(cfg)
	ell := fd.SketchSize(cfg.Eps, cfg.K)
	ctx := context.Background()

	type outcome struct {
		res   *distributed.Result
		meter *comm.Meter
		plan  *distributed.Plan
	}
	run := func(topo distributed.Topology) (outcome, error) {
		plan, err := topo.Plan(cfg.S)
		if err != nil {
			return outcome{}, err
		}
		meter := comm.NewMeter()
		res, err := distributed.Run(ctx, distributed.FDMerge{Eps: cfg.Eps, K: cfg.K}, parts,
			distributed.WithSeed(cfg.Seed),
			distributed.WithTopology(topo),
			distributed.WithMeter(meter))
		if err != nil {
			return outcome{}, err
		}
		return outcome{res: res, meter: meter, plan: plan}, nil
	}

	star, err := run(distributed.Star())
	if err != nil {
		return nil, fmt.Errorf("fanout sweep: star: %w", err)
	}
	row := func(algo string, o outcome) Row {
		theory := float64(o.plan.Edges()) * float64(ell) * float64(cfg.D)
		bitwise := matrixEqual(o.res.Sketch, star.res.Sketch)
		return Row{
			Experiment: "fanout", Algorithm: algo,
			S: cfg.S, D: cfg.D, K: cfg.K, Eps: cfg.Eps,
			Words: o.res.Words, TheoryW: theory,
			OK: bitwise,
			Note: fmt.Sprintf("depth=%d aggs=%d msgs=%d root_in=%d rounds=%d bitwise=%v",
				o.plan.Depth(), len(o.plan.Aggregators()), o.res.Messages,
				o.meter.InboundMessages(comm.CoordinatorID), o.res.Rounds, bitwise),
		}
	}
	rows := []Row{row("fd-merge star", star)}
	for _, f := range sweepFanouts(cfg.S) {
		o, err := run(distributed.Tree(f))
		if err != nil {
			return nil, fmt.Errorf("fanout sweep: fanout %d: %w", f, err)
		}
		rows = append(rows, row(fmt.Sprintf("fd-merge tree f=%d", f), o))
	}
	return rows, nil
}

// sweepFanouts picks the fan-outs T1 sweeps at s servers: powers of two up
// to s/2 (bit-identical to the star by the canonical-merge grouping
// invariance), capped so the table stays readable at large s.
func sweepFanouts(s int) []int {
	var fs []int
	for f := 2; f <= s/2 && len(fs) < 6; f *= 2 {
		fs = append(fs, f)
	}
	if len(fs) == 0 {
		fs = []int{2}
	}
	return fs
}

func matrixEqual(a, b *matrix.Dense) bool {
	return a != nil && b != nil && a.Equal(b)
}
