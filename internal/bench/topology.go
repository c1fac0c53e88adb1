package bench

import (
	"context"
	"fmt"
	"time"

	"repro/internal/comm"
	"repro/internal/distributed"
	"repro/internal/fd"
	"repro/internal/matrix"
)

// FanoutSweep measures FD merge under increasing tree fan-outs against the
// star baseline at the same (s, d, ε, k): exact words versus the tree-edge
// formula Edges·ℓ·d, the coordinator's inbound message count (O(fan-out) in
// a tree versus s in the star), depth, wall-clock, and whether the tree's
// sketch is bit-identical to the star's. Fan-outs that are powers of two
// group leaves exactly as the canonical pairwise merge does, so their
// sketches must match the star bit for bit; other fan-outs keep the (ε,k)
// guarantee but may differ in low-order bits (noted per row).
func FanoutSweep(cfg Config, fanouts []int) ([]Row, error) {
	cfg.applyParallel()
	st, err := cfg.shrinkStrategy()
	if err != nil {
		return nil, err
	}
	_, parts := makeLowRank(cfg)
	ell := fd.SketchSize(cfg.Eps, cfg.K)
	ctx := context.Background()

	type outcome struct {
		res     *distributed.Result
		meter   *comm.Meter
		plan    *distributed.Plan
		elapsed time.Duration
	}
	run := func(topo distributed.Topology) (outcome, error) {
		plan, err := topo.Plan(cfg.S)
		if err != nil {
			return outcome{}, err
		}
		meter := comm.NewMeter()
		start := time.Now()
		res, err := distributed.Run(ctx, distributed.FDMerge{Eps: cfg.Eps, K: cfg.K}, parts,
			distributed.WithSeed(cfg.Seed),
			distributed.WithShrink(st),
			distributed.WithTopology(topo),
			distributed.WithMeter(meter))
		if err != nil {
			return outcome{}, err
		}
		return outcome{res: res, meter: meter, plan: plan, elapsed: time.Since(start)}, nil
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
			Note: fmt.Sprintf("depth=%d aggs=%d msgs=%d root_in=%d rounds=%d elapsed=%.1fms bitwise=%v",
				o.plan.Depth(), len(o.plan.Aggregators()), o.res.Messages,
				o.meter.InboundMessages(comm.CoordinatorID), o.res.Rounds,
				float64(o.elapsed.Microseconds())/1000, bitwise),
		}
	}
	rows := []Row{row("fd-merge star", star)}
	for _, f := range fanouts {
		o, err := run(distributed.Tree(f))
		if err != nil {
			return nil, fmt.Errorf("fanout sweep: fanout %d: %w", f, err)
		}
		rows = append(rows, row(fmt.Sprintf("fd-merge tree f=%d", f), o))
	}
	return rows, nil
}

func matrixEqual(a, b *matrix.Dense) bool {
	return a != nil && b != nil && a.Equal(b)
}
