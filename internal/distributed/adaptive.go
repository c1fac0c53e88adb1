package distributed

import (
	"context"
	"fmt"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/fd"
	"repro/internal/matrix"
	"repro/internal/workload"
)

// AdaptiveParams parameterizes the Theorem 7 protocol.
type AdaptiveParams struct {
	Eps           float64
	K             int
	Delta         float64
	Sampling      SamplingFn
	FinalCompress bool
}

func (p AdaptiveParams) withDefaults() AdaptiveParams {
	if p.Delta == 0 {
		p.Delta = 0.1
	}
	return p
}

// check rejects parameters outside the Theorem 7 ranges: ε in (0,1), k ≥ 1
// (the tail is sampled at α = ε/k), δ in (0,1) with 0 selecting the default.
func (p AdaptiveParams) check(proto string) error {
	if err := checkEpsK(proto, p.Eps, p.K, 1); err != nil {
		return err
	}
	return checkUnit(proto, "delta", p.withDefaults().Delta)
}

// Adaptive is the §3.2 / Theorem 7 adaptive (ε,k)-sketch protocol. Expected
// communication: O(s·d·k + √s·k·d·√log(d/δ)/ε) words plus 2s calibration
// words; the output is an (O(ε),k)-sketch of A w.h.p.
type Adaptive struct {
	AdaptiveParams
	Env Env
}

// Name implements Protocol.
func (p Adaptive) Name() string { return "adaptive" }

// Estimand implements Protocol.
func (p Adaptive) Estimand() Estimand { return EstimandCovariance }

func (p Adaptive) withEnv(e Env) Protocol { p.Env = e; return p }

func (p Adaptive) env() Env { return p.Env }

func (p Adaptive) rounds() int { return 2 }

func (p Adaptive) validate() error { return p.AdaptiveParams.check(p.Name()) }

// serverAdaptiveLocal runs the server's part of the §3.2 algorithm up to
// producing (but not sending) its block Q_i of the distributed covariance
// sketch:
//
//  1. Stream the local rows through FD (one pass, O(kd/ε) space), split the
//     sketch with Decomp into (T_i, R_i).
//  2. Send ‖R_i‖F² (one word); receive the global tail mass (one word).
//  3. Run SVS on R_i with the shared sampling function at α = ε/k;
//     Q_i = [T_i; W_i].
//
// This is the "distributed covariance sketch" of §1.4/§4: computing it
// costs only the two calibration words per server, and the caller decides
// whether to ship Q_i (the Adaptive protocol) or to keep it local and run a
// distributed solve on it (PCACombined — Theorem 9).
func serverAdaptiveLocal(ctx context.Context, node Node, local workload.RowSource, s int, p AdaptiveParams, cfg Config) (*matrix.Dense, error) {
	p = p.withDefaults()
	_, d := local.Dims()
	// Stream the local rows through FD so the input never materializes,
	// then split the sketch.
	sk := fd.New(d, fd.SketchSize(p.Eps, p.K), fd.Options{Obs: cfg.Obs})
	rows, sparse, err := streamRows(local, sk.Update, sk.UpdateSparse)
	if err != nil {
		return nil, fmt.Errorf("server %d: %w", node.ID(), err)
	}
	cfg.observer().RowsIngested(int64(rows), sparse)
	b, err := sk.Matrix()
	if err != nil {
		return nil, fmt.Errorf("server %d: %w", node.ID(), err)
	}
	t, r, err := core.Decomp(b, p.K)
	if err != nil {
		return nil, fmt.Errorf("server %d: %w", node.ID(), err)
	}
	if err := node.Send(ctx, comm.CoordinatorID, &comm.Message{Kind: "tail-frob2", Scalars: []float64{r.Frob2()}}); err != nil {
		return nil, err
	}
	msg, err := expectKind(ctx, node, "tail-total")
	if err != nil {
		return nil, err
	}
	tailTotal := msg.Scalars[0]
	alpha := p.Eps / float64(p.K)
	if alpha >= 1 {
		alpha = 0.999999
	}
	g := p.Sampling.Build(s, d, alpha, p.Delta, tailTotal)
	w, err := core.SVS(r, g, cfg.rng(node.ID()))
	if err != nil {
		return nil, fmt.Errorf("server %d SVS: %w", node.ID(), err)
	}
	cfg.observer().SVSSampled(w.Rows(), minDim(r))
	return t.Stack(w), nil
}

// Server implements Protocol: compute Q_i and ship it to the coordinator.
func (p Adaptive) Server(ctx context.Context, node Node, in Input) error {
	local, err := in.Covariance(p.Name())
	if err != nil {
		return err
	}
	q, err := serverAdaptiveLocal(ctx, node, local, p.Env.Servers, p.AdaptiveParams, p.Env.Config)
	if err != nil {
		return err
	}
	return p.Env.Config.sendMatrix(ctx, node, comm.CoordinatorID, "adaptive-sketch", q)
}

// coordTailRelay performs the coordinator's half of the tail-mass exchange
// every serverAdaptiveLocal caller needs: gather each server's ‖R_i‖F²,
// broadcast the sum.
func coordTailRelay(ctx context.Context, node Node, s int, cfg Config) error {
	tails, err := gatherAll(ctx, node, s, "tail-frob2", cfg)
	if err != nil {
		return err
	}
	total := 0.0
	for _, m := range tails {
		total += m.Scalars[0]
	}
	return broadcast(ctx, node, s, &comm.Message{Kind: "tail-total", Scalars: []float64{total}}, cfg.observer())
}

// Coordinator implements Protocol: relay the tail-mass total, stack the
// Q_i, and optionally FD-compress to the optimal O(k/ε) rows.
func (p Adaptive) Coordinator(ctx context.Context, node Node) (*Result, error) {
	s, cfg := p.Env.Servers, p.Env.Config
	if err := coordTailRelay(ctx, node, s, cfg); err != nil {
		return nil, err
	}
	msgs, err := gatherAll(ctx, node, s, "adaptive-sketch", cfg)
	if err != nil {
		return nil, err
	}
	parts := make([]*matrix.Dense, 0, s)
	for _, msg := range msgs {
		m, err := recvMatrix(msg)
		if err != nil {
			return nil, err
		}
		parts = append(parts, m)
	}
	q := matrix.Stack(parts...)
	if p.FinalCompress {
		if q, err = fd.SketchEpsK(q, p.Eps, p.K); err != nil {
			return nil, err
		}
	}
	return &Result{Sketch: q}, nil
}
