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
	Sampling      SamplingFn
	FinalCompress bool
}

// adaptiveDelta is the failure probability δ the Theorem 7 sketch sizes its
// SVS tail sample for.
const adaptiveDelta = 0.1

// check rejects parameters outside the Theorem 7 ranges: ε in (0,1) and
// k ≥ 1 (the tail is sampled at α = ε/k).
func (p AdaptiveParams) check(proto string) error { return checkEpsK(proto, p.Eps, p.K, 1) }

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
	tailTotal, err := calibrate(ctx, node, "tail-frob2", "tail-total", r.Frob2())
	if err != nil {
		return nil, err
	}
	alpha := p.Eps / float64(p.K)
	if alpha >= 1 {
		alpha = 0.999999
	}
	g := p.Sampling.Build(s, d, alpha, adaptiveDelta, tailTotal)
	w, err := core.SVS(r, g, cfg.rng(node.ID()))
	if err != nil {
		return nil, fmt.Errorf("server %d SVS: %w", node.ID(), err)
	}
	cfg.observer().SVSSampled(w.Rows(), min(r.Rows(), r.Cols())) // candidates: r's singular triples
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

// Coordinator implements Protocol: relay the tail-mass total, stack the
// Q_i, and optionally FD-compress to the optimal O(k/ε) rows.
func (p Adaptive) Coordinator(ctx context.Context, node Node) (*Result, error) {
	if err := sumRound(ctx, node, p.Env.Servers, "tail-frob2", "tail-total", p.Env.Config); err != nil {
		return nil, err
	}
	q, err := gatherStack(ctx, node, p.Env, "adaptive-sketch")
	if err != nil {
		return nil, err
	}
	if p.FinalCompress {
		if q, err = fd.SketchEpsK(q, p.Eps, p.K); err != nil {
			return nil, err
		}
	}
	return &Result{Sketch: q}, nil
}
