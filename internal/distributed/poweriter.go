package distributed

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/comm"
	"repro/internal/linalg"
	"repro/internal/matrix"
	"repro/internal/pca"
)

// Distributed orthogonal (block power) iteration — the second batch PCA
// solver named in DESIGN.md's substitution table. Unlike the one-shot
// subspace-embedding solve, it is iterative: each round the coordinator
// broadcasts the current d×k iterate V_t, every server returns its local
// Gram action G_i = A_iᵀ(A_i·V_t), and the coordinator orthonormalizes the
// sum. Communication is 2·s·d·k words per round; rounds trade directly
// against accuracy (the error decays with the spectral gap), which gives
// the benchmarks a rounds-vs-words-vs-quality knob no other protocol has.

// PowerIterParams parameterizes the iterative solver.
type PowerIterParams struct {
	// K is the subspace dimension.
	K int
	// Rounds is the number of power iterations (default 8).
	Rounds int
	// Seed seeds the coordinator's random start.
	Seed int64
}

// check rejects a subspace dimension below 1.
func (p PowerIterParams) check(proto string) error {
	if p.K < 1 {
		return fmt.Errorf("distributed: %s needs k ≥ 1, got %d", proto, p.K)
	}
	return nil
}

// withDefaults fills the optional fields; like PCAParams.withDefaults it
// panics on parameters check rejects when a role is driven directly.
func (p PowerIterParams) withDefaults() PowerIterParams {
	if err := p.check("power iteration"); err != nil {
		panic(err.Error())
	}
	if p.Rounds <= 0 {
		p.Rounds = 8
	}
	return p
}

// serverPowerIter is the server side, run against the raw block
// (PowerIteration) or the local sketch Q_i (PCACombinedPowerIter): for each
// round, receive V, respond with A_iᵀ(A_i·V). A "done" broadcast ends the
// loop.
func serverPowerIter(ctx context.Context, node Node, local *matrix.Dense) error {
	for {
		msg, err := node.Recv(ctx)
		if err != nil {
			return err
		}
		switch msg.Kind {
		case "pi-done":
			return nil
		case "pi-v":
			v, err := recvMatrix(msg)
			if err != nil {
				return err
			}
			g := local.TMul(local.Mul(v)) // d×k
			if err := node.Send(ctx, comm.CoordinatorID, &comm.Message{Kind: "pi-g", Matrix: g}); err != nil {
				return err
			}
		default:
			return fmt.Errorf("distributed: power-iteration server got %q", msg.Kind)
		}
	}
}

// PowerIteration is the iterative solver run on the raw partition. Cost:
// 2·s·d·k·rounds words (+ s end-of-loop signals); quality improves with
// rounds as the power method converges.
type PowerIteration struct {
	PowerIterParams
	Env Env
}

// Name implements Protocol.
func (p PowerIteration) Name() string { return "pca-power-iteration" }

func (p PowerIteration) withEnv(e Env) Protocol { p.Env = e; return p }

func (p PowerIteration) rounds() int { return p.PowerIterParams.withDefaults().Rounds }

func (p PowerIteration) validate() error { return p.PowerIterParams.check(p.Name()) }

// Estimand implements Protocol.
func (p PowerIteration) Estimand() Estimand { return EstimandCovariance }

// Server implements Protocol.
func (p PowerIteration) Server(ctx context.Context, node Node, in Input) error {
	// The iterative solver multiplies the local block every round, so the
	// source is materialized (documented O(n_i·d) server memory).
	local, err := materializeLocal(node, in, p.Name(), p.Env.Config)
	if err != nil {
		return err
	}
	return serverPowerIter(ctx, node, local)
}

// Coordinator implements Protocol: drive the iteration and return the d×k
// orthonormal iterate after the configured rounds.
func (p PowerIteration) Coordinator(ctx context.Context, node Node) (*Result, error) {
	s, d, cfg := p.Env.Servers, p.Env.Dim, p.Env.Config
	p.PowerIterParams = p.PowerIterParams.withDefaults()
	rng := rand.New(rand.NewSource(p.Seed + 0x90a3))
	v := matrix.New(d, p.K)
	for i := 0; i < d; i++ {
		for j := 0; j < p.K; j++ {
			v.Set(i, j, rng.NormFloat64())
		}
	}
	v = linalg.OrthonormalizeColumns(v, 0)
	for round := 0; round < p.Rounds; round++ {
		if err := broadcast(ctx, node, s, &comm.Message{Kind: "pi-v", Matrix: v}, cfg.observer()); err != nil {
			return nil, err
		}
		msgs, err := gatherAll(ctx, node, s, "pi-g", cfg)
		if err != nil {
			return nil, err
		}
		sum := matrix.New(d, p.K)
		for _, msg := range msgs {
			g, err := recvMatrix(msg)
			if err != nil {
				return nil, err
			}
			sum = sum.Add(g)
		}
		next := linalg.OrthonormalizeColumns(sum, 0)
		if next.Cols() < p.K {
			// Rank deficiency (input rank < k): pad with fresh random
			// directions so the iterate keeps k columns.
			pad := matrix.New(d, p.K)
			for j := 0; j < next.Cols(); j++ {
				pad.SetCol(j, next.Col(j))
			}
			for j := next.Cols(); j < p.K; j++ {
				col := make([]float64, d)
				for i := range col {
					col[i] = rng.NormFloat64()
				}
				pad.SetCol(j, col)
			}
			next = linalg.OrthonormalizeColumns(pad, 0)
		}
		v = next
	}
	if err := broadcast(ctx, node, s, &comm.Message{Kind: "pi-done"}, cfg.observer()); err != nil {
		return nil, err
	}
	return &Result{PCs: v}, nil
}

// PCACombinedPowerIter is Theorem 9 with the iterative solver: servers
// compute their adaptive sketch blocks Q_i (2 words each) and the power
// iteration runs on the distributed sketch. Per-round cost is identical to
// the raw-data variant (the iterate is d×k either way) but each server's
// matrix-vector work shrinks from n_i to rows(Q_i); the PCA guarantee
// follows from Lemma 8 once the iteration has converged on Q.
type PCACombinedPowerIter struct {
	// Eps is the sketch approximation target (the blocks are (ε/2,k)).
	Eps float64
	PowerIterParams
	Env Env
}

// Name implements Protocol.
func (p PCACombinedPowerIter) Name() string { return "pca-combined-power-iteration" }

func (p PCACombinedPowerIter) withEnv(e Env) Protocol { p.Env = e; return p }

// rounds preserves the historical accounting of this pipeline, in which the
// coordinator roles own no round increments of their own: the raw-data
// variant's count comes from PowerIteration.rounds, and this combined
// variant has always reported 0 extra rounds beyond the meter's defaults.
func (p PCACombinedPowerIter) rounds() int { return 0 }

func (p PCACombinedPowerIter) validate() error {
	if err := checkUnit(p.Name(), "eps", p.Eps); err != nil {
		return err
	}
	return p.PowerIterParams.check(p.Name())
}

// Estimand implements Protocol.
func (p PCACombinedPowerIter) Estimand() Estimand { return EstimandCovariance }

// Server implements Protocol.
func (p PCACombinedPowerIter) Server(ctx context.Context, node Node, in Input) error {
	local, err := in.Covariance(p.Name())
	if err != nil {
		return err
	}
	ap := AdaptiveParams{Eps: p.Eps / 2, K: p.PowerIterParams.withDefaults().K}
	q, err := serverAdaptiveLocal(ctx, node, local, p.Env.Servers, ap, p.Env.Config)
	if err != nil {
		return err
	}
	return serverPowerIter(ctx, node, q)
}

// Coordinator implements Protocol: relay the tail-mass total, then run the
// PowerIteration coordinator against the servers' local sketches.
func (p PCACombinedPowerIter) Coordinator(ctx context.Context, node Node) (*Result, error) {
	if err := coordTailRelay(ctx, node, p.Env.Servers, p.Env.Config); err != nil {
		return nil, err
	}
	return PowerIteration{PowerIterParams: p.PowerIterParams, Env: p.Env}.Coordinator(ctx, node)
}

// QualityAfterRounds sweeps the rounds knob and returns the measured PCA
// ratio per round count — the convergence curve the benchmarks plot. seed
// seeds both the run and the coordinator's random start.
func QualityAfterRounds(ctx context.Context, parts []*matrix.Dense, a *matrix.Dense, k int, rounds []int, seed int64) ([]float64, []float64, error) {
	ratios := make([]float64, 0, len(rounds))
	words := make([]float64, 0, len(rounds))
	for _, r := range rounds {
		res, err := Run(ctx, PowerIteration{PowerIterParams: PowerIterParams{K: k, Rounds: r, Seed: seed}}, parts, WithSeed(seed))
		if err != nil {
			return nil, nil, err
		}
		q, err := pca.QualityRatio(a, res.PCs, k)
		if err != nil {
			return nil, nil, err
		}
		ratios = append(ratios, q)
		words = append(words, res.Words)
	}
	return ratios, words, nil
}
