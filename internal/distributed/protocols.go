package distributed

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/fd"
	"repro/internal/matrix"
	"repro/internal/obs"
)

// Config holds options common to all sketch protocols.
type Config struct {
	// QuantStep, when positive, rounds every sketch matrix to this additive
	// precision before sending (§3.3), so costs are counted at
	// O(log(nd/ε)) bits per entry instead of full 64-bit words (use
	// comm.StepFor). 0 leaves quantization off; a negative, NaN or infinite
	// step fails Validate.
	QuantStep float64
	// WirePrecision selects the wire width of matrix payloads
	// (comm.Float64 by default). comm.Float32 halves every sketch's word
	// count: senders round entries to float32-representable values before
	// transmission, so in-memory and socket transports carry identical
	// payloads and meter identically, at an additive error bounded by
	// comm.Float32RoundTripError (charge it against the certificate like a
	// quantized leg's step). Mutually exclusive with quantization, whose
	// step accounting already covers the payload.
	WirePrecision comm.Precision
	// Seed seeds each server's private randomness (server i uses Seed+i).
	Seed int64
	// Stragglers bounds how long the coordinator waits for each server and
	// whether quorum-tolerant protocols may proceed without stragglers.
	Stragglers StragglerPolicy
	// Alpha is the FD shrink rule's α ∈ (0,1] for the fd-merge protocols:
	// the rule every leaf's streaming sketch and every merge node applies
	// (0 = 1, the classic FD shrink; see fd.Options.Alpha). Every α keeps
	// FD mergeability, with the a-priori bound ‖A‖F²/(⌈αℓ⌉+1). Protocols
	// that use FD internally as a fixed analysis step (adaptive)
	// deliberately ignore it: their guarantees are proven against the
	// default rule. α never changes metered communication — every summary
	// is still at most ℓ rows.
	Alpha float64
	// Obs is the observability sink for this run's protocol events (nil
	// falls back to the process-wide obs.Default(), which is itself nil —
	// the no-op observer — unless installed). Observation never changes
	// metered communication: word counts and transcripts are identical
	// with and without it.
	Obs *obs.Observer
}

// checkAlpha rejects an Alpha the fd-merge protocols cannot run with.
func (c Config) checkAlpha(proto string) error {
	if err := fd.CheckAlpha(c.Alpha); err != nil {
		return fmt.Errorf("distributed: %s: %w", proto, err)
	}
	return nil
}

// checkQuantStep rejects a quantization step the quantizer cannot use.
func (c Config) checkQuantStep(proto string) error {
	if c.QuantStep < 0 || math.IsNaN(c.QuantStep) || math.IsInf(c.QuantStep, 0) {
		return fmt.Errorf("distributed: %s: quantization step %v is not positive and finite", proto, c.QuantStep)
	}
	return nil
}

// observer resolves the config's observability sink: the explicit Obs, or
// the process-wide default. The result may be nil — every Observer method
// is a no-op on a nil receiver.
func (c Config) observer() *obs.Observer {
	if c.Obs != nil {
		return c.Obs
	}
	return obs.Default()
}

// sendMatrix transmits m under the config's wire policy (quantized,
// float32 or float64). A tree node's missing-leaf list rides along as Ints,
// nil when empty, so a fault-free run pays not a single extra word.
func (c Config) sendMatrix(ctx context.Context, node Node, to int, kind string, m *matrix.Dense, missing ...int) error {
	msg := &comm.Message{Kind: kind, Matrix: m}
	switch {
	case c.QuantStep > 0:
		q, err := comm.NewQuantizer(c.QuantStep).Quantize(m)
		if err != nil {
			return fmt.Errorf("distributed: quantize %s: %w", kind, err)
		}
		msg.Matrix, msg.Quantized = nil, q
	case c.WirePrecision == comm.Float32:
		// Round before handing the payload to the transport: the in-memory
		// network shares the message by pointer without encoding, so
		// rounding here keeps it value- and word-identical with the socket
		// wire format.
		msg.Matrix, msg.MatrixPrecision = comm.RoundFloat32(m), comm.Float32
	}
	if len(missing) > 0 {
		msg.Ints = make([]int64, len(missing))
		for i, leaf := range missing {
			msg.Ints[i] = int64(leaf)
		}
	}
	return node.Send(ctx, to, msg)
}

// recvMatrix extracts the matrix payload regardless of quantization.
func recvMatrix(msg *comm.Message) (*matrix.Dense, error) {
	switch {
	case msg.Matrix != nil:
		return msg.Matrix, nil
	case msg.Quantized != nil:
		return msg.Quantized.Dequantize(), nil
	default:
		return nil, fmt.Errorf("distributed: message %q carries no matrix", msg.Kind)
	}
}

func (c Config) rng(serverID int) *rand.Rand {
	return rand.New(rand.NewSource(c.Seed + int64(serverID) + 1))
}

func finish(res *Result, meter *comm.Meter) *Result {
	res.Words = meter.Words()
	res.Bits = meter.Bits()
	res.Rounds = meter.Rounds()
	res.Messages = meter.Messages()
	return res
}

// ---------------------------------------------------------------------------
// Theorem 2: deterministic FD merge.
// ---------------------------------------------------------------------------

// FDMerge is the deterministic Theorem 2 protocol: each server streams its
// rows through FD and the aggregation plan's interior merges the sketches
// with the canonical FD reduction. It is the one protocol whose gathers
// honour a straggler quorum: FD sketches merge associatively, so any node
// can proceed with a subset of its subtree, sketching the responsive
// servers' rows and reporting the absentees in Result.Missing. For the same
// reason it is the one built-in protocol that runs under a tree Topology.
// Expected communication: O(s·k·d/ε) words.
type FDMerge struct {
	Eps float64
	K   int
	Env Env
}

// Name implements Protocol.
func (p FDMerge) Name() string { return "fd-merge" }

// Estimand implements Protocol.
func (p FDMerge) Estimand() Estimand { return EstimandCovariance }

func (p FDMerge) withEnv(e Env) Protocol { p.Env = e; return p }

func (p FDMerge) env() Env { return p.Env }

func (p FDMerge) rounds() int { return 1 }

func (p FDMerge) validate() error {
	if err := checkEpsK(p.Name(), p.Eps, p.K, 0); err != nil {
		return err
	}
	return p.Env.Config.checkAlpha(p.Name())
}

// Server implements Protocol: stream the local rows through FD — one pass,
// O(d·ℓ) working space regardless of the source's size — and send the ℓ-row
// sketch to the coordinator. Sparse sources take the nnz-proportional
// update path. Under a tree plan the leaf's summary goes to its aggregator
// rather than the coordinator.
func (p FDMerge) Server(ctx context.Context, node Node, in Input) error {
	local, err := in.Covariance(p.Name())
	if err != nil {
		return err
	}
	cfg := p.Env.Config
	_, d := local.Dims()
	sk := fd.New(d, fd.SketchSize(p.Eps, p.K), fd.Options{Obs: cfg.Obs, Alpha: cfg.Alpha})
	rows, sparse, err := streamRows(local, sk.Update, sk.UpdateSparse)
	if err != nil {
		return fmt.Errorf("server %d: %w", node.ID(), err)
	}
	cfg.observer().RowsIngested(int64(rows), sparse)
	b, err := sk.Matrix()
	if err != nil {
		return fmt.Errorf("server %d: %w", node.ID(), err)
	}
	return cfg.sendMatrix(ctx, node, p.Env.parent(node.ID()), "fd-sketch", b)
}

// Coordinator implements Protocol: collect the children's summaries (the s
// local sketches under the star) and reduce them with the canonical FD
// merge, yielding an (ε,k)-sketch of A (mergeability, Theorem 2). Under a
// quorum straggler policy (Config.Stragglers.Quorum > 0) the merge proceeds
// once the quorum has reported and Result.Missing lists the absent servers —
// the sketch then covers only the responsive servers' rows. Tree runs go
// through the same gather-and-merge code with a deeper plan (WithTopology),
// so their results are bit-identical to the star's at every power-of-two
// fan-out (see fd.MergeCanonical).
func (p FDMerge) Coordinator(ctx context.Context, node Node) (*Result, error) {
	sk, missing, err := coordFDGather(ctx, node, p.Env.plan(), p.Env.Dim, fd.SketchSize(p.Eps, p.K), p.Env.Config)
	if err != nil {
		return nil, err
	}
	return &Result{Sketch: sk, Missing: missing}, nil
}

// ---------------------------------------------------------------------------
// §3.1 / Algorithm 2: SVS protocol.
// ---------------------------------------------------------------------------

// SVS is the §3.1 / Algorithm 2 randomized (α,0)-sketch protocol with the
// two-round norm calibration. The server reads its input once without
// materializing it, into a d×d Gram (O(d²) memory). Expected
// communication: O(√s·d·√log(d/δ)/α) words (quadratic g) plus the 2s
// calibration words.
type SVS struct {
	Alpha    float64
	Delta    float64
	Sampling SamplingFn
	Env      Env
}

// Name implements Protocol.
func (p SVS) Name() string { return "svs" }

// Estimand implements Protocol.
func (p SVS) Estimand() Estimand { return EstimandCovariance }

func (p SVS) withEnv(e Env) Protocol { p.Env = e; return p }

func (p SVS) env() Env { return p.Env }

func (p SVS) rounds() int { return 2 }

func (p SVS) validate() error {
	if err := checkUnit(p.Name(), "alpha", p.Alpha); err != nil {
		return err
	}
	return checkUnit(p.Name(), "delta", p.Delta)
}

// Server implements Protocol with the two-round calibration the paper
// sketches in footnote 6: send ‖A_i‖F² (one word), receive the global
// ‖A‖F² (one word), then run SVS with the shared sampling function and send
// the sampled rows. agg(A_i) depends on A_i only through A_iᵀA_i, so the
// server reads its source once into a d×d Gram and the exact row mass
// (matrix.GramAccumulator): one pass, O(d²) memory, and one d×d
// eigendecomposition (core.SVSGram).
func (p SVS) Server(ctx context.Context, node Node, in Input) error {
	rows, err := in.Covariance(p.Name())
	if err != nil {
		return err
	}
	s, alpha, delta, cfg := p.Env.Servers, p.Alpha, p.Delta, p.Env.Config
	_, d := rows.Dims()
	acc := matrix.NewGramAccumulator(d)
	n, sparse, err := streamRows(rows,
		func(row []float64) error { acc.Add(row); return nil },
		func(row *matrix.SparseVector) error { acc.AddSparse(row); return nil })
	if err != nil {
		return fmt.Errorf("server %d: %w", node.ID(), err)
	}
	cfg.observer().RowsIngested(int64(n), sparse)
	frob2, err := calibrate(ctx, node, "frob2", "frob2-total", acc.Frob2())
	if err != nil {
		return err
	}
	g := p.Sampling.Build(s, d, alpha, delta, frob2)
	b, err := core.SVSGram(acc.Gram(), n, g, cfg.rng(node.ID()))
	if err != nil {
		return fmt.Errorf("server %d SVS: %w", node.ID(), err)
	}
	cfg.observer().SVSSampled(b.Rows(), min(n, d))
	return cfg.sendMatrix(ctx, node, comm.CoordinatorID, "svs-sketch", b)
}

// Coordinator implements Protocol. The calibration round makes a partial
// merge unsound (the broadcast mass would include servers whose rows never
// arrive), so stragglers are always fail-fast here.
func (p SVS) Coordinator(ctx context.Context, node Node) (*Result, error) {
	s, cfg := p.Env.Servers, p.Env.Config
	if err := sumRound(ctx, node, s, "frob2", "frob2-total", cfg); err != nil {
		return nil, err
	}
	stacked, err := gatherStack(ctx, node, s, "svs-sketch", cfg)
	if err != nil {
		return nil, err
	}
	return &Result{Sketch: stacked}, nil
}

// ---------------------------------------------------------------------------
// Baseline [10]: distributed squared-norm row sampling.
// ---------------------------------------------------------------------------

// RowSampling is the [10] baseline: distributed squared-norm row sampling
// with m = ⌈1/ε²⌉ global samples. Cost O(s + d/ε²) words overall.
type RowSampling struct {
	Eps float64
	Env Env
}

// Name implements Protocol.
func (p RowSampling) Name() string { return "row-sampling" }

// Estimand implements Protocol.
func (p RowSampling) Estimand() Estimand { return EstimandCovariance }

func (p RowSampling) withEnv(e Env) Protocol { p.Env = e; return p }

func (p RowSampling) env() Env { return p.Env }

func (p RowSampling) rounds() int { return 2 }

func (p RowSampling) validate() error { return checkUnit(p.Name(), "eps", p.Eps) }

// Server implements Protocol: report the local mass, receive the global
// mass and this server's sample count, sample locally and send the rescaled
// rows.
//
// It runs in two streaming passes over the source — pass 1 accumulates
// ‖A_i‖F² for the calibration round, Reset, pass 2 draws the assigned count
// of rows with core.SampleStream — so working space is O(count·d)
// regardless of the local block's size. Each sampled row is rescaled by
// 1/√(m·p_global) directly against the global mass.
func (p RowSampling) Server(ctx context.Context, node Node, in Input) error {
	local, err := in.Covariance(p.Name())
	if err != nil {
		return err
	}
	cfg := p.Env.Config
	_, d := local.Dims()
	frob2 := 0.0
	rows := 0
	for row, ok := local.Next(); ok; row, ok = local.Next() {
		frob2 += matrix.Norm2(row)
		rows++
	}
	if err := local.Err(); err != nil {
		return fmt.Errorf("server %d: %w", node.ID(), err)
	}
	cfg.observer().RowsIngested(int64(rows), false)
	if err := node.Send(ctx, comm.CoordinatorID, &comm.Message{Kind: "mass", Scalars: []float64{frob2}}); err != nil {
		return err
	}
	msg, err := expectKind(ctx, node, "sample-plan")
	if err != nil {
		return err
	}
	total, count, m := msg.Scalars[0], int(msg.Ints[0]), int(msg.Ints[1])
	msg.Release()
	out := matrix.New(0, d)
	if count > 0 && frob2 > 0 {
		if err := local.Reset(); err != nil {
			return fmt.Errorf("server %d: second sampling pass: %w", node.ID(), err)
		}
		pass2 := 0
		next := func() ([]float64, bool) {
			row, ok := local.Next()
			if ok {
				pass2++
			}
			return row, ok
		}
		out = core.SampleStream(next, d, count, m, frob2, total, cfg.rng(node.ID()))
		if err := local.Err(); err != nil {
			return fmt.Errorf("server %d: %w", node.ID(), err)
		}
		cfg.observer().RowsIngested(int64(pass2), false)
	}
	return cfg.sendMatrix(ctx, node, comm.CoordinatorID, "sample-rows", out)
}

// Coordinator implements Protocol: gather masses, split the m global
// samples across servers proportionally (multinomially, seeded by
// Config.Seed), then stack the returned rows.
func (p RowSampling) Coordinator(ctx context.Context, node Node) (*Result, error) {
	s, m, cfg := p.Env.Servers, core.SampleSize(p.Eps), p.Env.Config
	vals, err := gatherScalars(ctx, node, s, "mass", cfg)
	if err != nil {
		return nil, err
	}
	total := 0.0
	for _, v := range vals {
		total += v
	}
	// The proportional split is the same multinomial walk the estimator
	// uses locally; core.MultinomialSplit handles the rounding and
	// zero-mass edge cases (a hand-rolled copy here used to drop samples).
	split := core.MultinomialSplit(vals, m, rand.New(rand.NewSource(cfg.Seed)))
	counts := make([]int64, s)
	for i, c := range split {
		counts[i] = int64(c)
	}
	for i := 0; i < s; i++ {
		if err := node.Send(ctx, i, &comm.Message{
			Kind:    "sample-plan",
			Scalars: []float64{total},
			Ints:    []int64{counts[i], int64(m)},
		}); err != nil {
			return nil, err
		}
	}
	stacked, err := gatherStack(ctx, node, s, "sample-rows", cfg)
	if err != nil {
		return nil, err
	}
	return &Result{Sketch: stacked}, nil
}
