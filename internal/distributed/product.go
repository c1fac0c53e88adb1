package distributed

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/matrix"
)

// CoordinatedProduct is the first product-estimand client of the workload
// seam: coordinated priority-sampling estimation of AᵀB ("Matrix Product
// Sketching via Coordinated Sampling", Daliri–Freire–Li–Musco 2025) over the
// paper's distributed model. Every server hashes its rows' global indices
// with the run's shared seed, keeps the SampleSize+1 highest-priority rows
// of its A shard and of its B shard, and ships them with its local squared
// Frobenius norms; the coordinator merges the candidates, recovers the
// global priority thresholds, and combines the samples' intersection into an
// unbiased estimate with an a-priori error certificate
// (core.ProductCertificate). One round, no broadcast.
//
// Communication is dominated by the kept rows' nonzeros, not by d_A·d_B or
// the full row count — on sparse inputs that undercuts shipping sketches of
// the stacked [A|B] matrix, which is exactly what the C1 benchmark meters.
// Each sample message is encoded sparse (96 bits per row + 96 per nonzero)
// or dense (64 bits per entry + 64 per row ID), whichever is cheaper by
// exact bit count, so in-memory and TCP runs meter identically.
type CoordinatedProduct struct {
	// SampleSize is the target sample size s (≥ 2); the certificate decays
	// as 1/√(s−1) and each server ships at most 2·(s+1) rows.
	SampleSize int
	Env        Env
}

// Name implements Protocol.
func (p CoordinatedProduct) Name() string { return "coord-product" }

// Estimand implements Protocol.
func (p CoordinatedProduct) Estimand() Estimand { return EstimandProduct }

func (p CoordinatedProduct) withEnv(e Env) Protocol { p.Env = e; return p }

func (p CoordinatedProduct) env() Env { return p.Env }

func (p CoordinatedProduct) rounds() int { return 1 }

func (p CoordinatedProduct) validate() error {
	if p.SampleSize < 2 {
		return fmt.Errorf("distributed: coord-product needs SampleSize ≥ 2, got %d", p.SampleSize)
	}
	return nil
}

// rejectSketchOptions guards both party roles against the matrix-sketch wire
// options: a sample of rows is not a sketch, so quantization and float32
// rounding would silently change the estimand's value (the estimate is built
// from exact row values) rather than trade precision for words.
func rejectSketchOptions(cfg Config) error {
	if cfg.QuantStep > 0 {
		return fmt.Errorf("distributed: coord-product ships sample rows, not matrix sketches: quantization is not supported (drop WithQuantization)")
	}
	if cfg.WirePrecision == comm.Float32 {
		return fmt.Errorf("distributed: coord-product ships sample rows, not matrix sketches: float32 wire precision is not supported (drop WithWirePrecision)")
	}
	return nil
}

// Server implements Protocol: two streaming passes (one per shard), then two
// messages to the coordinator — "ps-a" and "ps-b" — each carrying the
// shard's exact squared Frobenius norm (one word) plus the kept rows.
func (p CoordinatedProduct) Server(ctx context.Context, node Node, in Input) error {
	a, b, offset, err := in.Product(p.Name())
	if err != nil {
		return err
	}
	cfg := p.Env.Config
	if err := rejectSketchOptions(cfg); err != nil {
		return err
	}
	if err := p.validate(); err != nil {
		return err
	}
	// The shared seed must be identical on every server — cfg.Seed itself,
	// not the per-server private stream rng(id) — or the samples decorrelate
	// and the intersection collapses.
	keep := p.SampleSize + 1
	psA, frobA2, rowsA, sparseA, err := sampleProductShard(a, offset, cfg.Seed, keep)
	if err != nil {
		return fmt.Errorf("server %d: %w", node.ID(), err)
	}
	psB, frobB2, rowsB, sparseB, err := sampleProductShard(b, offset, cfg.Seed, keep)
	if err != nil {
		return fmt.Errorf("server %d: %w", node.ID(), err)
	}
	if rowsA != rowsB {
		return fmt.Errorf("distributed: coord-product: server %d's product shards are misaligned: A delivered %d rows, B %d", node.ID(), rowsA, rowsB)
	}
	cfg.observer().RowsIngested(int64(rowsA+rowsB), sparseA && sparseB)
	_, dA := a.Dims()
	_, dB := b.Dims()
	if err := node.Send(ctx, comm.CoordinatorID, sampleMessage("ps-a", frobA2, psA.Rows(), dA)); err != nil {
		return err
	}
	return node.Send(ctx, comm.CoordinatorID, sampleMessage("ps-b", frobB2, psB.Rows(), dB))
}

// sampleProductShard streams one shard through a priority sampler under the
// shared seed: global row j of the shard is offset+j. Returns the sampler,
// the shard's exact squared Frobenius norm, its row count, and whether the
// nnz-proportional path ran.
func sampleProductShard(src RowSource, offset int, seed int64, keep int) (ps *core.PrioritySampler, frob2 float64, rows int, sparse bool, err error) {
	// Rewind first: callers may reuse an Input slice across runs, and a
	// source left at EOF by the previous run would otherwise yield an empty
	// sample (and a silently zero estimate) instead of the answer.
	if err = src.Reset(); err != nil {
		return nil, 0, 0, false, err
	}
	ps = core.NewPrioritySampler(seed, keep)
	next := int64(offset)
	rows, sparse, err = streamRows(src,
		func(row []float64) error {
			v := matrix.SparseFromDense(row, 0)
			frob2 += v.Norm2()
			ps.Offer(next, v)
			next++
			return nil
		},
		func(v *matrix.SparseVector) error {
			frob2 += v.Norm2()
			ps.Offer(next, v)
			next++
			return nil
		})
	return ps, frob2, rows, sparse, err
}

// sampleMessage packs one side's kept rows into a message, choosing the
// sparse SampleRows payload or the dense Matrix+IDs payload by exact metered
// bit count (ties go dense). The choice depends only on the sample itself,
// so in-memory and socket transports meter identically.
func sampleMessage(kind string, frob2 float64, kept []core.SampledRow, d int) *comm.Message {
	nnz := 0
	for _, r := range kept {
		nnz += r.Vec.NNZ()
	}
	msg := &comm.Message{Kind: kind, Scalars: []float64{frob2}}
	sparseBits := comm.SampleRowsBits(len(kept), nnz)
	denseBits := int64(64) * int64(len(kept)) * int64(d+1) // entries + one ID word per row
	if sparseBits < denseBits {
		s := comm.NewSampleRows(d)
		for _, r := range kept {
			s.AppendRow(r.Index, r.Vec)
		}
		msg.Samples = s
		return msg
	}
	m := matrix.New(len(kept), d)
	ids := make([]int64, len(kept))
	for i, r := range kept {
		r.Vec.AddTo(m.Row(i), 1)
		ids[i] = r.Index
	}
	msg.Matrix = m
	msg.Ints = ids
	return msg
}

// decodeSample rebuilds a message's sampled rows, recomputing norms and
// priorities from the shared seed (they are derived data, never shipped).
// All returned vectors are freshly allocated — safe after msg.Release.
func decodeSample(msg *comm.Message, d int, seed int64) ([]core.SampledRow, error) {
	switch {
	case msg.Samples != nil:
		s := msg.Samples
		if s.Cols != d {
			return nil, fmt.Errorf("distributed: %q sample has %d columns, want %d", msg.Kind, s.Cols, d)
		}
		out := make([]core.SampledRow, s.Rows())
		for i := range out {
			id, vec := s.RowVec(i)
			n2 := vec.Norm2()
			out[i] = core.SampledRow{Index: id, Norm2: n2, Priority: n2 / core.SharedUniform(seed, id), Vec: vec}
		}
		return out, nil
	case msg.Matrix != nil:
		r, c := msg.Matrix.Dims()
		if c != d {
			return nil, fmt.Errorf("distributed: %q sample has %d columns, want %d", msg.Kind, c, d)
		}
		if len(msg.Ints) != r {
			return nil, fmt.Errorf("distributed: %q sample has %d rows but %d row IDs", msg.Kind, r, len(msg.Ints))
		}
		out := make([]core.SampledRow, r)
		for i := range out {
			id := msg.Ints[i]
			vec := matrix.SparseFromDense(msg.Matrix.Row(i), 0)
			n2 := vec.Norm2()
			out[i] = core.SampledRow{Index: id, Norm2: n2, Priority: n2 / core.SharedUniform(seed, id), Vec: vec}
		}
		return out, nil
	default:
		return nil, fmt.Errorf("distributed: %q message carries no sample payload", msg.Kind)
	}
}

// Coordinator implements Protocol: one strict gather of two messages per
// server (the A sample and the B sample, in either arrival order), then the
// combine step and its certificate. Every server must respond — a partial
// sample union could miss the global threshold rows, so quorum policies are
// rejected up front.
func (p CoordinatedProduct) Coordinator(ctx context.Context, node Node) (*Result, error) {
	s, dA, dB := p.Env.Servers, p.Env.Dim, p.Env.DimB
	cfg := p.Env.Config
	if err := rejectSketchOptions(cfg); err != nil {
		return nil, err
	}
	if dA <= 0 || dB <= 0 {
		return nil, fmt.Errorf("distributed: coord-product coordinator needs Env.Dim and Env.DimB (have %d, %d)", dA, dB)
	}
	var candA, candB []core.SampledRow
	// Per-server scalar slots, summed in server order after the gather:
	// float addition is not associative, so accumulating in arrival order
	// would make the certificate depend on goroutine scheduling.
	frobA2s := make([]float64, s)
	frobB2s := make([]float64, s)
	seen := make(map[int]int, s)
	const gotA, gotB = 1, 2
	_, err := gatherFrom(ctx, node, cfg, gatherSpec{Label: "product-sample", Peers: serverPeers(s), Each: 2}, func(msg *comm.Message) error {
		defer msg.Release()
		var side int
		var d int
		switch msg.Kind {
		case "ps-a":
			side, d = gotA, dA
		case "ps-b":
			side, d = gotB, dB
		default:
			return fmt.Errorf("distributed: expected \"ps-a\" or \"ps-b\" message, got %q from %d", msg.Kind, msg.From)
		}
		if seen[msg.From]&side != 0 {
			return fmt.Errorf("distributed: duplicate %q message from %d", msg.Kind, msg.From)
		}
		seen[msg.From] |= side
		if len(msg.Scalars) != 1 {
			return fmt.Errorf("distributed: %q message from %d carries %d scalars, want 1 (the shard's squared Frobenius norm)", msg.Kind, msg.From, len(msg.Scalars))
		}
		rows, err := decodeSample(msg, d, cfg.Seed)
		if err != nil {
			return err
		}
		if side == gotA {
			frobA2s[msg.From] = msg.Scalars[0]
			candA = append(candA, rows...)
		} else {
			frobB2s[msg.From] = msg.Scalars[0]
			candB = append(candB, rows...)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Canonical global-index order before combining: message arrival order is
	// nondeterministic, and float accumulation is not associative, so without
	// this sort the same run could produce last-bit-different estimates.
	sort.Slice(candA, func(i, j int) bool { return candA[i].Index < candA[j].Index })
	sort.Slice(candB, func(i, j int) bool { return candB[i].Index < candB[j].Index })
	est, err := core.CoordinatedEstimate(candA, candB, p.SampleSize, dA, dB)
	if err != nil {
		return nil, err
	}
	var frobA2, frobB2 float64
	for i := 0; i < s; i++ {
		frobA2 += frobA2s[i]
		frobB2 += frobB2s[i]
	}
	return &Result{
		Product:     est,
		Certificate: core.ProductCertificate(p.SampleSize, math.Sqrt(frobA2), math.Sqrt(frobB2)),
	}, nil
}
