package distributed

import (
	"context"
	"fmt"
	"math"

	"repro/internal/comm"
	"repro/internal/matrix"
	"repro/internal/pca"
)

// PCAParams parameterizes the batch-solve PCA protocols of §4, BWZ and
// PCACombined. SketchPCA takes its accuracy from the sketch it wraps.
type PCAParams struct {
	// K is the number of principal components.
	K int
	// Eps is the target (1+ε) approximation factor.
	Eps float64
	// EmbeddingRows overrides the subspace-embedding size m of the batch
	// solve (default ⌈4k/ε²⌉ capped below by 4k+8 — the theory wants
	// Θ(k/ε²)). Only tests set it: to force the dense or the sparse
	// CountSketch wire form, and to size small instances.
	EmbeddingRows int
}

// check rejects parameters outside the §4 ranges: k ≥ 1 and ε in (0,1).
func (p PCAParams) check(proto string) error { return checkEpsK(proto, p.Eps, p.K, 1) }

// withDefaults fills the optional fields. Run rejects bad parameters up
// front (validate); a role driven directly — role by role over TCP — panics
// here instead, in its caller's goroutine.
func (p PCAParams) withDefaults() PCAParams {
	if err := p.check("PCA"); err != nil {
		panic(err.Error())
	}
	if p.EmbeddingRows == 0 {
		m := int(math.Ceil(4 * float64(p.K) / (p.Eps * p.Eps)))
		if lo := 4*p.K + 8; m < lo {
			m = lo
		}
		p.EmbeddingRows = m
	}
	return p
}

// adaptive parameterizes the Theorem 7 (ε/2,k)-sketch PCACombined builds
// first.
func (p PCAParams) adaptive() AdaptiveParams {
	return AdaptiveParams{Eps: p.Eps / 2, K: p.K}
}

// ---------------------------------------------------------------------------
// Theorem 9, plain form: PCA as a query over a covariance sketch.
// ---------------------------------------------------------------------------

// SketchPCA runs a covariance protocol and answers PCA from its output at
// the coordinator: by Lemma 8 the top-k right singular vectors of an
// (ε/2,k)-sketch of A are (1+O(ε))-approximate principal components. The
// caller builds the inner sketch at ε/2:
//
//	SketchPCA{Sketch: Adaptive{…ε/2, k…}, K: k}  // Theorem 9: O(sdk + √s·kd·√log d/ε) words
//	SketchPCA{Sketch: FDMerge{ε/2, k}, K: k}     // the pre-[5] baseline [22]: O(sdk/ε) words
//
// The wrapper sends exactly the inner protocol's messages. It owns Env and
// installs it on the inner protocol, so a TCP caller sets Env once. PCA
// needs every server's sketch, so a straggler quorum is rejected up front.
type SketchPCA struct {
	Sketch Protocol
	K      int
	Env    Env
}

// Name implements Protocol: "pca-" plus the inner protocol's name.
func (p SketchPCA) Name() string {
	if p.Sketch == nil {
		return "pca"
	}
	return "pca-" + p.Sketch.Name()
}

// Estimand implements Protocol.
func (p SketchPCA) Estimand() Estimand { return EstimandCovariance }

func (p SketchPCA) withEnv(e Env) Protocol {
	p.Env = e
	if p.Sketch != nil {
		p.Sketch = p.Sketch.withEnv(e)
	}
	return p
}

func (p SketchPCA) env() Env { return p.Env }

// inner is the wrapped protocol in the wrapper's Env.
func (p SketchPCA) inner() Protocol { return p.Sketch.withEnv(p.Env) }

func (p SketchPCA) rounds() int { return p.inner().rounds() }

func (p SketchPCA) validate() error {
	switch {
	case p.Sketch == nil:
		return fmt.Errorf("distributed: %s needs a covariance Sketch protocol, got nil", p.Name())
	case p.Sketch.Estimand() != EstimandCovariance:
		return fmt.Errorf("distributed: %s needs a covariance Sketch protocol, %s estimates %v", p.Name(), p.Sketch.Name(), p.Sketch.Estimand())
	case p.K < 1:
		return fmt.Errorf("distributed: %s needs k ≥ 1, got %d", p.Name(), p.K)
	}
	if err := rejectQuorum(p.Env.Config, p.Name()); err != nil {
		return err
	}
	return p.inner().validate()
}

// Server implements Protocol: the inner server.
func (p SketchPCA) Server(ctx context.Context, node Node, in Input) error {
	return p.inner().Server(ctx, node, in)
}

// Coordinator implements Protocol: the inner coordinator, then the top-k
// right singular vectors of its sketch.
func (p SketchPCA) Coordinator(ctx context.Context, node Node) (*Result, error) {
	res, err := p.inner().Coordinator(ctx, node)
	if err != nil {
		return nil, err
	}
	if res.PCs, err = pca.SketchPCs(res.Sketch, p.K); err != nil {
		return nil, err
	}
	return res, nil
}

// ---------------------------------------------------------------------------
// Batch solve baseline (stand-in for Boutsidis–Woodruff–Zhong [5]).
// ---------------------------------------------------------------------------

// serverBWZSolve is the server side of the subspace-embedding batch PCA
// solve, run against an arbitrary local matrix (raw rows for BWZ, the local
// sketch Q_i for PCACombined):
//
//	Round 1: send the local row count; receive the global row offset.
//	Round 2: send Y_i = S·A_i restricted to this server's rows — directly
//	         (m×d) when d ≤ m, or column-compressed W_i = Y_i·Rᵀ (m×m)
//	         when d > m (the min{d, k/ε²} case split of [5]).
//	Round 3 (only when d > m): receive Ũ (m×k), send G_i = Ũᵀ·Y_i (k×d).
//
// When the local input has fewer rows than the embedding (n_i < m) the
// server ships its rows compactly — bucket indices plus signed rows — for
// n_i·(d+1) words instead of m·d. This is Theorem 8's min{n, sk/ε²} factor,
// and it is exactly what makes the Theorem 9 combined algorithm cheap: its
// local inputs are sketches with O(k/ε)·√s-ish rows, far below m = Θ(k/ε²).
func serverBWZSolve(ctx context.Context, node Node, local *matrix.Dense, p PCAParams, cfg Config) error {
	if err := node.Send(ctx, comm.CoordinatorID, &comm.Message{Kind: "nrows", Ints: []int64{int64(local.Rows())}}); err != nil {
		return err
	}
	off, err := expectKind(ctx, node, "row-offset")
	if err != nil {
		return err
	}
	offset := int(off.Ints[0])
	off.Release()
	d := local.Cols()
	m := p.EmbeddingRows
	sk := pca.NewCountSketch(cfg.Seed^0x5ca1ab1e, m)
	if d <= m {
		if local.Rows() < m {
			buckets, signed := sparseCountSketch(sk, local, offset)
			return node.Send(ctx, comm.CoordinatorID, &comm.Message{Kind: "bwz-y-sparse", Ints: buckets, Matrix: signed})
		}
		return cfg.sendMatrix(ctx, node, comm.CoordinatorID, "bwz-y", sk.ApplyRows(local, offset))
	}
	y := sk.ApplyRows(local, offset)
	colSk := pca.NewCountSketch(cfg.Seed^0xc0152a9, m)
	if local.Rows() < m {
		// Sparse form of W_i = Y_i·Rᵀ: ship the column-compressed rows with
		// their buckets; the coordinator scatters and sums.
		buckets, signed := sparseCountSketch(sk, local, offset)
		wRows := colSk.ApplyColumns(signed) // n_i×m
		if err := node.Send(ctx, comm.CoordinatorID, &comm.Message{Kind: "bwz-w-sparse", Ints: buckets, Matrix: wRows}); err != nil {
			return err
		}
	} else {
		if err := cfg.sendMatrix(ctx, node, comm.CoordinatorID, "bwz-w", colSk.ApplyColumns(y)); err != nil {
			return err
		}
	}
	uMsg, err := expectKind(ctx, node, "bwz-u")
	if err != nil {
		return err
	}
	u, err := recvMatrix(uMsg)
	if err != nil {
		return err
	}
	g := u.TMul(y) // k×d
	uMsg.Release()
	return cfg.sendMatrix(ctx, node, comm.CoordinatorID, "bwz-g", g)
}

// sparseCountSketch returns, for each local row, its CountSketch bucket and
// the sign-applied row — the compact wire form used when n_i < m.
func sparseCountSketch(sk *pca.CountSketch, local *matrix.Dense, offset int) ([]int64, *matrix.Dense) {
	n, d := local.Dims()
	buckets := make([]int64, n)
	signed := matrix.New(n, d)
	for r := 0; r < n; r++ {
		b, sign := sk.BucketSign(offset + r)
		buckets[r] = int64(b)
		row := signed.Row(r)
		for j, v := range local.Row(r) {
			row[j] = sign * v
		}
	}
	return buckets, signed
}

// scatterSparse accumulates a sparse-form CountSketch message into the m×d
// (or m×m) frame.
func scatterSparse(frame *matrix.Dense, buckets []int64, rows *matrix.Dense) error {
	if len(buckets) != rows.Rows() {
		return fmt.Errorf("distributed: sparse scatter mismatch: %d buckets, %d rows", len(buckets), rows.Rows())
	}
	m := frame.Rows()
	for r, b := range buckets {
		if b < 0 || int(b) >= m {
			return fmt.Errorf("distributed: sparse bucket %d out of range %d", b, m)
		}
		matrix.AxpyVec(frame.Row(int(b)), 1, rows.Row(r))
	}
	return nil
}

// coordBWZBody is the coordinator side of rounds 2–3; d is the column
// dimension of the inputs. Returns the d×k approximate PCs.
func coordBWZBody(ctx context.Context, node Node, s, d int, p PCAParams, cfg Config) (*matrix.Dense, error) {
	m := p.EmbeddingRows
	if d <= m {
		y := matrix.New(m, d)
		if err := gatherEmbedded(ctx, node, s, "bwz-y", y, cfg); err != nil {
			return nil, err
		}
		return pca.TopKRightSV(y, p.K)
	}
	// Two-sided regime: W = S·A·Rᵀ, take its top-k left singular vectors Ũ,
	// then G = Ũᵀ·S·A (assembled from the servers' G_i) and V = top-k right
	// singular vectors of G.
	w := matrix.New(m, m)
	if err := gatherEmbedded(ctx, node, s, "bwz-w", w, cfg); err != nil {
		return nil, err
	}
	// Left singular vectors of W = right singular vectors of Wᵀ.
	u, err := pca.TopKRightSV(w.T(), p.K)
	if err != nil {
		return nil, err
	}
	if err := broadcast(ctx, node, s, &comm.Message{Kind: "bwz-u", Matrix: u}, cfg.observer()); err != nil {
		return nil, err
	}
	gs, err := gatherAll(ctx, node, s, "bwz-g", cfg)
	if err != nil {
		return nil, err
	}
	g := matrix.New(u.Cols(), d)
	for _, msg := range gs {
		mm, err := recvMatrix(msg)
		if err != nil {
			return nil, err
		}
		if r, c := mm.Dims(); r != u.Cols() || c != d {
			return nil, fmt.Errorf("distributed: \"bwz-g\" payload from %d is %d×%d, want %d×%d", msg.From, r, c, u.Cols(), d)
		}
		g = g.Add(mm)
		msg.Release()
	}
	return pca.TopKRightSV(g, p.K)
}

// gatherEmbedded receives one embedding message per server — dense
// ("<kind>") or sparse ("<kind>-sparse", bucket indices + signed rows) —
// and accumulates all of them into frame.
func gatherEmbedded(ctx context.Context, node Node, s int, kind string, frame *matrix.Dense, cfg Config) error {
	_, err := gatherFrom(ctx, node, cfg, gatherSpec{Label: kind, Peers: serverPeers(s)}, func(msg *comm.Message) error {
		switch msg.Kind {
		case kind:
			mm, err := recvMatrix(msg)
			if err != nil {
				return err
			}
			fr, fc := frame.Dims()
			if r, c := mm.Dims(); r != fr || c != fc {
				return fmt.Errorf("distributed: %q payload is %d×%d, want %d×%d", kind, r, c, fr, fc)
			}
			dst := frame.Data()
			for i, v := range mm.Data() {
				dst[i] += v
			}
			msg.Release()
			return nil
		case kind + "-sparse":
			mm, err := recvMatrix(msg)
			if err != nil {
				return err
			}
			if err := scatterSparse(frame, msg.Ints, mm); err != nil {
				return err
			}
			msg.Release()
			return nil
		default:
			return fmt.Errorf("distributed: expected %q message, got %q from %d", kind, msg.Kind, msg.From)
		}
	})
	return err
}

// BWZ is the batch baseline on the raw partitioned input — the Table 2
// "[5]" row, cost O(skd + s·(k/ε²)·min{d, k/ε²}) words.
type BWZ struct {
	PCAParams
	Env Env
}

// Name implements Protocol.
func (p BWZ) Name() string { return "bwz" }

func (p BWZ) withEnv(e Env) Protocol { p.Env = e; return p }

func (p BWZ) env() Env { return p.Env }

func (p BWZ) rounds() int { return 2 }

func (p BWZ) validate() error { return p.PCAParams.check(p.Name()) }

// Estimand implements Protocol.
func (p BWZ) Estimand() Estimand { return EstimandCovariance }

// Server implements Protocol.
func (p BWZ) Server(ctx context.Context, node Node, in Input) error {
	local, err := materializeLocal(node, in, p.Name(), p.Env.Config)
	if err != nil {
		return err
	}
	return serverBWZSolve(ctx, node, local, p.PCAParams.withDefaults(), p.Env.Config)
}

// Coordinator implements Protocol: answer the row-count round with each
// server's global row offset, then run the solve.
func (p BWZ) Coordinator(ctx context.Context, node Node) (*Result, error) {
	pp := p.PCAParams.withDefaults()
	s, cfg := p.Env.Servers, p.Env.Config
	counts, err := gatherAll(ctx, node, s, "nrows", cfg)
	if err != nil {
		return nil, err
	}
	offset := int64(0)
	for i := 0; i < s; i++ {
		if err := node.Send(ctx, i, &comm.Message{Kind: "row-offset", Ints: []int64{offset}}); err != nil {
			return nil, err
		}
		offset += counts[i].Ints[0]
		counts[i].Release()
	}
	v, err := coordBWZBody(ctx, node, s, p.Env.Dim, pp, cfg)
	if err != nil {
		return nil, err
	}
	return &Result{PCs: v}, nil
}

// ---------------------------------------------------------------------------
// Theorem 9, combined form: local sketches + distributed batch solve.
// ---------------------------------------------------------------------------

// PCACombined is the full Theorem 9 pipeline: every server computes its
// adaptive sketch block Q_i (communication: 2 words each), keeps it local,
// and the batch solve runs on the distributed sketch Q = [Q_1;…;Q_s]. By
// Lemma 8 the resulting V is a (1+O(ε))-approximate answer for A. Cost:
// O(skd + √s·k·√log d/ε · min{d, k/ε²}) words — the Table 2 "New" row; the
// pipeline stays one-pass streaming because [Q_i] are built by FD.
type PCACombined struct {
	PCAParams
	Env Env
}

// Name implements Protocol.
func (p PCACombined) Name() string { return "pca-combined" }

func (p PCACombined) withEnv(e Env) Protocol { p.Env = e; return p }

func (p PCACombined) env() Env { return p.Env }

func (p PCACombined) rounds() int { return 4 }

func (p PCACombined) validate() error { return p.PCAParams.check(p.Name()) }

// Estimand implements Protocol.
func (p PCACombined) Estimand() Estimand { return EstimandCovariance }

// Server implements Protocol.
func (p PCACombined) Server(ctx context.Context, node Node, in Input) error {
	local, err := in.Covariance(p.Name())
	if err != nil {
		return err
	}
	pp := p.PCAParams.withDefaults()
	q, err := serverAdaptiveLocal(ctx, node, local, p.Env.Servers, pp.adaptive(), p.Env.Config)
	if err != nil {
		return err
	}
	return serverBWZSolve(ctx, node, q, pp, p.Env.Config)
}

// Coordinator implements Protocol: relay the tail-mass total, then run the
// BWZ coordinator against the servers' local sketches.
func (p PCACombined) Coordinator(ctx context.Context, node Node) (*Result, error) {
	if err := sumRound(ctx, node, p.Env.Servers, "tail-frob2", "tail-total", p.Env.Config); err != nil {
		return nil, err
	}
	return BWZ{PCAParams: p.PCAParams, Env: p.Env}.Coordinator(ctx, node)
}
