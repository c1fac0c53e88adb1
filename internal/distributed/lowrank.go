package distributed

import (
	"context"
	"fmt"

	"repro/internal/comm"
	"repro/internal/linalg"
	"repro/internal/matrix"
)

// IndependentRowTracker is the streaming data structure of the §3.3 Case-1
// protocol: in one pass over the local rows, using O(k·d) space, it
// maintains
//
//   - Q: a maximal set of linearly independent input rows (verbatim, so
//     they cost one word per entry),
//   - V: an orthonormal basis of span(Q),
//   - Z = V·AᵀA·Vᵀ: the Gram matrix expressed in that basis.
//
// At the end, Y = (Q·Vᵀ)·Z·(V·Qᵀ) equals Q·AᵀA·Qᵀ, and the coordinator
// reconstructs AᵀA exactly as Q⁺·Y·(Q⁺)ᵀ because Q⁺Q projects onto the row
// space of A.
type IndependentRowTracker struct {
	d      int
	maxRun int
	tol    float64

	q     *matrix.Dense // selected independent rows (r×d)
	v     *matrix.Dense // orthonormal basis rows (r×d)
	z     *matrix.Dense // r×r Gram in basis coordinates
	rows  int
	frob2 float64
}

// NewIndependentRowTracker creates a tracker that accepts up to maxRank
// independent rows (the protocol's rank budget, 2k in the paper); rows
// arriving after the budget is exhausted but outside the span indicate the
// input violates the rank promise and Update reports an error.
func NewIndependentRowTracker(d, maxRank int, tol float64) *IndependentRowTracker {
	if d <= 0 || maxRank <= 0 {
		panic(fmt.Sprintf("distributed: invalid tracker d=%d maxRank=%d", d, maxRank))
	}
	if tol <= 0 {
		tol = 1e-9
	}
	return &IndependentRowTracker{
		d: d, maxRun: maxRank, tol: tol,
		q: matrix.New(0, d), v: matrix.New(0, d), z: matrix.New(0, 0),
	}
}

// Update processes one row.
func (t *IndependentRowTracker) Update(row []float64) error {
	if len(row) != t.d {
		panic(fmt.Sprintf("distributed: row length %d != d=%d", len(row), t.d))
	}
	t.rows++
	t.frob2 += matrix.Norm2(row)
	norm := matrix.Norm(row)
	if norm == 0 {
		return nil
	}
	// Residual against the current basis (two MGS passes for stability).
	res := matrix.CopyVec(row)
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < t.v.Rows(); i++ {
			b := t.v.Row(i)
			matrix.AxpyVec(res, -matrix.Dot(b, res), b)
		}
	}
	if matrix.Norm(res) > t.tol*norm {
		// Independent: extend Q and the basis; Z gains a zero row/column
		// (existing rows have no component along the new direction).
		if t.q.Rows() >= t.maxRun {
			return fmt.Errorf("distributed: input rank exceeds the promised bound %d", t.maxRun)
		}
		t.q = t.q.AppendRow(row)
		matrix.Normalize(res)
		t.v = t.v.AppendRow(res)
		old := t.z
		r := t.v.Rows()
		t.z = matrix.New(r, r)
		for i := 0; i < r-1; i++ {
			copy(t.z.Row(i)[:r-1], old.Row(i))
		}
	}
	// Accumulate the row's contribution in basis coordinates.
	c := t.v.MulVec(row)
	for i := range c {
		if c[i] == 0 {
			continue
		}
		zi := t.z.Row(i)
		for j := range c {
			zi[j] += c[i] * c[j]
		}
	}
	return nil
}

// UpdateMatrix feeds every row of m.
func (t *IndependentRowTracker) UpdateMatrix(m *matrix.Dense) error {
	for i := 0; i < m.Rows(); i++ {
		if err := t.Update(m.Row(i)); err != nil {
			return err
		}
	}
	return nil
}

// Rank returns the number of independent rows found so far.
func (t *IndependentRowTracker) Rank() int { return t.q.Rows() }

// Rows returns the number of rows processed.
func (t *IndependentRowTracker) Rows() int { return t.rows }

// Q returns the selected independent rows.
func (t *IndependentRowTracker) Q() *matrix.Dense { return t.q }

// Y returns Q·AᵀA·Qᵀ (r×r), computed from the compact state as
// (Q·Vᵀ)·Z·(V·Qᵀ).
func (t *IndependentRowTracker) Y() *matrix.Dense {
	c := t.q.MulT(t.v) // r×r: rows of Q in basis coordinates
	return c.Mul(t.z).Mul(c.T())
}

// LowRankExact is the §3.3 Case-1 exact protocol for inputs of rank at most
// 2·KBound per server. Cost: O(s·k·d) words.
type LowRankExact struct {
	KBound int
	Env    Env
}

// Name implements Protocol.
func (p LowRankExact) Name() string { return "lowrank-exact" }

// Estimand implements Protocol.
func (p LowRankExact) Estimand() Estimand { return EstimandCovariance }

func (p LowRankExact) withEnv(e Env) Protocol { p.Env = e; return p }

func (p LowRankExact) env() Env { return p.Env }

func (p LowRankExact) rounds() int { return 1 }

func (p LowRankExact) validate() error {
	if p.KBound < 1 {
		return fmt.Errorf("distributed: %s needs KBound ≥ 1, got %d", p.Name(), p.KBound)
	}
	return nil
}

// Server implements Protocol: one streaming pass builds (Q_i, Y_i) in
// O(k·d) working space; both are sent. Cost ≤ 2k·d + (2k)² words per
// server; Y's entries are O(log(nd/ε))-bit when the input is
// integer-valued, which quantization (Config.QuantStep) exploits.
func (p LowRankExact) Server(ctx context.Context, node Node, in Input) error {
	local, err := in.Covariance(p.Name())
	if err != nil {
		return err
	}
	cfg := p.Env.Config
	_, d := local.Dims()
	tr := NewIndependentRowTracker(d, 2*p.KBound, 0)
	rows, _, err := streamRows(local, tr.Update, nil)
	if err != nil {
		return fmt.Errorf("server %d: %w", node.ID(), err)
	}
	cfg.observer().RowsIngested(int64(rows), false)
	if err := cfg.sendMatrix(ctx, node, comm.CoordinatorID, "lr-q", tr.Q()); err != nil {
		return err
	}
	return cfg.sendMatrix(ctx, node, comm.CoordinatorID, "lr-y", tr.Y())
}

// Coordinator implements Protocol: reconstruct AᵀA = Σ_i Q_i⁺·Y_i·(Q_i⁺)ᵀ
// exactly and return both the Gram matrix and a minimal exact covariance
// sketch B = Λ^{1/2}·Vᵀ, the positive rows of agg(A) (rank ≤ 2k·s rows,
// typically ≤ 2k when the global rank bound holds).
func (p LowRankExact) Coordinator(ctx context.Context, node Node) (*Result, error) {
	s, d, cfg := p.Env.Servers, p.Env.Dim, p.Env.Config
	qs := make([]*matrix.Dense, s)
	ys := make([]*matrix.Dense, s)
	spec := gatherSpec{Kinds: []string{"lr-q", "lr-y"}, Dims: comm.Dims{D: d}, Peers: serverPeers(s), Each: 2}
	byKind := map[string][]*matrix.Dense{"lr-q": qs, "lr-y": ys}
	if _, err := gatherFrom(ctx, node, cfg, spec, func(msg *comm.Message) error {
		byKind[msg.Kind][msg.From] = recvMatrix(msg)
		return nil
	}); err != nil {
		return nil, err
	}
	for i := 0; i < s; i++ {
		// Q_i⁺·Y_i·Q_i⁺ᵀ needs Y_i r×r for Q_i's r rows.
		if r := qs[i].Rows(); ys[i].Rows() != r || ys[i].Cols() != r {
			return nil, fmt.Errorf("distributed: server %d sent a %d×%d \"lr-q\" and a %d×%d \"lr-y\", want r×%d and r×r",
				i, r, qs[i].Cols(), ys[i].Rows(), ys[i].Cols(), d)
		}
	}
	gram := matrix.New(d, d)
	for i := 0; i < s; i++ {
		if qs[i].Rows() == 0 {
			continue
		}
		pinv, err := linalg.PseudoInverse(qs[i], 0)
		if err != nil {
			return nil, err
		}
		gram = gram.Add(pinv.Mul(ys[i]).Mul(pinv.T()))
	}
	var agg linalg.RightFactor
	if err := agg.FactorGram(gram, d); err != nil { // n unknown: d stands in
		return nil, err
	}
	return &Result{Gram: gram, Sketch: agg.Top(agg.Rank())}, nil
}
