package distributed

import (
	"context"
	"math/rand"
	"net"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/matrix"
	"repro/internal/workload"
)

// isDaemonKind reports the kinds internal/service sends and receives; its
// own tests deliver them.
func isDaemonKind(kind string) bool {
	return strings.HasPrefix(kind, "svc-") || strings.HasPrefix(kind, "win-")
}

// schemaNet is a MemNetwork that checks every message sent on it against
// comm.Schema under dims and records its kind.
type schemaNet struct {
	*MemNetwork
	t    *testing.T
	dims comm.Dims
	mu   sync.Mutex
	seen map[string]bool
}

func (n *schemaNet) Node(id int) Node  { return schemaNode{n.MemNetwork.Node(id), n} }
func (n *schemaNet) Coordinator() Node { return n.Node(comm.CoordinatorID) }

type schemaNode struct {
	Node
	net *schemaNet
}

func (s schemaNode) Send(ctx context.Context, to int, msg *comm.Message) error {
	msg.From = s.ID()
	if err := comm.CheckShape(msg, s.net.dims); err != nil {
		s.net.t.Errorf("sent: %v", err)
	}
	s.net.mu.Lock()
	s.net.seen[msg.Kind] = true
	s.net.mu.Unlock()
	return s.Node.Send(ctx, to, msg)
}

// runSchemaChecked runs proto over inputs like RunWorkload, on a schemaNet
// whose dims are the run's D and DB plus the batch PCA solve's m and k.
func runSchemaChecked(t *testing.T, proto Protocol, inputs []Input, cfg Config, topo Topology, m, k int, seen map[string]bool) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	d, dB, err := checkInputs(proto, inputs)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := topo.Plan(len(inputs))
	if err != nil {
		t.Fatal(err)
	}
	proto = proto.withEnv(Env{Servers: len(inputs), Dim: d, DimB: dB, Config: cfg, Topology: plan})
	fanin := map[int]int{}
	for _, id := range plan.Aggregators() {
		fanin[id] = len(plan.Children(id))
	}
	mem := NewMemNetwork(len(inputs), nil, ExtraEndpoints(fanin))
	net := &schemaNet{MemNetwork: mem, t: t, dims: comm.Dims{D: d, DB: dB, M: m, K: k}, seen: seen}
	var parties []func() error
	for i := range inputs {
		parties = append(parties, func() error { return proto.Server(ctx, net.Node(i), inputs[i]) })
	}
	for _, id := range plan.Aggregators() {
		parties = append(parties, func() error { return AggregateTree(ctx, proto, net.Node(id), plan) })
	}
	if err := runParties(ctx, net, parties, func() error {
		_, err := proto.Coordinator(ctx, net.Coordinator())
		return err
	}); err != nil {
		t.Fatalf("%s: %v", proto.Name(), err)
	}
}

// TestProtocolKindsFollowSchema runs every protocol at a small size, in
// each of its wire forms, and checks every message sent against its kind's
// comm.Schema entry: a kind without an entry, or a payload off its shape,
// fails. Between them the runs send every batch kind in the table.
func TestProtocolKindsFollowSchema(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	dense := func(rows ...int) []Input {
		var parts []*matrix.Dense
		for _, n := range rows {
			parts = append(parts, workload.LowRankPlusNoise(rng, n, 6, 2, 10, 0.7, 0.3))
		}
		return CovarianceInputs(workload.DenseSources(parts))
	}
	wide := func(rows ...int) []Input { // 12 columns: the two-sided BWZ regime at m = 8
		var parts []*matrix.Dense
		for _, n := range rows {
			parts = append(parts, workload.Gaussian(rng, n, 12))
		}
		return CovarianceInputs(workload.DenseSources(parts))
	}
	rank2 := func() []Input {
		var parts []*matrix.Dense
		for i := 0; i < 2; i++ {
			parts = append(parts, workload.Gaussian(rng, 20, 2).Mul(workload.Gaussian(rng, 2, 6)))
		}
		return CovarianceInputs(workload.DenseSources(parts))
	}
	// A sparse A ships sample rows, a dense B ships a matrix with row IDs.
	a := workload.Gaussian(rng, 40, 8)
	for i := range a.Data() {
		if i%8 != 0 {
			a.Data()[i] = 0
		}
	}
	product, err := ProductShardsDense(a, workload.Gaussian(rng, 40, 3), 2)
	if err != nil {
		t.Fatal(err)
	}
	pca := PCAParams{K: 2, Eps: 0.5, EmbeddingRows: 8}
	seen := map[string]bool{}
	for _, run := range []struct {
		proto  Protocol
		inputs []Input
		cfg    Config
		topo   Topology
	}{
		{proto: FDMerge{Eps: 0.5, K: 1}, inputs: dense(20, 20), cfg: Config{QuantStep: 1e-6}},
		{proto: FDMerge{Eps: 0.5, K: 1}, inputs: dense(10, 10, 10, 10), topo: Tree(2)},
		{proto: SVS{Alpha: 0.5, Delta: 0.1}, inputs: dense(20, 20), cfg: Config{WirePrecision: comm.Float32}},
		{proto: RowSampling{Eps: 0.5}, inputs: dense(20, 20)},
		{proto: Adaptive{AdaptiveParams: AdaptiveParams{Eps: 0.5, K: 1}}, inputs: dense(20, 20)},
		{proto: LowRankExact{KBound: 1}, inputs: rank2()},
		{proto: SketchPCA{Sketch: FDMerge{Eps: 0.25, K: 2}, K: 2}, inputs: dense(20, 20)},
		// One server at least m rows, one below: the dense and sparse forms.
		{proto: BWZ{PCAParams: pca}, inputs: dense(12, 4)},
		{proto: BWZ{PCAParams: pca}, inputs: wide(12, 4)},
		{proto: PCACombined{PCAParams: pca}, inputs: dense(20, 20)},
		{proto: CoordinatedProduct{SampleSize: 4}, inputs: product},
	} {
		runSchemaChecked(t, run.proto, run.inputs, run.cfg, run.topo, pca.EmbeddingRows, pca.K, seen)
	}
	var unsent []string
	for kind := range comm.Schema {
		if !seen[kind] && !isDaemonKind(kind) && kind != "hello" {
			unsent = append(unsent, kind)
		}
	}
	sort.Strings(unsent)
	if len(unsent) > 0 {
		t.Errorf("no run sent %v", unsent)
	}
}

// offByOne returns a message of kind that fits its comm.Schema entry under
// dims, and, keyed by the dimension, one copy for each dimension the entry
// pins (scalars, ints, rows, columns) with that dimension one too large.
func offByOne(kind string, dims comm.Dims) (valid *comm.Message, bad map[string]*comm.Message) {
	sh := comm.Schema[kind]
	size := func(x comm.Dim) int {
		return [...]int{comm.DimAny: 2, comm.DimD: dims.D, comm.DimDB: dims.DB, comm.DimM: dims.M, comm.DimK: dims.K}[x]
	}
	build := func(scalars, extraInts, rows, cols int) *comm.Message {
		msg := &comm.Message{Kind: kind, Scalars: make([]float64, scalars)}
		ints := sh.Ints
		switch ints {
		case comm.IntsPerRow:
			ints = rows
		case comm.IntsAny:
			ints = 0
		}
		msg.Ints = make([]int64, ints+extraInts)
		if sh.Forms&comm.FormDense != 0 {
			msg.Matrix = matrix.New(rows, cols)
		}
		return msg
	}
	rows, cols := size(sh.Rows), size(sh.Cols)
	valid = build(sh.Scalars, 0, rows, cols)
	bad = map[string]*comm.Message{"scalars": build(sh.Scalars+1, 0, rows, cols)}
	if sh.Ints != comm.IntsAny {
		bad["ints"] = build(sh.Scalars, 1, rows, cols)
	}
	if sh.Forms&comm.FormDense != 0 && sh.Rows != comm.DimAny {
		bad["rows"] = build(sh.Scalars, 0, rows+1, cols)
	}
	if sh.Forms&comm.FormDense != 0 && sh.Cols != comm.DimAny {
		bad["columns"] = build(sh.Scalars, 0, rows, cols+1)
	}
	return valid, bad
}

// schemaReceiver is the role a kind is delivered to: from is the sender ID
// it sees, deliver runs the role on a fresh network, after the valid
// messages that lead up to the kind, and returns the role's error.
type schemaReceiver struct {
	dims    comm.Dims
	from    int
	deliver func(ctx context.Context, msg *comm.Message) error
}

// toCoordinator delivers to proto's coordinator, from a single server that
// sends prefix first.
func toCoordinator(proto Protocol, dims comm.Dims, prefix ...*comm.Message) schemaReceiver {
	return schemaReceiver{dims: dims, from: 0, deliver: func(ctx context.Context, msg *comm.Message) error {
		net := NewMemNetwork(1, nil)
		defer net.Close()
		for _, m := range append(prefix, msg) {
			if err := net.Node(0).Send(ctx, comm.CoordinatorID, m); err != nil {
				return err
			}
		}
		_, err := proto.Coordinator(ctx, net.Coordinator())
		return err
	}}
}

// toServer delivers to proto's server 0, holding cols-column rows, from a
// coordinator that sends prefix first.
func toServer(proto Protocol, cols int, dims comm.Dims, prefix ...*comm.Message) schemaReceiver {
	return schemaReceiver{dims: dims, from: comm.CoordinatorID, deliver: func(ctx context.Context, msg *comm.Message) error {
		net := NewMemNetwork(1, nil)
		defer net.Close()
		for _, m := range append(prefix, msg) {
			if err := net.Coordinator().Send(ctx, 0, m); err != nil {
				return err
			}
		}
		src := workload.Gaussian(rand.New(rand.NewSource(3)), 20, cols)
		return proto.Server(ctx, net.Node(0), CovarianceInput(workload.NewDenseSource(src)))
	}}
}

// TestEveryKindRejectsOffByOnePayloads delivers, for every batch kind in
// comm.Schema, a message off by one in each dimension its entry pins to the
// role that receives that kind. The role must fail with an error naming the
// sender and the kind; nothing may panic. The daemon's kinds are covered by
// internal/service's tests.
func TestEveryKindRejectsOffByOnePayloads(t *testing.T) {
	env := Env{Servers: 1, Dim: 4}
	wide := Env{Servers: 1, Dim: 12} // d > m: the two-sided BWZ regime
	pca := PCAParams{K: 2, Eps: 0.5, EmbeddingRows: 8}
	d4 := comm.Dims{D: 4}
	bwz := comm.Dims{D: 4, M: 8, K: 2}
	bwzWide := comm.Dims{D: 12, M: 8, K: 2}
	scalar := func(kind string) *comm.Message { return &comm.Message{Kind: kind, Scalars: []float64{1}} }
	nrows := &comm.Message{Kind: "nrows", Ints: []int64{0}}
	offset := &comm.Message{Kind: "row-offset", Ints: []int64{0}}
	svs := SVS{Alpha: 0.5, Delta: 0.1, Env: env}
	adaptive := Adaptive{AdaptiveParams: AdaptiveParams{Eps: 0.5, K: 1}, Env: env}
	rowSampling := RowSampling{Eps: 0.5, Env: env}
	lowRank := LowRankExact{KBound: 1, Env: env}
	product := CoordinatedProduct{SampleSize: 2, Env: Env{Servers: 1, Dim: 4, DimB: 3}}
	productDims := comm.Dims{D: 4, DB: 3}
	receivers := map[string]schemaReceiver{
		"frob2":           toCoordinator(svs, d4),
		"svs-sketch":      toCoordinator(svs, d4, scalar("frob2")),
		"frob2-total":     toServer(svs, 4, d4),
		"tail-frob2":      toCoordinator(adaptive, d4),
		"adaptive-sketch": toCoordinator(adaptive, d4, scalar("tail-frob2")),
		"tail-total":      toServer(adaptive, 4, d4),
		"mass":            toCoordinator(rowSampling, d4),
		"sample-rows":     toCoordinator(rowSampling, d4, scalar("mass")),
		"sample-plan":     toServer(rowSampling, 4, d4),
		"fd-sketch":       toCoordinator(FDMerge{Eps: 0.5, K: 1, Env: env}, d4),
		"lr-q":            toCoordinator(lowRank, d4),
		"lr-y":            toCoordinator(lowRank, d4),
		"ps-a":            toCoordinator(product, productDims),
		"ps-b":            toCoordinator(product, productDims),
		"nrows":           toCoordinator(BWZ{PCAParams: pca, Env: env}, bwz),
		"bwz-y":           toCoordinator(BWZ{PCAParams: pca, Env: env}, bwz, nrows),
		"bwz-y-sparse":    toCoordinator(BWZ{PCAParams: pca, Env: env}, bwz, nrows),
		"row-offset":      toServer(BWZ{PCAParams: pca, Env: env}, 4, bwz),
		"bwz-w":           toCoordinator(BWZ{PCAParams: pca, Env: wide}, bwzWide, nrows),
		"bwz-w-sparse":    toCoordinator(BWZ{PCAParams: pca, Env: wide}, bwzWide, nrows),
		"bwz-g": toCoordinator(BWZ{PCAParams: pca, Env: wide}, bwzWide, nrows,
			&comm.Message{Kind: "bwz-w", Matrix: matrix.New(8, 8)}),
		"bwz-u": toServer(BWZ{PCAParams: pca, Env: wide}, 12, bwzWide, offset),
		"hello": {from: 0, deliver: func(ctx context.Context, msg *comm.Message) error {
			hub, err := NewTCPCoordinatorOpts("127.0.0.1:0", 1, nil, TCPOptions{})
			if err != nil {
				return err
			}
			defer hub.Close()
			go func() {
				if conn, err := net.Dial("tcp", hub.Addr()); err == nil {
					msg.Encode(conn)
					conn.Close()
				}
			}()
			return hub.Accept(ctx)
		}},
	}
	var kinds []string
	for kind := range comm.Schema {
		if !isDaemonKind(kind) {
			kinds = append(kinds, kind)
		}
	}
	sort.Strings(kinds)
	for _, kind := range kinds {
		r, ok := receivers[kind]
		if !ok {
			t.Errorf("no receiving role for %q", kind)
			continue
		}
		valid, bad := offByOne(kind, r.dims)
		if err := comm.CheckShape(valid, r.dims); err != nil {
			t.Fatalf("the valid %q message does not fit: %v", kind, err)
		}
		for dim, msg := range bad {
			t.Run(kind+"/"+dim, func(t *testing.T) {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				wantShapeError(t, r.deliver(ctx, msg), kind, r.from)
			})
		}
	}
}
