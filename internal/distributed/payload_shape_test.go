package distributed

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/workload"
)

// sendAll sends each message from its From node to dst and reports the
// first send error on the returned channel.
func sendAll(ctx context.Context, net *MemNetwork, dst int, msgs ...*comm.Message) <-chan error {
	errc := make(chan error, 1)
	go func() {
		for _, msg := range msgs {
			if err := net.Node(msg.From).Send(ctx, dst, msg); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	return errc
}

// A server whose lr-q and lr-y disagree in shape is rejected with an error
// that names it, not a panic inside Q⁺·Y·Q⁺ᵀ.
func TestLowRankExactRejectsMismatchedShapes(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	net := NewMemNetwork(1, nil)
	defer net.Close()
	proto := LowRankExact{KBound: 2, Env: Env{Servers: 1, Dim: 4}}
	errc := sendAll(ctx, net, comm.CoordinatorID,
		&comm.Message{From: 0, Kind: "lr-q", Matrix: matrix.New(2, 4)},
		&comm.Message{From: 0, Kind: "lr-y", Matrix: matrix.New(3, 3)})
	_, err := proto.Coordinator(ctx, net.Coordinator())
	if err == nil || !strings.Contains(err.Error(), "server 0") || !strings.Contains(err.Error(), `"lr-y"`) {
		t.Fatalf("2×4 lr-q with 3×3 lr-y: %v", err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

// An fd-sketch of the wrong width is rejected where it is gathered, at the
// root and at an aggregator alike, with an error naming the sender and the
// kind, not a panic in the merge's Stack.
func TestFDMergeRejectsWrongWidthSketch(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	proto := FDMerge{Eps: 0.5, K: 1, Env: Env{Servers: 2, Dim: 4}}
	msgs := func() []*comm.Message {
		return []*comm.Message{
			{From: 0, Kind: "fd-sketch", Matrix: matrix.New(2, 4)},
			{From: 1, Kind: "fd-sketch", Matrix: matrix.New(2, 5)},
		}
	}
	const want = `"fd-sketch" message from 1 has 5 columns, want 4`

	t.Run("root", func(t *testing.T) {
		net := NewMemNetwork(2, nil)
		defer net.Close()
		errc := sendAll(ctx, net, comm.CoordinatorID, msgs()...)
		_, err := proto.Coordinator(ctx, net.Coordinator())
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("root: %v", err)
		}
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	})

	t.Run("aggregator", func(t *testing.T) {
		plan, err := Tree(2).Plan(4)
		if err != nil {
			t.Fatal(err)
		}
		net := NewMemNetwork(4, nil, ExtraEndpoints(map[int]int{4: 2, 5: 2}))
		defer net.Close()
		agg := plan.Parent(0)
		errc := sendAll(ctx, net, agg, msgs()...)
		proto := proto
		proto.Env.Servers = 4
		err = AggregateTree(ctx, proto, net.Node(agg), plan)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("aggregator %d: %v", agg, err)
		}
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	})
}

// wantShapeError fails t unless err names the sender and the kind the way
// comm.CheckShape does.
func wantShapeError(t *testing.T, err error, kind string, from int) {
	t.Helper()
	if want := fmt.Sprintf("%q message from %d", kind, from); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("got %v, want an error naming %s", err, want)
	}
}

// A BWZ coordinator at d = 4 rejects a bwz-y-sparse block 5 columns wide
// instead of scattering it into its m×4 frame.
func TestBWZCoordinatorRejectsWideSparseBlock(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	net := NewMemNetwork(1, nil)
	defer net.Close()
	proto := BWZ{PCAParams: PCAParams{K: 1, Eps: 0.5, EmbeddingRows: 8}, Env: Env{Servers: 1, Dim: 4}}
	errc := sendAll(ctx, net, comm.CoordinatorID,
		&comm.Message{From: 0, Kind: "nrows", Ints: []int64{2}},
		&comm.Message{From: 0, Kind: "bwz-y-sparse", Ints: []int64{0, 1}, Matrix: matrix.New(2, 5)})
	_, err := proto.Coordinator(ctx, net.Coordinator())
	wantShapeError(t, err, "bwz-y-sparse", 0)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

// A BWZ server in the two-sided regime (m = 8 < d = 12) rejects a bwz-u
// that is not m×k instead of multiplying by it.
func TestBWZServerRejectsMisshapenU(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	net := NewMemNetwork(1, nil)
	defer net.Close()
	proto := BWZ{PCAParams: PCAParams{K: 1, Eps: 0.5, EmbeddingRows: 8}, Env: Env{Servers: 1, Dim: 12}}
	coord := net.Coordinator()
	for _, msg := range []*comm.Message{
		{Kind: "row-offset", Ints: []int64{0}},
		{Kind: "bwz-u", Matrix: matrix.New(3, 1)},
	} {
		if err := coord.Send(ctx, 0, msg); err != nil {
			t.Fatal(err)
		}
	}
	_, parts := split(t, 5, 20, 12, 1)
	err := proto.Server(ctx, net.Node(0), CovarianceInput(workload.NewDenseSource(parts[0])))
	wantShapeError(t, err, "bwz-u", comm.CoordinatorID)
}

// The SVS, adaptive and row-sampling coordinators at Dim 4 fail on sketches
// 5 columns wide instead of returning them stacked.
func TestStackingCoordinatorsRejectWrongWidth(t *testing.T) {
	env := Env{Servers: 2, Dim: 4}
	for _, tc := range []struct {
		proto  Protocol
		prefix *comm.Message // the calibration message each server sends first
		kind   string
	}{
		{SVS{Alpha: 0.5, Delta: 0.1, Env: env}, &comm.Message{Kind: "frob2", Scalars: []float64{1}}, "svs-sketch"},
		{Adaptive{AdaptiveParams: AdaptiveParams{Eps: 0.5, K: 1}, Env: env}, &comm.Message{Kind: "tail-frob2", Scalars: []float64{1}}, "adaptive-sketch"},
		{RowSampling{Eps: 0.5, Env: env}, &comm.Message{Kind: "mass", Scalars: []float64{1}}, "sample-rows"},
	} {
		t.Run(tc.kind, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			net := NewMemNetwork(2, nil)
			defer net.Close()
			p0, p1 := *tc.prefix, *tc.prefix
			p1.From = 1
			errc := sendAll(ctx, net, comm.CoordinatorID, &p0, &p1,
				&comm.Message{From: 0, Kind: tc.kind, Matrix: matrix.New(2, 5)},
				&comm.Message{From: 1, Kind: tc.kind, Matrix: matrix.New(2, 5)})
			res, err := tc.proto.Coordinator(ctx, net.Coordinator())
			if err == nil {
				t.Fatalf("returned a %d×%d sketch", res.Sketch.Rows(), res.Sketch.Cols())
			}
			wantShapeError(t, err, tc.kind, 0)
			if err := <-errc; err != nil {
				t.Fatal(err)
			}
		})
	}
}

// A row-sampling server rejects a plan that does not fit its own m, before
// the count sizes its sample.
func TestRowSamplingServerRejectsBadPlan(t *testing.T) {
	proto := RowSampling{Eps: 0.5, Env: Env{Servers: 1, Dim: 4}}
	m := int64(core.SampleSize(proto.Eps))
	_, parts := split(t, 6, 20, 4, 1)
	for _, plan := range [][2]int64{{m + 1, m}, {-1, m}, {1, m + 1}} {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		net := NewMemNetwork(1, nil)
		msg := &comm.Message{Kind: "sample-plan", Scalars: []float64{1}, Ints: plan[:]}
		if err := net.Coordinator().Send(ctx, 0, msg); err != nil {
			t.Fatal(err)
		}
		err := proto.Server(ctx, net.Node(0), CovarianceInput(workload.NewDenseSource(parts[0])))
		if err == nil || !strings.Contains(err.Error(), `"sample-plan" message from -1`) {
			t.Errorf("plan of %d of %d samples (m = %d): %v", plan[0], plan[1], m, err)
		}
		net.Close()
		cancel()
	}
}
