package distributed

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/matrix"
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
