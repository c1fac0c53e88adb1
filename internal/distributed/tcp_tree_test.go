package distributed

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/workload"
)

// TestTCPTreeFDMergeEndToEnd runs a real 3-level tree over TCP sockets —
// one root hub, two aggregator processes (hub + uplink), four dialing
// leaves — and checks the root's sketch is bit-identical to the in-process
// star run on the same partitions, with the tree's exact word total.
func TestTCPTreeFDMergeEndToEnd(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(21))
	a := workload.LowRankPlusNoise(rng, 240, 12, 3, 20, 0.7, 0.4)
	s, d := 4, 12
	eps, k := 0.25, 3
	parts := workload.Split(a, s, workload.Contiguous, nil)

	plan, err := Tree(2).Plan(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Aggregators()) != 2 || plan.Depth() != 2 {
		t.Fatalf("unexpected plan shape: %s", plan)
	}
	cfg := Config{Seed: 1}
	proto := FDMerge{Eps: eps, K: k, Env: Env{Servers: s, Dim: d, Config: cfg, Topology: plan}}

	root, err := NewTCPRoot("127.0.0.1:0", plan, nil, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer root.Close()

	var wg sync.WaitGroup
	errs := make(chan error, s+len(plan.Aggregators()))
	aggAddrs := make(map[int]string, len(plan.Aggregators()))
	for _, id := range plan.Aggregators() {
		agg, err := NewTCPAggregator("127.0.0.1:0", id, plan, nil, TCPOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer agg.Close()
		aggAddrs[id] = agg.Addr()
		wg.Add(1)
		go func(agg *TCPAggregator) {
			defer wg.Done()
			if err := agg.DialParent(ctx, root.Addr()); err != nil {
				errs <- err
				return
			}
			if err := agg.Accept(ctx); err != nil {
				errs <- err
				return
			}
			errs <- AggregateTree(ctx, proto, agg.Node(), plan)
		}(agg)
	}
	for i := 0; i < s; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			srv, err := DialTCPUplink(ctx, aggAddrs[plan.Parent(id)], id, plan.Parent(id), nil, TCPOptions{})
			if err != nil {
				errs <- err
				return
			}
			defer srv.Close()
			errs <- proto.Server(ctx, srv.Node(), CovarianceInput(workload.NewDenseSource(parts[id])))
		}(i)
	}

	if err := root.Accept(ctx); err != nil {
		t.Fatal(err)
	}
	res, err := proto.Coordinator(ctx, root.Node())
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(res.Missing) != 0 {
		t.Fatalf("unexpected stragglers: %v", res.Missing)
	}

	// Bit-identity with the in-process star (fan-out 2 is a power of two).
	star, err := Run(ctx, FDMerge{Eps: eps, K: k}, parts, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Sketch.Equal(star.Sketch) {
		t.Fatal("TCP tree sketch differs from in-process star")
	}
}

// TestTCPUplinkRejectsForeignPeer: an uplink only reaches its parent.
func TestTCPUplinkRejectsForeignPeer(t *testing.T) {
	ctx := context.Background()
	plan, err := Tree(2).Plan(4)
	if err != nil {
		t.Fatal(err)
	}
	root, err := newTCPNodeHub("127.0.0.1:0", 4, plan.Children(4), nil, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer root.Close()
	srv, err := DialTCPUplink(ctx, root.Addr(), 0, 4, nil, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The hub never accepts this uplink, so close the hub first: the
	// uplink's close drain would otherwise wait out its bound for a FIN.
	defer func() {
		root.Close()
		srv.Close()
	}()
	if err := srv.Send(ctx, comm.CoordinatorID, &comm.Message{Kind: "fd-sketch"}); err == nil {
		t.Fatal("send to non-parent succeeded")
	}
	if err := srv.Send(ctx, 4, &comm.Message{Kind: "note"}); err != nil {
		t.Fatalf("send to parent: %v", err)
	}
}

// TestTCPCloseConcurrent: closing a hub, or an aggregator, from several
// goroutines at once while a Recv is pending must neither panic (a double
// close of the done channel) nor leave the Recv blocked.
func TestTCPCloseConcurrent(t *testing.T) {
	plan, err := Tree(2).Plan(4)
	if err != nil {
		t.Fatal(err)
	}
	const rounds, closers = 200, 64
	for round := 0; round < rounds; round++ {
		hub, err := NewTCPCoordinatorOpts("127.0.0.1:0", 1, nil, TCPOptions{})
		if err != nil {
			t.Fatal(err)
		}
		agg, err := NewTCPAggregator("127.0.0.1:0", plan.Aggregators()[0], plan, nil, TCPOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, end := range []struct {
			node  Node
			close func()
		}{{hub.Node(), hub.Close}, {agg.Node(), agg.Close}} {
			recvErr := make(chan error, 1)
			go func() {
				_, err := end.node.Recv(context.Background())
				recvErr <- err
			}()
			start := make(chan struct{})
			var wg sync.WaitGroup
			for i := 0; i < closers; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					end.close()
				}()
			}
			close(start)
			wg.Wait()
			if err := <-recvErr; !errors.Is(err, ErrNetworkClosed) {
				t.Fatalf("round %d: pending Recv returned %v, want ErrNetworkClosed", round, err)
			}
		}
	}
}
