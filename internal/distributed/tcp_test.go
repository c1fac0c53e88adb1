package distributed

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/workload"
)

// TestTCPFDMergeEndToEnd runs the deterministic protocol over real TCP
// sockets: a coordinator hub and s dialing servers, exchanging framed
// messages, with word accounting on both sides.
func TestTCPFDMergeEndToEnd(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(1))
	a := workload.LowRankPlusNoise(rng, 200, 12, 3, 20, 0.7, 0.4)
	s := 4
	parts := workload.Split(a, s, workload.Contiguous, nil)
	eps, k := 0.25, 3
	proto := FDMerge{Eps: eps, K: k, Env: Env{Servers: s, Dim: 12}}

	coord, err := NewTCPCoordinatorOpts("127.0.0.1:0", s, nil, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	var wg sync.WaitGroup
	serverErrs := make(chan error, s)
	serverWords := make(chan float64, s)
	for i := 0; i < s; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			srv, err := DialTCPServerContext(context.Background(), coord.Addr(), id, nil, TCPOptions{})
			if err != nil {
				serverErrs <- err
				return
			}
			defer srv.Close()
			if err := proto.Server(ctx, srv.Node(), CovarianceInput(workload.NewDenseSource(parts[id]))); err != nil {
				serverErrs <- err
				return
			}
			serverWords <- srv.Meter().Words()
		}(i)
	}

	if err := coord.Accept(ctx); err != nil {
		t.Fatal(err)
	}
	res, err := proto.Coordinator(ctx, coord.Node())
	if err != nil {
		t.Fatal(err)
	}
	sketch := res.Sketch
	if len(res.Missing) != 0 {
		t.Fatalf("unexpected stragglers: %v", res.Missing)
	}
	wg.Wait()
	close(serverErrs)
	for err := range serverErrs {
		t.Fatal(err)
	}
	close(serverWords)
	total := 0.0
	for w := range serverWords {
		total += w
	}

	ok, ce, bound, err := core.IsEpsKSketch(a, sketch, eps, k)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("TCP FD merge sketch error %v > %v", ce, bound)
	}
	if total <= 0 {
		t.Fatal("server meters recorded nothing")
	}
}

// TestTCPSVSEndToEnd runs the randomized two-round protocol over TCP,
// exercising coordinator→server broadcast over the sockets.
func TestTCPSVSEndToEnd(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(2))
	a := workload.PowerLawSpectrum(rng, 240, 10, 0.8, 10)
	s := 3
	parts := workload.Split(a, s, workload.Contiguous, nil)
	alpha := 0.25
	proto := SVS{Alpha: alpha, Delta: 0.1, Env: Env{Servers: s, Dim: 10, Config: Config{Seed: 7}}}

	coord, err := NewTCPCoordinatorOpts("127.0.0.1:0", s, nil, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	var wg sync.WaitGroup
	serverErrs := make(chan error, s)
	for i := 0; i < s; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			srv, err := DialTCPServerContext(context.Background(), coord.Addr(), id, nil, TCPOptions{})
			if err != nil {
				serverErrs <- err
				return
			}
			defer srv.Close()
			if err := proto.Server(ctx, srv.Node(), CovarianceInput(workload.NewDenseSource(parts[id]))); err != nil {
				serverErrs <- err
			}
		}(i)
	}

	if err := coord.Accept(ctx); err != nil {
		t.Fatal(err)
	}
	res, err := proto.Coordinator(ctx, coord.Node())
	if err != nil {
		t.Fatal(err)
	}
	sketch := res.Sketch
	wg.Wait()
	close(serverErrs)
	for err := range serverErrs {
		t.Fatal(err)
	}
	ce, err := core.CovErr(a, sketch)
	if err != nil {
		t.Fatal(err)
	}
	if ce > 4*alpha*a.Frob2() {
		t.Fatalf("TCP SVS coverr %v > %v", ce, 4*alpha*a.Frob2())
	}
}

// TestTCPProtocolValueDrivesBothRoles runs the same Protocol struct value
// through the two direct-TCP roles — the deployment path cmd/distsketch
// uses — and checks the context-aware dialer against a live coordinator.
func TestTCPProtocolValueDrivesBothRoles(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rng := rand.New(rand.NewSource(4))
	a := workload.LowRankPlusNoise(rng, 160, 10, 2, 20, 0.7, 0.4)
	s := 3
	parts := workload.Split(a, s, workload.Contiguous, nil)
	proto := Adaptive{
		AdaptiveParams: AdaptiveParams{Eps: 0.25, K: 2},
		Env:            Env{Servers: s, Dim: 10},
	}

	coord, err := NewTCPCoordinatorOpts("127.0.0.1:0", s, nil, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	var wg sync.WaitGroup
	serverErrs := make(chan error, s)
	for i := 0; i < s; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			srv, err := DialTCPServerContext(ctx, coord.Addr(), id, nil, TCPOptions{})
			if err != nil {
				serverErrs <- err
				return
			}
			defer srv.Close()
			sp := proto
			sp.Env.Config.Seed = int64(id)
			if err := sp.Server(ctx, srv.Node(), CovarianceInput(workload.NewDenseSource(parts[id]))); err != nil {
				serverErrs <- err
			}
		}(i)
	}

	if err := coord.Accept(ctx); err != nil {
		t.Fatal(err)
	}
	res, err := proto.Coordinator(ctx, coord.Node())
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(serverErrs)
	for err := range serverErrs {
		t.Fatal(err)
	}
	ok, ce, bound, err := core.IsEpsKSketch(a, res.Sketch, 3*0.25, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("TCP adaptive sketch error %v > %v", ce, bound)
	}
}

// TestTCPDialRetriesUntilListen starts the dialer before the coordinator
// exists: the context-aware dialer must retry with backoff and connect once
// the listener appears, instead of failing on the first refused connection.
func TestTCPDialRetriesUntilListen(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Reserve an address, then free it so the dialer races a dead port.
	probe, err := NewTCPCoordinatorOpts("127.0.0.1:0", 1, nil, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.Addr()
	probe.Close()

	dialErr := make(chan error, 1)
	connected := make(chan *TCPServer, 1)
	go func() {
		srv, err := DialTCPServerContext(ctx, addr, 0, nil, TCPOptions{})
		if err != nil {
			dialErr <- err
			return
		}
		connected <- srv
	}()

	// Give the dialer time to hit the refused port at least once.
	time.Sleep(200 * time.Millisecond)
	coord, err := NewTCPCoordinatorOpts(addr, 1, nil, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	if err := coord.Accept(ctx); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-dialErr:
		t.Fatalf("dialer gave up: %v", err)
	case srv := <-connected:
		srv.Close()
	case <-ctx.Done():
		t.Fatal("dialer never connected")
	}
}

// TestTCPDialContextCancelled checks the retrying dialer aborts promptly
// with the context error when nothing ever listens.
func TestTCPDialContextCancelled(t *testing.T) {
	// Reserve-and-release a port so nothing is listening there.
	probe, err := NewTCPCoordinatorOpts("127.0.0.1:0", 1, nil, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.Addr()
	probe.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = DialTCPServerContext(ctx, addr, 0, nil, TCPOptions{})
	if err == nil {
		t.Fatal("expected dial failure with nothing listening")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expected DeadlineExceeded, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancelled dial took %v", elapsed)
	}
}

func TestTCPServerRestrictions(t *testing.T) {
	ctx := context.Background()
	coord, err := NewTCPCoordinatorOpts("127.0.0.1:0", 1, nil, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	done := make(chan error, 1)
	go func() {
		srv, err := DialTCPServerContext(context.Background(), coord.Addr(), 0, nil, TCPOptions{})
		if err != nil {
			done <- err
			return
		}
		defer srv.Close()
		// Server-to-server sends are rejected in the star topology.
		if err := srv.Send(ctx, 1, &comm.Message{Kind: "x"}); err == nil {
			done <- errors.New("expected star-topology error")
			return
		}
		done <- srv.Send(ctx, comm.CoordinatorID, &comm.Message{Kind: "ping", Matrix: matrix.New(1, 1)})
	}()
	if err := coord.Accept(ctx); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	msg, err := coord.Node().Recv(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Kind != "ping" || msg.From != 0 {
		t.Fatalf("message %+v", msg)
	}
}

func TestTCPBadHello(t *testing.T) {
	coord, err := NewTCPCoordinatorOpts("127.0.0.1:0", 1, nil, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	go func() {
		// Out-of-range server ID must be rejected by Accept.
		srv, err := DialTCPServerContext(context.Background(), coord.Addr(), 7, nil, TCPOptions{})
		if err == nil {
			srv.Close()
		}
	}()
	if err := coord.Accept(context.Background()); err == nil {
		t.Fatal("expected hello rejection")
	}
}

// TestTCPCloseDeliversEverySentMessage: a server that closes right after
// its last Send, while input it never read sits in its socket, must not
// lose the messages still queued for a slow coordinator. A plain close
// there sends a TCP reset, which throws those bytes away.
func TestTCPCloseDeliversEverySentMessage(t *testing.T) {
	const n, d = 200, 1024
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	hub, err := NewTCPCoordinatorOpts("127.0.0.1:0", 1, nil, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	srv, err := DialTCPServerContext(ctx, hub.Addr(), 0, nil, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := hub.Accept(ctx); err != nil {
		t.Fatal(err)
	}
	// Input the server will never read, as a threshold pushed after a
	// server's last upload would be.
	if err := hub.Node().Send(ctx, 0, &comm.Message{Kind: "note", Scalars: []float64{1}}); err != nil {
		t.Fatal(err)
	}
	sendErr := make(chan error, 1)
	go func() {
		defer srv.Close()
		row := matrix.New(1, d)
		for i := 0; i < n; i++ {
			if err := srv.Send(ctx, comm.CoordinatorID, &comm.Message{Kind: "row", Matrix: row}); err != nil {
				sendErr <- err
				return
			}
		}
		sendErr <- nil
	}()
	// A slow reader keeps most of the stream queued at the server when it
	// closes.
	for got := 0; got < n; got++ {
		msg, err := hub.Node().Recv(ctx)
		if err != nil {
			t.Fatalf("after %d of %d messages: %v", got, n, err)
		}
		msg.Release()
		time.Sleep(time.Millisecond)
	}
	if err := <-sendErr; err != nil {
		t.Fatal(err)
	}
}
