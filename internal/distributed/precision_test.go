package distributed

import (
	"bytes"
	"context"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/linalg"
	"repro/internal/obs"
	"repro/internal/workload"
)

// A float32 wire run must meter exactly half the words of the float64 run:
// fd-merge uplinks carry only matrix payloads, the leaf sketches have
// value-independent shapes, and a 32-bit entry is exactly half a word.
func TestFloat32WireHalvesWords(t *testing.T) {
	a, parts := split(t, 21, 200, 12, 4)
	ctx := context.Background()
	res64, err := Run(ctx, FDMerge{Eps: 0.25, K: 3}, parts, WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	res32, err := Run(ctx, FDMerge{Eps: 0.25, K: 3}, parts, WithSeed(7), WithWirePrecision(comm.Float32))
	if err != nil {
		t.Fatal(err)
	}
	if res32.Words != res64.Words/2 {
		t.Fatalf("float32 words = %v, want exactly half of %v", res32.Words, res64.Words)
	}
	if res32.Bits*2 != res64.Bits {
		t.Fatalf("float32 bits = %d, float64 = %d", res32.Bits, res64.Bits)
	}
	// The rounded-payload merge still satisfies the (ε,k) certificate: the
	// float32 perturbation is orders of magnitude below the ε slack.
	ok, ce, bound, err := core.IsEpsKSketch(a, res32.Sketch, 0.25, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("float32 sketch error %v > budget %v", ce, bound)
	}
	// And it stays within the explicitly charged delta of the float64 run's
	// error (the certificate charge a bench leg would fold in).
	ce64, err := linalg.CovarianceError(a, res64.Sketch)
	if err != nil {
		t.Fatal(err)
	}
	ell := res64.Sketch.Rows()
	charge := float64(len(parts)) * comm.Float32RoundTripError(ell, 12, math.Sqrt(a.Frob2()))
	if ce > ce64+charge {
		t.Fatalf("float32 error %v exceeds float64 error %v + charge %v", ce, ce64, charge)
	}
}

// The observer must meter a float32 run identically to the transport
// meter, bit for bit — fractional words and all.
func TestObserverMatchesMeterFloat32(t *testing.T) {
	_, parts := split(t, 22, 200, 12, 4)
	reg := obs.NewRegistry()
	var buf bytes.Buffer
	ob := obs.NewObserver(reg, obs.NewTracer(&buf))
	res, err := Run(context.Background(), FDMerge{Eps: 0.25, K: 3}, parts, WithSeed(7), WithObserver(ob), WithWirePrecision(comm.Float32))
	if err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot()
	if got := s.Counters["comm.bits_total"]; got != res.Bits {
		t.Fatalf("observer bits %d != meter bits %d", got, res.Bits)
	}
	if res.Bits%32 != 0 {
		t.Fatalf("float32 run bits %d not a multiple of 32", res.Bits)
	}
}

// Quantization and float32 wire precision must not stack: both rewrite the
// payload and both charge an error budget, so combining them is rejected.
func TestQuantizeFloat32MutuallyExclusive(t *testing.T) {
	_, parts := split(t, 23, 80, 8, 2)
	_, err := Run(context.Background(), FDMerge{Eps: 0.3, K: 2}, parts,
		WithSeed(1), WithQuantization(1e-6), WithWirePrecision(comm.Float32))
	if err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Fatalf("expected mutual-exclusion error, got %v", err)
	}
}

// A float32 run over real TCP sockets must be bit-identical to the
// in-memory run — the senders pre-round, so the narrow wire encoding is
// lossless — and the socket meters must agree with the in-memory meters.
func TestTCPFloat32MatchesMem(t *testing.T) {
	ctx := context.Background()
	_, parts := split(t, 24, 200, 12, 4)
	eps, k := 0.25, 3

	mem, err := Run(ctx, FDMerge{Eps: eps, K: k}, parts, WithSeed(7), WithWirePrecision(comm.Float32))
	if err != nil {
		t.Fatal(err)
	}

	s := len(parts)
	proto := FDMerge{Eps: eps, K: k, Env: Env{Servers: s, Dim: 12, Config: Config{Seed: 7, WirePrecision: comm.Float32}}}
	coord, err := NewTCPCoordinatorOpts("127.0.0.1:0", s, nil, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	var wg sync.WaitGroup
	serverErrs := make(chan error, s)
	words := make(chan float64, s)
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
			words <- srv.Meter().Words()
		}(i)
	}
	if err := coord.Accept(ctx); err != nil {
		t.Fatal(err)
	}
	res, err := proto.Coordinator(ctx, coord.Node())
	if err != nil {
		t.Fatal(err)
	}
	sketch, missing := res.Sketch, res.Missing
	wg.Wait()
	close(serverErrs)
	for err := range serverErrs {
		t.Fatal(err)
	}
	close(words)
	total := 0.0
	for w := range words {
		total += w
	}
	if len(missing) != 0 {
		t.Fatalf("unexpected stragglers: %v", missing)
	}
	if !sketch.Equal(mem.Sketch) {
		t.Fatal("TCP float32 sketch differs from the in-memory run")
	}
	if total != mem.Words {
		t.Fatalf("TCP metered %v words, in-memory run %v", total, mem.Words)
	}
}

// Exactness promise: at float64 wire precision nothing changed — the
// refactored codec and release plumbing must leave the default-path run
// bit-identical and word-identical to itself across transports.
func TestTCPFloat64StillMatchesMem(t *testing.T) {
	ctx := context.Background()
	_, parts := split(t, 25, 160, 10, 2)
	eps, k := 0.3, 2
	mem, err := Run(ctx, FDMerge{Eps: eps, K: k}, parts, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	s := len(parts)
	proto := FDMerge{Eps: eps, K: k, Env: Env{Servers: s, Dim: 10, Config: Config{Seed: 3}}}
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
	if !sketch.Equal(mem.Sketch) {
		t.Fatal("TCP float64 sketch differs from the in-memory run")
	}
}
