// TCP cluster demo: spawns a coordinator and s servers inside one process,
// but connected through real TCP sockets and the binary wire codec — the
// same code path cmd/distsketch uses across machines. The protocol value
// (Adaptive) is the same struct Run uses in-process; here its two roles are
// driven directly over the TCP nodes, under a context that bounds the whole
// run.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"sync"
	"time"

	"repro/distsketch"
)

func main() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	rng := rand.New(rand.NewSource(21))
	n, d, k, s := 4096, 48, 4, 6
	eps := 0.15
	a := distsketch.LowRankPlusNoise(rng, n, d, k, 60, 0.7, 0.5)
	parts := distsketch.Split(a, s, distsketch.Contiguous, nil)

	proto := distsketch.Adaptive{
		AdaptiveParams: distsketch.AdaptiveParams{Eps: eps, K: k},
		Env:            distsketch.Env{Servers: s, Dim: d},
	}

	coord, err := distsketch.NewTCPCoordinatorOpts("127.0.0.1:0", s, nil, distsketch.TCPOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer coord.Close()
	fmt.Printf("coordinator on %s; launching %d servers (protocol %s)\n", coord.Addr(), s, proto.Name())

	var wg sync.WaitGroup
	errCh := make(chan error, s)
	wordsCh := make(chan float64, s)
	for i := 0; i < s; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			// The dialer retries with exponential backoff until the
			// coordinator is listening (or ctx expires).
			srv, err := distsketch.DialTCPServerContext(ctx, coord.Addr(), id, nil, distsketch.TCPOptions{})
			if err != nil {
				errCh <- err
				return
			}
			defer srv.Close()
			sp := proto
			sp.Env.Config.Seed = int64(id)
			if err := sp.Server(ctx, srv.Node(), distsketch.CovarianceInput(distsketch.NewDenseSource(parts[id]))); err != nil {
				errCh <- err
				return
			}
			wordsCh <- srv.Meter().Words()
		}(i)
	}

	if err := coord.Accept(ctx); err != nil {
		log.Fatal(err)
	}
	res, err := proto.Coordinator(ctx, coord.Node())
	if err != nil {
		log.Fatal(err)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		log.Fatal(err)
	}
	close(wordsCh)
	uplink := 0.0
	for w := range wordsCh {
		uplink += w
	}

	ok, ce, bound, err := distsketch.IsEpsKSketch(a, res.Sketch, 3*eps, k)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsketch: %d rows × %d cols\n", res.Sketch.Rows(), res.Sketch.Cols())
	fmt.Printf("uplink traffic:   %.0f words (servers → coordinator)\n", uplink)
	fmt.Printf("downlink traffic: %.0f words (coordinator → servers)\n", coord.Meter().Words())
	fmt.Printf("raw data would be %d words\n", n*d)
	fmt.Printf("coverr = %.4g, (3ε,k) budget = %.4g — %v\n", ce, bound, ok)
	if !ok {
		log.Fatal("guarantee violated")
	}
}
