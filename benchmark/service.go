package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/comm"
	"repro/internal/distributed"
	"repro/internal/linalg"
	"repro/internal/matrix"
	"repro/internal/monitoring"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/workload"
)

// serviceIngest is the daemon under writes beside reads: a service
// coordinator on a TCP hub with its query API mounted on the hub's debug
// server, four service servers each ingesting a Gaussian stream under the
// fd-delta policy until drained, and two closed-loop HTTP clients with think
// time, one on /topk and one on /status, from the first upload until the
// coordinator has absorbed the last.
type serviceIngest struct {
	rowsPerServer, d int
	eps              float64
	think            time.Duration

	seed    int64
	raw     []workload.RowSource
	sources []workload.RowSource
	ob      *obs.Observer
	dep     *deployment
}

// deployment is one incarnation of the daemon. Its state is the sketch, so
// every repetition needs a fresh one.
type deployment struct {
	coord   *service.Coordinator
	hub     *distributed.TCPCoordinator
	uplinks []*distributed.TCPServer
	servers []*service.Server
	sent    *comm.Meter // counts what the servers put on the wire
	client  *http.Client
	base    string
	stop    context.CancelFunc
	done    chan struct{} // closed when the coordinator loop has returned
	used    bool
}

func (w *serviceIngest) deterministic() bool { return false } // upload timing races the thresholds

func (w *serviceIngest) generate(seed int64) {
	w.seed = seed
	w.raw = make([]workload.RowSource, numServers)
	for i := range w.raw {
		w.raw[i] = workload.NewGaussianSource(w.rowsPerServer, w.d, seed*numServers+int64(i))
	}
}

func (w *serviceIngest) deploy(ctx context.Context, ob *obs.Observer) error {
	w.ob, w.sources = ob, w.raw
	if ob != nil {
		w.sources = make([]workload.RowSource, len(w.raw))
		for i, src := range w.raw {
			w.sources[i] = traceSource(src)
		}
	}
	cfg := service.Config{
		Monitoring:      monitoring.Config{Eps: w.eps, S: numServers, D: w.d, Policy: monitoring.PolicyDelta, Seed: w.seed, Obs: ob},
		ExitWhenDrained: true,
	}
	coord, err := service.NewCoordinator(cfg)
	if err != nil {
		return err
	}
	opts := distributed.TCPOptions{Obs: ob}
	hubOpts := opts
	hubOpts.DebugAddr, hubOpts.DebugMount = "127.0.0.1:0", coord.Mount
	hub, err := distributed.NewTCPCoordinatorOpts("127.0.0.1:0", numServers, nil, hubOpts)
	if err != nil {
		return err
	}
	runCtx, stop := context.WithCancel(context.Background())
	dep := &deployment{
		coord: coord, hub: hub, sent: comm.NewMeter(), stop: stop, done: make(chan struct{}),
		client: &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{}},
		base:   "http://" + hub.Debug().Addr(),
	}
	w.dep = dep
	go func() {
		defer close(dep.done)
		coord.Run(runCtx, hub) // returns nil on cancel or hub close
	}()
	for i := 0; i < numServers; i++ {
		if err := w.sources[i].Reset(); err != nil {
			return err
		}
		up, err := distributed.DialTCPServerContext(ctx, hub.Addr(), i, dep.sent, opts)
		if err != nil {
			return err
		}
		dep.uplinks = append(dep.uplinks, up)
		srv, err := service.NewServer(cfg, i, w.sources[i])
		if err != nil {
			return err
		}
		dep.servers = append(dep.servers, srv)
	}
	return nil
}

func (w *serviceIngest) undeploy() {
	dep := w.dep
	if dep == nil {
		return
	}
	w.dep = nil
	dep.stop()
	for _, up := range dep.uplinks {
		up.Close()
	}
	dep.hub.Close()
	<-dep.done
	dep.client.CloseIdleConnections()
}

// get fetches one JSON document from the query API.
func (d *deployment) get(ctx context.Context, path string, into any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 256)) // only decorates the error below
		return fmt.Errorf("GET %s: status %d: %s", path, resp.StatusCode, body)
	}
	if into == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

// queryLoop is one closed-loop client: the next request goes out think after
// the previous answer came back. It records every round trip until ctx ends;
// a request the end of ingestion cut short is neither a sample nor a failure.
func (d *deployment) queryLoop(ctx context.Context, path string, think time.Duration) (latMS []float64, failed int) {
	for ctx.Err() == nil {
		t0 := time.Now()
		err := d.get(ctx, path, nil)
		took := time.Since(t0)
		if ctx.Err() != nil {
			break
		}
		if err != nil {
			failed++
		} else {
			latMS = append(latMS, ms(took))
		}
		select {
		case <-ctx.Done():
		case <-time.After(think):
		}
	}
	return latMS, failed
}

func (w *serviceIngest) rep(ctx context.Context, tc *traceCtx) (*repOut, error) {
	if w.dep == nil || w.dep.used {
		w.undeploy()
		if err := w.deploy(ctx, w.ob); err != nil {
			return nil, err
		}
	}
	dep := w.dep
	dep.used = true

	qctx, stopClients := context.WithCancel(ctx)
	defer stopClients()
	var clients sync.WaitGroup
	var topk, status []float64
	var topkFailed, statusFailed int
	client := func(path string, lat *[]float64, failed *int) {
		defer clients.Done()
		// Until the first block is absorbed there is no sketch to take
		// components of; a user would not ask yet either.
		for qctx.Err() == nil {
			if st, err := dep.coord.Status(qctx); err == nil && st.Uploads > 0 {
				break
			}
			time.Sleep(time.Millisecond)
		}
		*lat, *failed = dep.queryLoop(qctx, path, w.think)
	}
	start := time.Now()
	clients.Add(2)
	go client("/topk?k=5", &topk, &topkFailed)
	go client("/status", &status, &statusFailed)

	roles := make([]func(context.Context) error, numServers)
	for i := range roles {
		roles[i] = func(ctx context.Context) error { return dep.servers[i].Run(ctx, dep.uplinks[i]) }
	}
	err := runRoles(ctx, roles)
	// Drained is not absorbed: the servers run ahead of the coordinator by
	// whatever the sockets and queues hold, so the clock and the clients keep
	// going until the sketch covers every message the servers sent.
	var st service.Status
	for err == nil {
		if err = dep.get(ctx, "/status", &st); err != nil || int64(st.Uploads+st.Announces) >= dep.sent.Messages() {
			break
		}
		select {
		case <-ctx.Done():
			err = fmt.Errorf("coordinator absorbed %d of %d messages: %w", st.Uploads+st.Announces, dep.sent.Messages(), ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
	ingest := time.Since(start)
	stopClients()
	clients.Wait()
	if err != nil {
		return nil, err
	}
	if tc != nil {
		for _, src := range w.sources {
			tc.flushInput(distributed.Input{A: src}, tc.repSpan)
		}
	}
	var cert struct {
		ErrorBound float64 `json:"error_bound"`
	}
	if err := dep.get(ctx, "/coverr", &cert); err != nil {
		return nil, err
	}
	sketch, _, err := dep.coord.SketchQuery(ctx)
	if err != nil {
		return nil, err
	}
	rows := 0
	for _, srv := range dep.servers {
		rows += srv.Consumed()
	}
	if rows != numServers*w.rowsPerServer {
		return nil, fmt.Errorf("servers ingested %d rows, want %d", rows, numServers*w.rowsPerServer)
	}
	return &repOut{
		rows: rows, wall: ingest, words: st.Words, result: sketch,
		latenciesMS: topk,
		ops:         len(topk) + len(status) + topkFailed + statusFailed,
		opsFailed:   topkFailed + statusFailed,
		uplink:      dep.sent.Words(), downlink: dep.hub.Meter().Words(),
		messages: dep.sent.Messages() + dep.hub.Meter().Messages(),
		extra: map[string]float64{
			"service.error_bound":      cert.ErrorBound,
			"service.uploads":          float64(st.Uploads),
			"service.words_per_upload": st.Words / float64(max(1, st.Uploads)),
			"service.status_ms_p50":    percentile(status, 50),
		},
	}, nil
}

// check measures coverr of the final sketch against the exact Gram of all
// four streams, regenerated from their seeds. It must be within the bound the
// daemon itself served on /coverr; what is reported is its share of ε‖A‖F²,
// the guarantee the daemon is configured for. (The served bound is no steady
// denominator: it carries s times the standing threshold, which sits
// anywhere within a factor of two depending on where the last doubling
// broadcast happened to land.)
func (w *serviceIngest) check(out *repOut) (float64, error) {
	gram := matrix.New(w.d, w.d)
	for _, src := range w.raw {
		if err := src.Reset(); err != nil {
			return 0, err
		}
		m, err := workload.Materialize(src)
		if err != nil {
			return 0, err
		}
		gram = gram.Add(m.Gram())
	}
	coverr, err := linalg.SpectralNormSymFast(gram.Sub(out.result.Gram()))
	if err != nil {
		return 0, err
	}
	served := out.extra["service.error_bound"]
	if !(coverr <= served) {
		return 0, fmt.Errorf("coverr %v exceeds the error_bound %v served on /coverr", coverr, served)
	}
	out.extra["service.err_over_served_bound"] = coverr / served
	return coverr / (w.eps * gram.Trace()), nil
}
