package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/comm"
	"repro/internal/distributed"
	"repro/internal/fd"
	"repro/internal/matrix"
	"repro/internal/monitoring"
	"repro/internal/obs"
	"repro/internal/pca"
)

// Coordinator is the long-lived query side of the service: it absorbs
// tracking uploads from the servers, pushes threshold broadcasts, and
// answers sketch queries — over HTTP (Mount) or in-process (Status,
// SketchQuery, TopK, WindowQuery). All protocol and query state is owned
// by the Run loop; queries cross into it over a channel, so every entry
// point is safe for concurrent use while Run is active.
type Coordinator struct {
	cfg     Config
	track   *monitoring.Coordinator
	queries chan *query
	start   time.Time
}

// Status is the /status payload.
type Status struct {
	UptimeSec    float64 `json:"uptime_sec"`
	Policy       string  `json:"policy"`
	Eps          float64 `json:"eps"`
	S            int     `json:"s"`
	D            int     `json:"d"`
	Window       int     `json:"window"`
	Heard        int     `json:"heard"`
	Uploads      int     `json:"uploads"`
	Announces    int     `json:"announces"`
	Broadcasts   int     `json:"broadcasts"`
	Catchups     int     `json:"catchups"`
	Words        float64 `json:"words"`
	Threshold    float64 `json:"threshold"`
	ReportedMass float64 `json:"reported_mass"`
	ErrorBound   float64 `json:"error_bound"`
}

// WindowResult is the answer to a sliding-window query: the merged window
// sketch pulled from the servers, how many recent rows it covers (summed
// across servers), and its covariance-error certificate (the servers'
// window charges plus the coordinator's merge charge).
type WindowResult struct {
	Matrix  *matrix.Dense
	Covered int
	Bound   float64
	Servers int
}

type query struct {
	kind  string // "status", "sketch", "topk", "window", "win-expire"
	k     int
	qid   int64 // win-expire only
	reply chan queryResult
}

type queryResult struct {
	status  *Status
	matrix  *matrix.Dense
	bound   float64
	covered int
	servers int
	err     error
}

// winPend is an in-flight window pull round.
type winPend struct {
	want    int
	parts   []*matrix.Dense
	got     map[int]bool
	covered int
	bound   float64
	reply   chan queryResult
}

// NewCoordinator builds the service coordinator. Pair it with a TCP hub
// via Run, and (optionally) mount its HTTP API on the hub's debug server
// with Mount — typically through distributed.TCPOptions.DebugMount.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Coordinator{
		cfg:     cfg,
		track:   monitoring.NewCoordinator(cfg.Monitoring),
		queries: make(chan *query, 16),
		start:   time.Now(),
	}, nil
}

// Run drives the daemon until ctx is cancelled or the hub closes. It owns
// all coordinator-side sends (the per-connection TCP writer is single-
// threaded) and keeps the hub accepting so restarted servers can rejoin.
func (c *Coordinator) Run(ctx context.Context, hub *distributed.TCPCoordinator) error {
	go hub.ServeAccepts(ctx)
	node := hub.Node()
	ob := c.cfg.observer()

	type recv struct {
		msg *comm.Message
		err error
	}
	msgc := make(chan recv, 64)
	go func() {
		for {
			msg, err := node.Recv(ctx)
			select {
			case msgc <- recv{msg, err}:
			case <-ctx.Done():
				if msg != nil {
					msg.Release()
				}
				return
			}
			if err != nil && (errors.Is(err, distributed.ErrNetworkClosed) || ctx.Err() != nil) {
				return
			}
		}
	}()

	lastEpoch := make(map[int]int64)
	known := make(map[int]bool)
	winPending := make(map[int64]*winPend)
	var nextQID int64

	for {
		select {
		case <-ctx.Done():
			return nil
		case r := <-msgc:
			if r.err != nil {
				if errors.Is(r.err, distributed.ErrNetworkClosed) || ctx.Err() != nil {
					return nil
				}
				// A single server's connection died; it may reconnect
				// through ServeAccepts. The daemon outlives it.
				ob.Note("coordinator: " + r.err.Error())
				continue
			}
			c.handleMessage(ctx, node, r.msg, lastEpoch, known, winPending)
		case q := <-c.queries:
			switch q.kind {
			case "status":
				q.reply <- queryResult{status: c.status(known)}
			case "sketch":
				m, err := c.track.Sketch()
				q.reply <- queryResult{matrix: m, bound: c.track.ErrorBound(), err: err}
			case "topk":
				m, err := c.track.Sketch()
				if err == nil {
					m, err = pca.SketchPCs(m, q.k)
				}
				q.reply <- queryResult{matrix: m, bound: c.track.ErrorBound(), err: err}
			case "window":
				c.startWindowRound(ctx, node, q, known, winPending, &nextQID)
			case "win-expire":
				if p, ok := winPending[q.qid]; ok {
					delete(winPending, q.qid)
					ob.Note(fmt.Sprintf("window query %d timed out with %d/%d replies", q.qid, len(p.parts), p.want))
					c.finishWindow(p)
				}
			}
		}
	}
}

// handleMessage absorbs one server message into the tracking state.
func (c *Coordinator) handleMessage(ctx context.Context, node distributed.Node, msg *comm.Message,
	lastEpoch map[int]int64, known map[int]bool, winPending map[int64]*winPend) {
	ob := c.cfg.observer()
	from := msg.From
	if err := comm.CheckShape(msg, comm.Dims{D: c.cfg.Monitoring.D}); err != nil {
		// A server started with another -d, or a malformed frame: the
		// payload is dropped uncharged.
		ob.Note("coordinator: dropped " + err.Error())
		msg.Release()
		return
	}
	known[from] = true
	switch msg.Kind {
	case KindAnnounce:
		mass := msg.Scalars[0]
		msg.Release()
		c.absorb(ctx, node, &monitoring.Upload{From: from, Announce: true, Mass: mass, Words: 1})
	case KindDelta, KindReplace:
		epoch := msg.Ints[0]
		if epoch < lastEpoch[from] {
			// A straggler from a dead incarnation, delivered after the
			// restored server's rebase. The rebase block already covers every
			// row the straggler could; absorbing it would double-count. No
			// words are charged for a dropped straggler.
			ob.Note(fmt.Sprintf("dropped stale epoch-%d upload from server %d", epoch, from))
			msg.Release()
			return
		}
		lastEpoch[from] = epoch
		rows := matrix.New(0, c.cfg.Monitoring.D)
		if msg.Matrix != nil {
			rows = msg.Matrix.Clone()
		}
		mass, shrinkage := msg.Scalars[0], msg.Scalars[1]
		replace := msg.Kind == KindReplace
		msg.Release()
		c.absorb(ctx, node, &monitoring.Upload{
			From: from, Rows: rows, Replace: replace,
			Mass: mass, Shrinkage: shrinkage,
			Words: float64(rows.Rows()*c.cfg.Monitoring.D) + 2,
		})
	case KindWinSketch:
		qid, covered, bound := msg.Ints[0], int(msg.Ints[1]), msg.Scalars[0]
		var part *matrix.Dense
		if msg.Matrix != nil {
			part = msg.Matrix.Clone()
		}
		msg.Release()
		p, ok := winPending[qid]
		if !ok || p.got[from] {
			return
		}
		p.got[from] = true
		if part != nil {
			p.parts = append(p.parts, part)
		}
		p.covered += covered
		p.bound += bound
		if len(p.got) >= p.want {
			delete(winPending, qid)
			c.finishWindow(p)
		}
	default:
		kind := msg.Kind
		msg.Release()
		ob.Note(fmt.Sprintf("coordinator: unexpected message kind %q from server %d", kind, from))
	}
}

// absorb feeds the upload to the tracking coordinator and pushes any
// resulting threshold broadcast to its recipients.
func (c *Coordinator) absorb(ctx context.Context, node distributed.Node, up *monitoring.Upload) {
	ob := c.cfg.observer()
	bc, err := c.track.Absorb(up)
	if err != nil {
		// A malformed block from one server must not kill the daemon.
		ob.Note(fmt.Sprintf("absorb from server %d: %v", up.From, err))
		return
	}
	if bc == nil {
		return
	}
	for _, id := range bc.To {
		msg := &comm.Message{Kind: KindThreshold, Scalars: []float64{bc.Threshold}}
		if err := node.Send(ctx, id, msg); err != nil {
			// The server is down or reconnecting; it keeps its old (lower)
			// threshold, which only makes it upload more eagerly — the
			// guarantee survives, the words bill just runs a little higher.
			ob.Note(fmt.Sprintf("threshold to server %d: %v", id, err))
		}
	}
}

// startWindowRound fans a win-query out to every known server and parks
// the caller until all replies (or the timeout) arrive.
func (c *Coordinator) startWindowRound(ctx context.Context, node distributed.Node, q *query,
	known map[int]bool, winPending map[int64]*winPend, nextQID *int64) {
	if c.cfg.Window <= 0 {
		q.reply <- queryResult{err: fmt.Errorf("service: windowing disabled (configure Window > 0)")}
		return
	}
	if len(known) == 0 {
		q.reply <- queryResult{err: fmt.Errorf("service: no servers have reported yet")}
		return
	}
	*nextQID++
	qid := *nextQID
	p := &winPend{got: make(map[int]bool), reply: q.reply}
	for id := range known {
		msg := &comm.Message{Kind: KindWinQuery, Ints: []int64{qid}}
		if err := node.Send(ctx, id, msg); err != nil {
			c.cfg.observer().Note(fmt.Sprintf("win-query to server %d: %v", id, err))
			continue
		}
		p.want++
	}
	if p.want == 0 {
		q.reply <- queryResult{err: fmt.Errorf("service: no reachable servers for window query")}
		return
	}
	winPending[qid] = p
	timeout := c.cfg.queryTimeout() * 3 / 4
	time.AfterFunc(timeout, func() {
		select {
		case c.queries <- &query{kind: "win-expire", qid: qid}:
		case <-ctx.Done():
		}
	})
}

// finishWindow merges the collected window snapshots and replies.
func (c *Coordinator) finishWindow(p *winPend) {
	sk := fd.New(c.cfg.Monitoring.D, monitoring.SketchRows(c.cfg.Monitoring.Eps), fd.Options{})
	for _, part := range p.parts {
		if err := sk.UpdateMatrix(part); err != nil {
			p.reply <- queryResult{err: err}
			return
		}
	}
	m, err := sk.Matrix()
	p.reply <- queryResult{
		matrix: m, covered: p.covered,
		bound: p.bound + sk.TotalShrinkage(), servers: len(p.parts),
		err: err,
	}
}

// status builds the /status payload; called only from the Run loop.
func (c *Coordinator) status(known map[int]bool) *Status {
	return &Status{
		UptimeSec:    time.Since(c.start).Seconds(),
		Policy:       c.cfg.Monitoring.Policy.String(),
		Eps:          c.cfg.Monitoring.Eps,
		S:            c.cfg.Monitoring.S,
		D:            c.cfg.Monitoring.D,
		Window:       c.cfg.Window,
		Heard:        c.track.Heard(),
		Uploads:      c.track.Uploads(),
		Announces:    c.track.Announces(),
		Broadcasts:   c.track.Broadcasts(),
		Catchups:     c.track.Catchups(),
		Words:        c.track.Words(),
		Threshold:    c.track.Threshold(),
		ReportedMass: c.track.ReportedMass(),
		ErrorBound:   c.track.ErrorBound(),
	}
}

// do routes a query through the Run loop.
func (c *Coordinator) do(ctx context.Context, q *query) (queryResult, error) {
	ctx, cancel := context.WithTimeout(ctx, c.cfg.queryTimeout())
	defer cancel()
	q.reply = make(chan queryResult, 1)
	select {
	case c.queries <- q:
	case <-ctx.Done():
		return queryResult{}, fmt.Errorf("service: query %s: %w", q.kind, ctx.Err())
	}
	select {
	case r := <-q.reply:
		return r, r.err
	case <-ctx.Done():
		return queryResult{}, fmt.Errorf("service: query %s: %w", q.kind, ctx.Err())
	}
}

// Status answers a /status query in-process.
func (c *Coordinator) Status(ctx context.Context) (*Status, error) {
	r, err := c.do(ctx, &query{kind: "status"})
	if err != nil {
		return nil, err
	}
	return r.status, nil
}

// SketchQuery returns the coordinator's current union sketch and its live
// covariance-error certificate.
func (c *Coordinator) SketchQuery(ctx context.Context) (*matrix.Dense, float64, error) {
	r, err := c.do(ctx, &query{kind: "sketch"})
	if err != nil {
		return nil, 0, err
	}
	return r.matrix, r.bound, nil
}

// TopK returns the top-k right singular vectors of the current sketch
// (d×k; see pca.SketchPCs).
func (c *Coordinator) TopK(ctx context.Context, k int) (*matrix.Dense, error) {
	if k <= 0 {
		return nil, fmt.Errorf("service: topk with k=%d", k)
	}
	r, err := c.do(ctx, &query{kind: "topk", k: k})
	if err != nil {
		return nil, err
	}
	return r.matrix, nil
}

// WindowQuery pulls a sliding-window snapshot round from the servers and
// returns the merged window sketch.
func (c *Coordinator) WindowQuery(ctx context.Context) (*WindowResult, error) {
	r, err := c.do(ctx, &query{kind: "window"})
	if err != nil {
		return nil, err
	}
	return &WindowResult{Matrix: r.matrix, Covered: r.covered, Bound: r.bound, Servers: r.servers}, nil
}

// ---------------------------------------------------------------------------
// HTTP API.
// ---------------------------------------------------------------------------

// matrixPayload is the JSON wire form of a dense matrix.
type matrixPayload struct {
	Rows int         `json:"rows"`
	Cols int         `json:"cols"`
	Data [][]float64 `json:"data"`
}

func toPayload(m *matrix.Dense) matrixPayload {
	p := matrixPayload{Rows: m.Rows(), Cols: m.Cols(), Data: make([][]float64, m.Rows())}
	for i := range p.Data {
		p.Data[i] = append([]float64(nil), m.Row(i)...)
	}
	return p
}

// Mount registers the query API on the debug server:
//
//	GET /status        deployment and protocol counters (JSON)
//	GET /sketch        the current union sketch + its error certificate
//	GET /coverr        the live covariance-error certificate alone
//	GET /topk?k=K      top-K right singular vectors of the sketch
//	GET /window        merged sliding-window sketch pulled from the servers
//
// Wire it into the hub with distributed.TCPOptions.DebugMount so the
// service API shares the -debug endpoint with pprof and expvar.
func (c *Coordinator) Mount(dbg *obs.DebugServer) {
	ob := c.cfg.observer()
	serve := func(kind string, fn func(r *http.Request) (any, error)) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			ob.QueryServed(kind)
			body, err := fn(r)
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(body)
		})
	}
	dbg.Handle("/status", serve("status", func(r *http.Request) (any, error) {
		return c.Status(r.Context())
	}))
	dbg.Handle("/sketch", serve("sketch", func(r *http.Request) (any, error) {
		m, bound, err := c.SketchQuery(r.Context())
		if err != nil {
			return nil, err
		}
		return struct {
			matrixPayload
			ErrorBound float64 `json:"error_bound"`
		}{toPayload(m), bound}, nil
	}))
	dbg.Handle("/coverr", serve("coverr", func(r *http.Request) (any, error) {
		st, err := c.Status(r.Context())
		if err != nil {
			return nil, err
		}
		return struct {
			ErrorBound   float64 `json:"error_bound"`
			ReportedMass float64 `json:"reported_mass"`
			Threshold    float64 `json:"threshold"`
		}{st.ErrorBound, st.ReportedMass, st.Threshold}, nil
	}))
	dbg.Handle("/topk", serve("topk", func(r *http.Request) (any, error) {
		k, err := strconv.Atoi(r.URL.Query().Get("k"))
		if err != nil || k <= 0 {
			return nil, fmt.Errorf("service: /topk needs a positive integer k parameter")
		}
		m, err := c.TopK(r.Context(), k)
		if err != nil {
			return nil, err
		}
		return struct {
			K int `json:"k"`
			matrixPayload
		}{k, toPayload(m)}, nil
	}))
	dbg.Handle("/window", serve("window", func(r *http.Request) (any, error) {
		res, err := c.WindowQuery(r.Context())
		if err != nil {
			return nil, err
		}
		return struct {
			matrixPayload
			Covered    int     `json:"covered"`
			Servers    int     `json:"servers"`
			ErrorBound float64 `json:"error_bound"`
		}{toPayload(res.Matrix), res.Covered, res.Servers, res.Bound}, nil
	}))
}
