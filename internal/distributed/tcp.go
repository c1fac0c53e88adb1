package distributed

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/comm"
	"repro/internal/obs"
)

// The TCP transport implements the uplink topology the protocols use — the
// star by default (all messages flow between a server and the coordinator,
// matching the paper's coordinator model), or any tree Plan: every interior
// node runs a hub that listens for its children, each child dials in and
// identifies itself with a hello message, and both ends then exchange
// comm.Message frames. A TCPAggregator (tcp_tree.go) is a hub plus an
// uplink to its own parent.
//
// Unlike the failure-free model the paper analyses, the transport is built
// for real networks: dials retry with exponential backoff, every read and
// write carries the deadline of the caller's context, and cancelling the
// context aborts in-flight socket operations.

// The dial policy: each attempt is bounded by dialTimeout, and a failed
// dial is retried dialRetries times, pausing retryBackoff before the first
// retry and twice as long before each further one.
const (
	dialTimeout  = 5 * time.Second
	dialRetries  = 4
	retryBackoff = 100 * time.Millisecond
)

// TCPOptions attaches observability to a TCP endpoint. The zero value
// reports to the process-wide obs.Default() and serves no debug endpoint.
type TCPOptions struct {
	// Obs is the observability sink: the endpoint's meter is mirrored into
	// it (per-message metrics + trace), raw wire bytes are counted, and dial
	// retries are reported. Nil falls back to the process-wide obs.Default().
	Obs *obs.Observer
	// DebugAddr, when non-empty on the coordinator, serves pprof and expvar
	// on that address (e.g. "127.0.0.1:6060") for the lifetime of the
	// coordinator; see obs.DebugServer. Mount a registry with PublishExpvar
	// to see live metrics under /debug/vars. Closing the hub drains the
	// debug server gracefully (in-flight scrapes finish).
	DebugAddr string
	// DebugMount, when non-nil, is called with the debug server after the
	// standard routes are installed and before it starts serving — the hook
	// the service layer uses to mount its query API (/sketch, /status, …)
	// on the same -debug endpoint.
	DebugMount func(*obs.DebugServer)
}

// observer resolves the options' observability sink (possibly nil: no-op).
func (o TCPOptions) observer() *obs.Observer {
	if o.Obs != nil {
		return o.Obs
	}
	return obs.Default()
}

// ioDeadline arms conn's read or write deadline from ctx and returns a
// release function that must run after the operation: it stops the
// cancellation watcher and clears the deadline.
func ioDeadline(ctx context.Context, set func(time.Time) error) func() {
	deadline, _ := ctx.Deadline() // the zero time when ctx has none: no deadline
	set(deadline)
	// A cancel (not just a deadline) must also abort the blocked syscall:
	// retract the deadline to the past the moment ctx is done.
	stop := context.AfterFunc(ctx, func() { set(time.Unix(1, 0)) })
	return func() {
		stop()
		set(time.Time{})
	}
}

// wrapIOErr converts a deadline-triggered socket error into the context's
// error when the context caused it.
func wrapIOErr(ctx context.Context, err error) error {
	if err == nil {
		return nil
	}
	var nerr net.Error
	if errors.As(err, &nerr) && nerr.Timeout() && ctx.Err() != nil {
		return ctx.Err()
	}
	return err
}

// TCPCoordinator is a tree node's hub: it accepts exactly one connection
// per expected child and exposes a Node whose Send routes to the right
// connection. NewTCPCoordinatorOpts builds the star coordinator (self is
// comm.CoordinatorID, children are 0..s-1); NewTCPRoot and NewTCPAggregator
// build hubs for arbitrary plan nodes.
type TCPCoordinator struct {
	self   int
	expect map[int]bool
	meter  *comm.Meter
	ln     net.Listener
	ob     *obs.Observer

	mu    sync.Mutex
	conns map[int]net.Conn

	inbox     chan recvResult
	done      chan struct{}
	closeOnce sync.Once
	dbg       *obs.DebugServer
}

type recvResult struct {
	msg *comm.Message
	err error
}

// NewTCPCoordinatorOpts listens on addr (e.g. "127.0.0.1:0") for s servers.
// Call Accept before running a protocol.
func NewTCPCoordinatorOpts(addr string, s int, meter *comm.Meter, opts TCPOptions) (*TCPCoordinator, error) {
	if s <= 0 {
		panic(fmt.Sprintf("distributed: TCP coordinator with s=%d", s))
	}
	return newTCPNodeHub(addr, comm.CoordinatorID, serverPeers(s), meter, opts)
}

// NewTCPRoot listens for the root's children under plan — the coordinator
// of a TCP tree run. With a star plan it is NewTCPCoordinatorOpts.
func NewTCPRoot(addr string, plan *Plan, meter *comm.Meter, opts TCPOptions) (*TCPCoordinator, error) {
	return newTCPNodeHub(addr, comm.CoordinatorID, plan.Children(comm.CoordinatorID), meter, opts)
}

// newTCPNodeHub listens on addr as tree node self, expecting exactly one
// connection from each listed child. Call Accept before running the node's
// role.
func newTCPNodeHub(addr string, self int, children []int, meter *comm.Meter, opts TCPOptions) (*TCPCoordinator, error) {
	if len(children) == 0 {
		panic(fmt.Sprintf("distributed: TCP hub for node %d with no children", self))
	}
	if meter == nil {
		meter = comm.NewMeter()
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("distributed: listen: %w", err)
	}
	expect := make(map[int]bool, len(children))
	for _, id := range children {
		expect[id] = true
	}
	c := &TCPCoordinator{
		self: self, expect: expect, meter: meter, ln: ln, ob: opts.observer(),
		conns: make(map[int]net.Conn),
		inbox: make(chan recvResult, 16*len(children)),
		done:  make(chan struct{}),
	}
	if c.ob != nil {
		meter.SetRecorder(c.ob)
	}
	if opts.DebugAddr != "" {
		dbg, err := obs.NewDebugServer(opts.DebugAddr)
		if err != nil {
			ln.Close()
			return nil, fmt.Errorf("distributed: debug server: %w", err)
		}
		if opts.DebugMount != nil {
			opts.DebugMount(dbg)
		}
		dbg.Start()
		c.dbg = dbg
		c.ob.Note("debug server on " + dbg.Addr())
	}
	return c, nil
}

// Debug returns the hub's debug HTTP server, or nil when DebugAddr was not
// set.
func (c *TCPCoordinator) Debug() *obs.DebugServer { return c.dbg }

// Addr returns the listening address for servers to dial.
func (c *TCPCoordinator) Addr() string { return c.ln.Addr().String() }

// Meter returns the coordinator-side meter (records coordinator sends).
func (c *TCPCoordinator) Meter() *comm.Meter { return c.meter }

// Accept waits for every expected child to connect and identify itself,
// then starts the demultiplexing readers. Cancelling ctx aborts the wait.
func (c *TCPCoordinator) Accept(ctx context.Context) error {
	stop := context.AfterFunc(ctx, func() { c.ln.Close() })
	defer stop()
	for len(c.conns) < len(c.expect) {
		// One-shot runs treat every handshake defect as fatal.
		id, conn, _, err := c.acceptOne(ctx)
		if err != nil {
			return err
		}
		c.mu.Lock()
		if _, dup := c.conns[id]; dup {
			c.mu.Unlock()
			conn.Close()
			return fmt.Errorf("distributed: duplicate server %d", id)
		}
		c.conns[id] = conn
		c.mu.Unlock()
	}
	for id, conn := range c.conns {
		go c.readLoop(id, conn)
	}
	return nil
}

// acceptOne accepts a single child connection and runs the hello
// handshake. fatal distinguishes a dead listener / cancelled context
// (stop accepting) from a defect confined to one connection.
func (c *TCPCoordinator) acceptOne(ctx context.Context) (id int, conn net.Conn, fatal bool, err error) {
	raw, err := c.ln.Accept()
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return 0, nil, true, fmt.Errorf("distributed: accept: %w", ctxErr)
		}
		return 0, nil, true, fmt.Errorf("distributed: accept: %w", err)
	}
	conn = countedConn(raw, c.ob)
	release := ioDeadline(ctx, conn.SetReadDeadline)
	hello, err := comm.Decode(conn)
	release()
	if err != nil {
		conn.Close()
		return 0, nil, false, fmt.Errorf("distributed: bad hello: %w", wrapIOErr(ctx, err))
	}
	err = comm.CheckShape(hello, comm.Dims{})
	if hello.Kind != "hello" {
		err = fmt.Errorf("kind %q", hello.Kind)
	}
	if err != nil {
		conn.Close()
		return 0, nil, false, fmt.Errorf("distributed: malformed hello: %w", err)
	}
	id = int(hello.Ints[0])
	hello.Release()
	if !c.expect[id] {
		conn.Close()
		return 0, nil, false, fmt.Errorf("distributed: hello from out-of-range server %d", id)
	}
	return id, conn, false, nil
}

// ServeAccepts keeps the listener accepting after the initial Accept — the
// daemon-mode reconnect path. A restarted child re-dials and identifies
// itself; its fresh connection replaces (and closes) the previous one, and
// a new read loop starts. Handshake defects on individual connections are
// noted on the observer and skipped rather than treated as fatal, since a
// long-lived hub must outlive any one bad client. Returns when ctx is
// cancelled or the hub is closed.
func (c *TCPCoordinator) ServeAccepts(ctx context.Context) {
	stop := context.AfterFunc(ctx, func() { c.ln.Close() })
	defer stop()
	for {
		id, conn, fatal, err := c.acceptOne(ctx)
		if err != nil {
			if fatal {
				return
			}
			select {
			case <-c.done:
				return
			default:
			}
			c.ob.Note("serve-accept: " + err.Error())
			continue
		}
		c.mu.Lock()
		old := c.conns[id]
		c.conns[id] = conn
		c.mu.Unlock()
		if old != nil {
			old.Close() // unblocks the dead connection's read loop
		}
		go c.readLoop(id, conn)
	}
}

func (c *TCPCoordinator) readLoop(id int, conn net.Conn) {
	// The hub reads nothing more from conn once this loop ends. Our FIN
	// tells the child so, which ends its close drain (TCPServer.Close)
	// instead of leaving it to time out.
	defer closeWrite(conn)
	for {
		msg, err := comm.Decode(conn)
		if err != nil {
			// A clean EOF means the server finished its protocol and closed;
			// that is the normal end of a run, not an error to surface.
			if errors.Is(err, io.EOF) {
				return
			}
			// A replaced connection (ServeAccepts reconnect) dies silently:
			// the child is alive and talking on its new connection.
			c.mu.Lock()
			replaced := c.conns[id] != conn
			c.mu.Unlock()
			if replaced {
				return
			}
			select {
			case <-c.done:
			default:
				select {
				case c.inbox <- recvResult{err: fmt.Errorf("distributed: read from server %d: %w", id, err)}:
				case <-c.done:
				}
			}
			return
		}
		msg.From, msg.To = id, c.self
		select {
		case c.inbox <- recvResult{msg: msg}:
		case <-c.done:
			return
		}
	}
}

// Node returns the coordinator endpoint.
func (c *TCPCoordinator) Node() Node { return &tcpCoordNode{c} }

// Close shuts down the listener and all connections. It is safe to call
// more than once and from several goroutines; every call returns after the
// shutdown has completed.
func (c *TCPCoordinator) Close() {
	c.closeOnce.Do(func() {
		close(c.done)
		c.ln.Close()
		if c.dbg != nil {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			c.dbg.Shutdown(ctx)
			cancel()
		}
		c.mu.Lock()
		defer c.mu.Unlock()
		for _, conn := range c.conns {
			conn.Close()
		}
	})
}

type tcpCoordNode struct{ c *TCPCoordinator }

func (n *tcpCoordNode) ID() int { return n.c.self }

func (n *tcpCoordNode) Send(ctx context.Context, to int, msg *comm.Message) error {
	n.c.mu.Lock()
	conn, ok := n.c.conns[to]
	n.c.mu.Unlock()
	if !ok {
		return fmt.Errorf("distributed: no connection to server %d", to)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	msg.From, msg.To = n.c.self, to
	n.c.meter.Record(msg)
	release := ioDeadline(ctx, conn.SetWriteDeadline)
	defer release()
	return wrapIOErr(ctx, msg.Encode(conn))
}

func (n *tcpCoordNode) Recv(ctx context.Context) (*comm.Message, error) {
	select {
	case r := <-n.c.inbox:
		return r.msg, r.err
	case <-n.c.done:
		return nil, ErrNetworkClosed
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// TCPServer is one node's uplink connection to its parent hub — the
// coordinator in a star, or an aggregator in a tree plan.
type TCPServer struct {
	id    int
	peer  int
	meter *comm.Meter
	conn  net.Conn
}

// DialTCPServerContext connects server id to the coordinator at addr,
// retrying failed dials with exponential backoff (dialRetries,
// retryBackoff) — servers in a real deployment routinely start before
// the coordinator's listener is up.
func DialTCPServerContext(ctx context.Context, addr string, id int, meter *comm.Meter, opts TCPOptions) (*TCPServer, error) {
	return DialTCPUplink(ctx, addr, id, comm.CoordinatorID, meter, opts)
}

// DialTCPUplink connects node id to its parent hub at addr (the parent's
// endpoint ID comes from Plan.Parent). It retries failed dials with
// exponential backoff like DialTCPServerContext; leaves in a tree plan use
// this to reach their aggregator.
func DialTCPUplink(ctx context.Context, addr string, id, parent int, meter *comm.Meter, opts TCPOptions) (*TCPServer, error) {
	if meter == nil {
		meter = comm.NewMeter()
	}
	ob := opts.observer()
	if ob != nil {
		meter.SetRecorder(ob)
	}
	var conn net.Conn
	var err error
	backoff := retryBackoff
	for attempt := 0; ; attempt++ {
		d := net.Dialer{Timeout: dialTimeout}
		conn, err = d.DialContext(ctx, "tcp", addr)
		if err == nil {
			break
		}
		if ctx.Err() != nil || attempt >= dialRetries {
			return nil, fmt.Errorf("distributed: dial %s (attempt %d): %w", addr, attempt+1, err)
		}
		ob.DialRetry(attempt + 1)
		if serr := sleepCtx(ctx, backoff); serr != nil {
			return nil, fmt.Errorf("distributed: dial %s: %w", addr, serr)
		}
		backoff *= 2
	}
	conn = countedConn(conn, ob)
	srv := &TCPServer{id: id, peer: parent, meter: meter, conn: conn}
	hello := &comm.Message{Kind: "hello", Ints: []int64{int64(id)}}
	hello.From, hello.To = id, parent
	release := ioDeadline(ctx, conn.SetWriteDeadline)
	err = hello.Encode(conn)
	release()
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("distributed: send hello: %w", wrapIOErr(ctx, err))
	}
	return srv, nil
}

// Meter returns the server-side meter.
func (s *TCPServer) Meter() *comm.Meter { return s.meter }

// Node returns the server endpoint.
func (s *TCPServer) Node() Node { return s }

// ID implements Node.
func (s *TCPServer) ID() int { return s.id }

// Send implements Node; only the uplink's parent is reachable over this
// transport (all protocol traffic flows along tree edges).
func (s *TCPServer) Send(ctx context.Context, to int, msg *comm.Message) error {
	if to != s.peer {
		return fmt.Errorf("distributed: TCP server can only send to its parent %d, not %d", s.peer, to)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	msg.From, msg.To = s.id, to
	s.meter.Record(msg)
	release := ioDeadline(ctx, s.conn.SetWriteDeadline)
	defer release()
	return wrapIOErr(ctx, msg.Encode(s.conn))
}

// Recv implements Node.
func (s *TCPServer) Recv(ctx context.Context) (*comm.Message, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	release := ioDeadline(ctx, s.conn.SetReadDeadline)
	defer release()
	msg, err := comm.Decode(s.conn)
	if err != nil {
		return nil, wrapIOErr(ctx, err)
	}
	return msg, nil
}

// closeDrainTimeout bounds how long TCPServer.Close waits for the parent
// to finish reading.
const closeDrainTimeout = 5 * time.Second

// Close shuts the uplink down without losing what it already sent. Closing
// a TCP socket that still holds unread input (say, a threshold the parent
// pushed after the last upload) sends a reset instead of a FIN, and the
// reset discards every byte still queued for the parent. So Close first
// half-closes, which queues a FIN behind the data, then discards incoming
// bytes until the parent answers with its own FIN (its read loop does so
// when it stops, at the latest after reading everything) or
// closeDrainTimeout passes, and only then closes.
func (s *TCPServer) Close() {
	if closeWrite(s.conn) {
		// Closing the socket is the drain's only bound: a Recv cancelled
		// just before Close may still move the read deadline, so a timeout
		// only means "clear the deadline and keep draining".
		t := time.AfterFunc(closeDrainTimeout, func() { s.conn.Close() })
		for {
			_, err := io.Copy(io.Discard, s.conn)
			var nerr net.Error
			if err == nil || !errors.As(err, &nerr) || !nerr.Timeout() {
				break
			}
			s.conn.SetReadDeadline(time.Time{})
		}
		t.Stop()
	}
	s.conn.Close()
}

// closeWrite half-closes conn (sends a FIN, keeps reading) and reports
// whether it could.
func closeWrite(conn net.Conn) bool {
	if cc, ok := conn.(*countConn); ok {
		conn = cc.Conn
	}
	cw, ok := conn.(interface{ CloseWrite() error })
	return ok && cw.CloseWrite() == nil
}

// countConn wraps a net.Conn so every wire byte — framing and payload, in
// both directions — is counted on the observer. This is the transport's
// actual byte cost, distinct from (and slightly above) the paper's metered
// word cost, so the overhead of the codec is itself observable.
type countConn struct {
	net.Conn
	ob *obs.Observer
}

// countedConn wraps conn for byte accounting; a nil observer leaves the
// connection untouched (zero overhead when observability is off).
func countedConn(conn net.Conn, ob *obs.Observer) net.Conn {
	if ob == nil {
		return conn
	}
	return &countConn{Conn: conn, ob: ob}
}

func (c *countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.ob.TransportBytes(false, int64(n))
	return n, err
}

func (c *countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.ob.TransportBytes(true, int64(n))
	return n, err
}
