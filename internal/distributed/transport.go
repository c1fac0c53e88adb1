// Package distributed implements the paper's computation model: s servers
// holding row blocks of A, one coordinator, point-to-point message passing
// (§1 "Distributed models"), with every protocol's communication metered in
// words at the transport layer.
//
// Each protocol is one Protocol struct whose Server and Coordinator methods
// operate on the Node interface, so the same protocol code runs in-process
// over channels (Run/RunWorkload over a MemNetwork, used by tests
// and benchmarks) and role by role across machines over TCP
// (cmd/distsketch). Unlike the paper's failure-free blackboard
// model, the runtime is context-aware end to end: every Send/Recv takes a
// context.Context, cancellation unblocks all parties, the coordinator can
// bound how long it waits for stragglers (StragglerPolicy), and any network
// can be wrapped in a FaultNetwork to inject drops, delays, duplicates,
// reorderings, and partitions deterministically.
package distributed

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/comm"
	"repro/internal/matrix"
	"repro/internal/obs"
)

// Node is one endpoint's view of the network: it can send a message to any
// endpoint and receive messages addressed to itself in FIFO order. Both
// operations honour context cancellation and deadlines.
type Node interface {
	// ID returns this endpoint's ID (comm.CoordinatorID for the coordinator).
	ID() int
	// Send delivers msg to endpoint `to`. The message's From/To fields are
	// filled in by the transport. Send blocks while the destination's mailbox
	// is full (backpressure) and returns early with the context's error when
	// ctx is cancelled or its deadline passes.
	Send(ctx context.Context, to int, msg *comm.Message) error
	// Recv blocks until a message addressed to this endpoint arrives, the
	// network closes, or ctx is done.
	Recv(ctx context.Context) (*comm.Message, error)
}

// Network is a set of endpoints the runtime can drive a protocol over:
// MemNetwork, or a FaultNetwork wrapping it.
type Network interface {
	// Node returns the endpoint with the given ID.
	Node(id int) Node
	// Coordinator returns the coordinator endpoint.
	Coordinator() Node
	// Servers returns the number of servers s.
	Servers() int
	// Meter returns the shared communication meter.
	Meter() *comm.Meter
	// Close shuts the network down, unblocking every pending Send and Recv.
	Close()
}

// ErrNetworkClosed is returned by Recv after the network shuts down.
var ErrNetworkClosed = errors.New("distributed: network closed")

// ErrStraggler is returned (wrapped) when a gather times out waiting for a
// server under a StragglerPolicy and the quorum is not met.
var ErrStraggler = errors.New("distributed: straggler timeout")

// StragglerPolicy bounds how long the coordinator waits for each server
// during a gather, and how it proceeds when servers miss the deadline.
type StragglerPolicy struct {
	// Timeout is the maximum time the coordinator waits for each expected
	// message; 0 waits indefinitely (until the context is done).
	Timeout time.Duration
	// Quorum is the minimum number of servers that must respond before a
	// quorum-tolerant protocol proceeds without the stragglers; 0 requires
	// all s servers (fail-fast). Quorum is honoured only by protocols whose
	// guarantee permits a partial merge (FD merge: the output then sketches
	// the responsive servers' rows, reported via Result.Missing); everywhere
	// else a straggler timeout is an error.
	Quorum int
}

// DefaultMailbox is the per-endpoint mailbox capacity used when none is
// configured. Protocol rounds are lockstep, so a server mailbox never holds
// more than a few messages; the coordinator mailbox is sized per-server by
// the constructor (capacity × s).
const DefaultMailbox = 16

// MemOption configures a MemNetwork.
type MemOption func(*MemNetwork)

// Mailbox sets the per-server mailbox capacity; the coordinator's mailbox is
// capacity×s since all servers send to it. When a mailbox is full, Send
// blocks (backpressure) until the receiver drains it, the context is done,
// or the network closes — it never drops messages.
func Mailbox(capacity int) MemOption {
	return func(n *MemNetwork) {
		if capacity > 0 {
			n.mailbox = capacity
		}
	}
}

// ExtraEndpoints adds mailboxes beyond the s servers and the coordinator —
// the aggregator endpoints of a tree Plan. fanin[id] is the number of peers
// sending to endpoint id; its mailbox is sized mailbox×fanin like the
// coordinator's.
func ExtraEndpoints(fanin map[int]int) MemOption {
	return func(n *MemNetwork) {
		if n.extra == nil {
			n.extra = make(map[int]int, len(fanin))
		}
		for id, f := range fanin {
			n.extra[id] = f
		}
	}
}

// MemNetwork is an in-process network of s servers plus a coordinator,
// backed by buffered channels, with all sends metered. Closing the network
// (which runParties does on the first party error or context cancellation)
// unblocks every pending Send and Recv with ErrNetworkClosed, so a failing
// protocol can never deadlock its peers.
type MemNetwork struct {
	s       int
	meter   *comm.Meter
	mailbox int
	extra   map[int]int // aggregator endpoint → fan-in (ExtraEndpoints)

	closeOnce sync.Once
	done      chan struct{}
	boxes     map[int]chan *comm.Message
}

// NewMemNetwork creates a network with servers 0..s-1 and a coordinator.
func NewMemNetwork(s int, meter *comm.Meter, opts ...MemOption) *MemNetwork {
	if s <= 0 {
		panic(fmt.Sprintf("distributed: NewMemNetwork with s=%d", s))
	}
	if meter == nil {
		meter = comm.NewMeter()
	}
	n := &MemNetwork{s: s, meter: meter, mailbox: DefaultMailbox, done: make(chan struct{}), boxes: make(map[int]chan *comm.Message)}
	for _, opt := range opts {
		opt(n)
	}
	n.boxes[comm.CoordinatorID] = make(chan *comm.Message, n.mailbox*s)
	for i := 0; i < s; i++ {
		n.boxes[i] = make(chan *comm.Message, n.mailbox)
	}
	for id, fanin := range n.extra {
		if _, taken := n.boxes[id]; taken {
			panic(fmt.Sprintf("distributed: extra endpoint %d collides with an existing one", id))
		}
		if fanin < 1 {
			fanin = 1
		}
		n.boxes[id] = make(chan *comm.Message, n.mailbox*fanin)
	}
	return n
}

// Servers returns the number of servers s.
func (n *MemNetwork) Servers() int { return n.s }

// Meter returns the shared communication meter.
func (n *MemNetwork) Meter() *comm.Meter { return n.meter }

// MailboxCapacity returns the per-server mailbox capacity.
func (n *MemNetwork) MailboxCapacity() int { return n.mailbox }

// Node returns the endpoint with the given ID.
func (n *MemNetwork) Node(id int) Node {
	if _, ok := n.boxes[id]; !ok {
		panic(fmt.Sprintf("distributed: no endpoint %d", id))
	}
	return &memNode{net: n, id: id}
}

// Coordinator returns the coordinator endpoint.
func (n *MemNetwork) Coordinator() Node { return n.Node(comm.CoordinatorID) }

// Close shuts the network down; pending and future Send/Recv calls fail
// with ErrNetworkClosed.
func (n *MemNetwork) Close() {
	n.closeOnce.Do(func() { close(n.done) })
}

type memNode struct {
	net *MemNetwork
	id  int
}

func (m *memNode) ID() int { return m.id }

func (m *memNode) Send(ctx context.Context, to int, msg *comm.Message) error {
	box, ok := m.net.boxes[to]
	if !ok {
		return fmt.Errorf("distributed: send to unknown endpoint %d", to)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	select {
	case <-m.net.done:
		return ErrNetworkClosed
	default:
	}
	msg.From, msg.To = m.id, to
	m.net.meter.Record(msg)
	select {
	case box <- msg:
		return nil
	case <-m.net.done:
		return ErrNetworkClosed
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (m *memNode) Recv(ctx context.Context) (*comm.Message, error) {
	select {
	case msg := <-m.net.boxes[m.id]:
		return msg, nil
	case <-m.net.done:
		// Drain any message that raced with the close.
		select {
		case msg := <-m.net.boxes[m.id]:
			return msg, nil
		default:
			return nil, ErrNetworkClosed
		}
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Result is the outcome of a protocol run at the coordinator. Which output
// fields are set is keyed by Estimand: covariance protocols fill Sketch /
// Gram / PCs, product protocols fill Product and Certificate. The
// communication totals (Words, Bits, Rounds, Messages) are metered the same
// way for every estimand.
type Result struct {
	// Estimand records what the run estimated (stamped by the driver from
	// the protocol's declaration).
	Estimand Estimand
	// Sketch is the coordinator's output matrix (covariance sketch), nil for
	// protocols that output something else (see Gram / PCs / Product).
	Sketch *matrix.Dense
	// Gram is set by exact protocols that reconstruct AᵀA directly.
	Gram *matrix.Dense
	// PCs holds the top-k right singular vectors (d×k) for PCA protocols.
	PCs *matrix.Dense
	// Product is the d_A×d_B estimate of AᵀB for product protocols.
	Product *matrix.Dense
	// Certificate is the product protocols' a-priori error bound: with the
	// run's sample size s, ‖Product − AᵀB‖F ≤ Certificate holds with
	// probability ≥ 3/4 (see core.ProductCertificate). 0 for covariance
	// protocols, whose guarantees are parameterized by ε instead.
	Certificate float64
	// Missing lists the servers that missed the straggler deadline when a
	// quorum policy let the protocol proceed without them; empty on full
	// participation.
	Missing []int
	// Words is the total communication cost of the run in machine words.
	Words float64
	// Bits is the same cost in bits.
	Bits int64
	// Rounds counts synchronous communication rounds.
	Rounds int64
	// Messages counts messages.
	Messages int64
}

// runParties runs each server function in its own goroutine and the
// coordinator function in the calling goroutine, returning the first error.
// When any party fails — or ctx is cancelled or passes its deadline — the
// network is closed so the others unblock instead of deadlocking
// mid-protocol.
func runParties(ctx context.Context, net Network, serverFns []func() error, coordFn func() error) error {
	stop := context.AfterFunc(ctx, net.Close)
	defer stop()
	errs := make(chan error, len(serverFns))
	var wg sync.WaitGroup
	for _, fn := range serverFns {
		wg.Add(1)
		go func(f func() error) {
			defer wg.Done()
			if err := f(); err != nil {
				errs <- err
				net.Close()
			}
		}(fn)
	}
	coordErr := coordFn()
	if coordErr != nil {
		net.Close()
	}
	wg.Wait()
	close(errs)
	// Report the root cause: ErrNetworkClosed (or a context error observed
	// by a party after the network died) is the symptom of another party
	// failing first, so prefer any other error; when the context itself is
	// done, it is the root cause.
	secondary := func(err error) bool {
		return errors.Is(err, ErrNetworkClosed) || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
	}
	var fallback error = coordErr
	if coordErr != nil && !secondary(coordErr) {
		return coordErr
	}
	for err := range errs {
		if err == nil {
			continue
		}
		if !secondary(err) {
			return err
		}
		if fallback == nil {
			fallback = err
		}
	}
	if fallback != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return fmt.Errorf("distributed: protocol aborted: %w", ctxErr)
		}
	}
	return fallback
}

// gatherSpec describes one policy-aware gather: which peers must deliver how
// many messages, and under what quorum rule the gather may end early.
type gatherSpec struct {
	// Label names the expected payload in straggler events and errors.
	Label string
	// Peers are the endpoint IDs the gather expects messages from.
	Peers []int
	// Each is the number of messages every peer must deliver (default 1).
	Each int
	// Quorum, when non-nil, is consulted after a straggler timeout with the
	// peers that have fully delivered; returning true ends the gather early,
	// reporting the rest as missing. Nil makes the gather strict: every peer
	// must deliver, and a user-supplied Stragglers.Quorum is rejected up
	// front (see rejectQuorum) instead of being silently ignored.
	Quorum func(done []int) bool
}

// gatherFrom is the single policy-aware receive loop behind every
// coordinator- and aggregator-side gather: per-message straggler timeouts,
// quorum decisions, peer-membership and duplicate checks all live here, so
// straggler semantics cannot drift between protocols or tree levels. The
// accept callback validates each message's kind and stores its payload.
// The returned missing slice lists, in spec.Peers order, the peers a met
// quorum allowed the gather to proceed without (nil on full delivery).
func gatherFrom(ctx context.Context, node Node, cfg Config, spec gatherSpec, accept func(*comm.Message) error) (missing []int, err error) {
	pol := cfg.Stragglers
	if spec.Quorum == nil {
		if err := rejectQuorum(cfg, spec.Label); err != nil {
			return nil, err
		}
	}
	each := spec.Each
	if each <= 0 {
		each = 1
	}
	got := make(map[int]int, len(spec.Peers))
	for _, p := range spec.Peers {
		got[p] = 0
	}
	for pending := each * len(spec.Peers); pending > 0; {
		msg, err := recvPolicy(ctx, node, pol.Timeout)
		if err != nil {
			if errors.Is(err, ErrStraggler) {
				cfg.observer().Straggler(spec.Label)
				if spec.Quorum != nil {
					var done []int
					for _, p := range spec.Peers {
						if got[p] == each {
							done = append(done, p)
						}
					}
					if spec.Quorum(done) {
						for _, p := range spec.Peers {
							if got[p] != each {
								missing = append(missing, p)
							}
						}
						return missing, nil
					}
				}
			}
			return nil, err
		}
		// Read the sender before handing the message to accept: callbacks
		// that fully consume the payload may Release it, which zeroes a
		// pooled (decoded) message.
		from := msg.From
		n, expected := got[from]
		if !expected {
			return nil, fmt.Errorf("distributed: message from unexpected endpoint %d", from)
		}
		if n == each {
			return nil, fmt.Errorf("distributed: duplicate %q message from %d", spec.Label, from)
		}
		if err := accept(msg); err != nil {
			return nil, err
		}
		got[from] = n + 1
		pending--
	}
	return nil, nil
}

// rejectQuorum guards a strict receive path: protocols whose guarantee needs
// every server cannot honour a partial-participation quorum, so a
// user-supplied one is a configuration error, not a silently dropped option.
func rejectQuorum(cfg Config, label string) error {
	if q := cfg.Stragglers.Quorum; q > 0 {
		return fmt.Errorf("distributed: %s requires every server: Stragglers.Quorum=%d is not supported (quorum merging is only defined for quorum-tolerant protocols such as fd-merge); clear the quorum or keep a timeout-only policy", label, q)
	}
	return nil
}

// serverPeers returns the peer list 0..s-1 of a star gather.
func serverPeers(s int) []int {
	peers := make([]int, s)
	for i := range peers {
		peers[i] = i
	}
	return peers
}

// gatherAll receives exactly one message of the given kind from every
// server, returning them indexed by server ID. Messages of other kinds, and
// control messages of the wrong shape (checkShape), are an error (protocols
// are lockstep). The gather is strict: under cfg.Stragglers with a timeout,
// each receive waits at most the policy's Timeout, and a server that misses
// it fails the gather with ErrStraggler (reported to the config's
// observer). The quorum-tolerant gather is fdSubtreeGather.
func gatherAll(ctx context.Context, node Node, s int, kind string, cfg Config) ([]*comm.Message, error) {
	out := make([]*comm.Message, s)
	_, err := gatherFrom(ctx, node, cfg, gatherSpec{Label: kind, Peers: serverPeers(s)}, func(msg *comm.Message) error {
		if msg.Kind != kind {
			return fmt.Errorf("distributed: expected %q message, got %q from %d", kind, msg.Kind, msg.From)
		}
		if err := checkShape(msg); err != nil {
			return err
		}
		out[msg.From] = msg
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// recvPolicy is Recv bounded by an optional per-message timeout.
func recvPolicy(ctx context.Context, node Node, timeout time.Duration) (*comm.Message, error) {
	if timeout <= 0 {
		return node.Recv(ctx)
	}
	tctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	msg, err := node.Recv(tctx)
	if err != nil && errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil {
		// The per-message timer fired, not the protocol deadline.
		return nil, fmt.Errorf("%w after %v", ErrStraggler, timeout)
	}
	return msg, err
}

// broadcast sends msg (same payload) to every server, point-to-point —
// costing s times the message size, as in the message-passing model. The
// observer (nil for none) gets one broadcast event covering all s sends; the
// individual messages are still metered (and traced) one by one.
func broadcast(ctx context.Context, node Node, s int, msg *comm.Message, ob *obs.Observer) error {
	ob.Broadcast(msg.Kind, s)
	for i := 0; i < s; i++ {
		m := *msg // shallow copy; payload slices are shared read-only
		if err := node.Send(ctx, i, &m); err != nil {
			return err
		}
	}
	return nil
}

// expectKind receives one message and checks its kind and, for a control
// message, its shape (checkShape).
func expectKind(ctx context.Context, node Node, kind string) (*comm.Message, error) {
	msg, err := node.Recv(ctx)
	if err != nil {
		return nil, err
	}
	if msg.Kind != kind {
		return nil, fmt.Errorf("distributed: expected %q message, got %q", kind, msg.Kind)
	}
	if err := checkShape(msg); err != nil {
		return nil, err
	}
	return msg, nil
}

// controlShapes holds the number of scalars and ints each control message
// kind carries; the protocols index those payloads directly.
var controlShapes = map[string]struct{ scalars, ints int }{
	"frob2":       {1, 0}, // SVS calibration: ‖A_i‖F², answered by ‖A‖F²
	"frob2-total": {1, 0},
	"tail-frob2":  {1, 0}, // adaptive calibration: ‖R_i‖F², answered by Σ‖R_i‖F²
	"tail-total":  {1, 0},
	"mass":        {1, 0}, // row sampling: ‖A_i‖F², answered by (‖A‖F²; count_i, m)
	"sample-plan": {1, 2},
	"nrows":       {0, 1}, // batch PCA solve: n_i, answered by the global row offset
	"row-offset":  {0, 1},
}

// checkShape rejects a control message whose payload does not have its
// kind's shape. gatherAll and expectKind apply it before handing a message
// on, so a short frame off the wire fails its round with an error naming
// the sender instead of panicking the reader on an index.
func checkShape(msg *comm.Message) error {
	want, ok := controlShapes[msg.Kind]
	if ok && (len(msg.Scalars) != want.scalars || len(msg.Ints) != want.ints) {
		return fmt.Errorf("distributed: %q message from %d carries %d scalars and %d ints, want %d and %d",
			msg.Kind, msg.From, len(msg.Scalars), len(msg.Ints), want.scalars, want.ints)
	}
	return nil
}

// releaseAll recycles gathered messages' pooled buffers (a no-op off the
// socket transport) once their payloads are consumed.
func releaseAll(msgs []*comm.Message) {
	for _, msg := range msgs {
		msg.Release()
	}
}

// gatherScalars gathers the one scalar every server sends as kind, indexed
// by server ID.
func gatherScalars(ctx context.Context, node Node, s int, kind string, cfg Config) ([]float64, error) {
	msgs, err := gatherAll(ctx, node, s, kind, cfg)
	if err != nil {
		return nil, err
	}
	vals := make([]float64, s)
	for i, msg := range msgs {
		vals[i] = msg.Scalars[0]
	}
	releaseAll(msgs)
	return vals, nil
}

// sumRound is the coordinator's half of a calibration round: gather one
// scalar of kind from every server and broadcast their sum, added in server
// order so the total does not depend on arrival order, as totalKind.
func sumRound(ctx context.Context, node Node, s int, kind, totalKind string, cfg Config) error {
	vals, err := gatherScalars(ctx, node, s, kind, cfg)
	if err != nil {
		return err
	}
	total := 0.0
	for _, v := range vals {
		total += v
	}
	return broadcast(ctx, node, s, &comm.Message{Kind: totalKind, Scalars: []float64{total}}, cfg.observer())
}

// calibrate is a server's half of a calibration round (sumRound): send the
// local value as kind and return the total the coordinator answers with.
func calibrate(ctx context.Context, node Node, kind, totalKind string, local float64) (float64, error) {
	if err := node.Send(ctx, comm.CoordinatorID, &comm.Message{Kind: kind, Scalars: []float64{local}}); err != nil {
		return 0, err
	}
	msg, err := expectKind(ctx, node, totalKind)
	if err != nil {
		return 0, err
	}
	total := msg.Scalars[0]
	msg.Release()
	return total, nil
}

// gatherStack gathers one matrix of kind from every server and stacks them
// in server order. Parts with columns must agree on how many.
func gatherStack(ctx context.Context, node Node, s int, kind string, cfg Config) (*matrix.Dense, error) {
	msgs, err := gatherAll(ctx, node, s, kind, cfg)
	if err != nil {
		return nil, err
	}
	defer releaseAll(msgs) // Stack copies every part
	parts := make([]*matrix.Dense, s)
	cols := 0
	for i, msg := range msgs {
		if parts[i], err = recvMatrix(msg); err != nil {
			return nil, err
		}
		if c := parts[i].Cols(); c > 0 {
			if cols > 0 && c != cols {
				return nil, fmt.Errorf("distributed: %q message from %d has %d columns, want %d", kind, i, c, cols)
			}
			cols = c
		}
	}
	return matrix.Stack(parts...), nil
}
