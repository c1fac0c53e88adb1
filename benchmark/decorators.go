package main

import (
	"context"
	"time"

	"repro/internal/comm"
	"repro/internal/distributed"
	"repro/internal/matrix"
	"repro/internal/workload"
)

// Span names the decorators record under.
const (
	spanRep         = "rep"
	spanServer      = "distributed.server"
	spanAggregator  = "distributed.aggregator"
	spanCoordinator = "distributed.coordinator"
	spanSend        = "distributed.node_send"
	spanRecv        = "distributed.node_recv"
	spanSourceNext  = "workload.source_next"
)

// timedSource times every Next of a RowSource from outside. One call per
// input row is too many for a span each, so the calls are summed and handed
// to the tracer as one aggregate by flush.
type timedSource struct {
	src   workload.RowSource
	spent time.Duration
	rows  int64
}

// timedSparseSource is timedSource over a source with the sparse fast path.
// It is a type of its own because consumers pick their nnz-proportional path
// by asserting workload.SparseRowSource: a decorator that always had
// SparseNext would invent the path for dense sources, and one that never had
// it would silently move sparse workloads onto the dense path.
type timedSparseSource struct {
	timedSource
	sparse workload.SparseRowSource
}

// flusher is the part of a decorated source the harness reads back.
type flusher interface {
	workload.RowSource
	flush(t *tracer, parent, rep int) (spent time.Duration, rows int64)
}

// traceSource wraps src, keeping SparseNext exactly when src has it.
func traceSource(src workload.RowSource) flusher {
	if sp, ok := src.(workload.SparseRowSource); ok {
		return &timedSparseSource{timedSource: timedSource{src: src}, sparse: sp}
	}
	return &timedSource{src: src}
}

func (s *timedSource) Dims() (int, int) { return s.src.Dims() }
func (s *timedSource) Reset() error     { return s.src.Reset() }
func (s *timedSource) Err() error       { return s.src.Err() }

func (s *timedSource) Next() ([]float64, bool) {
	t0 := time.Now()
	row, ok := s.src.Next()
	s.spent += time.Since(t0)
	if ok {
		s.rows++
	}
	return row, ok
}

func (s *timedSparseSource) SparseNext() (*matrix.SparseVector, bool) {
	t0 := time.Now()
	row, ok := s.sparse.SparseNext()
	s.spent += time.Since(t0)
	if ok {
		s.rows++
	}
	return row, ok
}

// flush records the time and rows since the last flush as one aggregate
// under parent and clears them.
func (s *timedSource) flush(t *tracer, parent, rep int) (time.Duration, int64) {
	spent, rows := s.spent, s.rows
	t.aggregate(spanSourceNext, parent, rep, spent, rows)
	s.spent, s.rows = 0, 0
	return spent, rows
}

// timedNode records a span around every Send and Recv of a Node under the
// role span that owns it, counts the words it sends, and keeps the largest
// message it sent: the role's real uplink payload, which the codec replay
// encodes again. A node belongs to one role goroutine; the harness reads it
// after that goroutine has ended.
type timedNode struct {
	distributed.Node
	t      *tracer
	parent int
	rep    int

	words  float64
	uplink *comm.Message
}

func (n *timedNode) Send(ctx context.Context, to int, msg *comm.Message) error {
	id := n.t.begin(spanSend, n.parent, n.rep)
	err := n.Node.Send(ctx, to, msg)
	n.t.end(id)
	if err == nil {
		n.words += msg.Words()
		if n.uplink == nil || msg.Bits() > n.uplink.Bits() {
			n.uplink = msg
		}
	}
	return err
}

func (n *timedNode) Recv(ctx context.Context) (*comm.Message, error) {
	id := n.t.begin(spanRecv, n.parent, n.rep)
	msg, err := n.Node.Recv(ctx)
	n.t.end(id)
	return msg, err
}
