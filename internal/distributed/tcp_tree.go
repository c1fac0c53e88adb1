package distributed

import (
	"context"
	"fmt"

	"repro/internal/comm"
)

// TCPAggregator is one interior node of a TCP tree deployment: a hub
// accepting its children's connections plus an uplink to its parent, sharing
// one meter so the node's ledger covers both directions. The intended
// startup order is
//
//	agg, err := NewTCPAggregator(listenAddr, id, plan, meter, opts)
//	err = agg.DialParent(ctx, parentAddr)   // retries until the parent is up
//	err = agg.Accept(ctx)                   // then wait for the children
//	err = AggregateTree(ctx, proto, agg.Node(), plan)
//
// Dialing the parent before accepting children keeps the whole tree's
// bring-up deadlock-free with only dial retries: every node first reaches up
// (parents are started first), then waits for its subtree.
//
// Downstream traffic (parent to child) is not routed through an aggregator —
// the FD merge protocol's tree path is strictly convergecast — so an
// aggregator's Recv only ever yields children's messages.
type TCPAggregator struct {
	id   int
	plan *Plan
	hub  *TCPCoordinator
	up   *TCPServer

	meter *comm.Meter
}

// NewTCPAggregator starts listening on addr as aggregator id of plan. The
// returned aggregator still needs DialParent and Accept before it can run.
func NewTCPAggregator(addr string, id int, plan *Plan, meter *comm.Meter, opts TCPOptions) (*TCPAggregator, error) {
	if plan.Role(id) != RoleAggregator {
		return nil, fmt.Errorf("distributed: node %d is not an aggregator in %s", id, plan)
	}
	if meter == nil {
		meter = comm.NewMeter()
	}
	hub, err := newTCPNodeHub(addr, id, plan.Children(id), meter, opts)
	if err != nil {
		return nil, err
	}
	return &TCPAggregator{id: id, plan: plan, hub: hub, meter: meter}, nil
}

// Addr returns the hub's listen address (useful with ":0" listeners).
func (a *TCPAggregator) Addr() string { return a.hub.Addr() }

// Meter returns the node's shared meter (uplink and hub directions).
func (a *TCPAggregator) Meter() *comm.Meter { return a.meter }

// DialParent connects the uplink to the parent hub at addr, retrying with
// backoff, and reports to the hub's observer.
func (a *TCPAggregator) DialParent(ctx context.Context, addr string) error {
	up, err := DialTCPUplink(ctx, addr, a.id, a.plan.Parent(a.id), a.meter, TCPOptions{Obs: a.hub.ob})
	if err != nil {
		return err
	}
	a.up = up
	return nil
}

// Accept waits for all of the aggregator's children to connect.
func (a *TCPAggregator) Accept(ctx context.Context) error { return a.hub.Accept(ctx) }

// Node returns the aggregator endpoint: Send routes to the parent over the
// uplink (or to a connected child via the hub); Recv yields the children's
// messages.
func (a *TCPAggregator) Node() Node { return &tcpAggNode{a} }

// Close shuts down the hub and, when connected, the uplink.
func (a *TCPAggregator) Close() {
	a.hub.Close()
	if a.up != nil {
		a.up.Close()
	}
}

type tcpAggNode struct{ a *TCPAggregator }

func (n *tcpAggNode) ID() int { return n.a.id }

func (n *tcpAggNode) Send(ctx context.Context, to int, msg *comm.Message) error {
	if to == n.a.plan.Parent(n.a.id) {
		if n.a.up == nil {
			return fmt.Errorf("distributed: aggregator %d has no parent uplink (DialParent not called)", n.a.id)
		}
		return n.a.up.Send(ctx, to, msg)
	}
	return n.a.hub.Node().Send(ctx, to, msg)
}

func (n *tcpAggNode) Recv(ctx context.Context) (*comm.Message, error) {
	return n.a.hub.Node().Recv(ctx)
}
