package main

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/comm"
	"repro/internal/distributed"
	"repro/internal/obs"
)

// runRoles runs every role in its own goroutine under one context and waits
// for all of them. The first role to fail cancels the rest, so one party's
// error ends the repetition as one error within its deadline instead of
// leaving its peers blocked in Recv.
func runRoles(ctx context.Context, roles []func(context.Context) error) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg    sync.WaitGroup
		once  sync.Once
		cause error // the first failure; later ones are its echo
	)
	for _, role := range roles {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := role(ctx); err != nil {
				once.Do(func() { cause = err })
				cancel()
			}
		}()
	}
	wg.Wait()
	return cause
}

// cluster is one loopback TCP deployment of a plan: the root hub, the plan's
// aggregators and one uplink per server, goroutines of this process joined by
// real sockets and the binary codec. All endpoints share one meter, so every
// send is counted exactly once and the meter's total is the run's words.
type cluster struct {
	plan   *distributed.Plan
	meter  *comm.Meter
	root   *distributed.TCPCoordinator
	aggs   []*distributed.TCPAggregator // in plan.Aggregators() order
	leaves []*distributed.TCPServer     // by server ID
}

// dialCluster listens, dials and accepts every edge of topo over s servers.
// ob, when not nil, is attached to every endpoint (the traced pass).
func dialCluster(ctx context.Context, topo distributed.Topology, s int, ob *obs.Observer) (*cluster, error) {
	plan, err := topo.Plan(s)
	if err != nil {
		return nil, err
	}
	opts := distributed.TCPOptions{Obs: ob}
	c := &cluster{plan: plan, meter: comm.NewMeter(), leaves: make([]*distributed.TCPServer, s)}
	c.root, err = distributed.NewTCPRoot("127.0.0.1:0", plan, c.meter, opts)
	if err != nil {
		return nil, err
	}
	addr := map[int]string{comm.CoordinatorID: c.root.Addr()}
	for _, id := range plan.Aggregators() {
		agg, err := distributed.NewTCPAggregator("127.0.0.1:0", id, plan, c.meter, opts)
		if err != nil {
			c.close()
			return nil, err
		}
		c.aggs = append(c.aggs, agg)
		addr[id] = agg.Addr()
	}
	// Every listener is up, so the edges can connect in any order.
	roles := []func(context.Context) error{c.root.Accept}
	for k, agg := range c.aggs {
		parent := plan.Parent(plan.Aggregators()[k])
		roles = append(roles, func(ctx context.Context) error {
			if err := agg.DialParent(ctx, addr[parent]); err != nil {
				return err
			}
			return agg.Accept(ctx)
		})
	}
	for i := 0; i < s; i++ {
		roles = append(roles, func(ctx context.Context) error {
			parent := plan.Parent(i)
			up, err := distributed.DialTCPUplink(ctx, addr[parent], i, parent, c.meter, opts)
			c.leaves[i] = up
			return err
		})
	}
	if err := runRoles(ctx, roles); err != nil {
		c.close()
		return nil, fmt.Errorf("tcp set-up: %w", err)
	}
	return c, nil
}

// close shuts every endpoint; it tolerates a half-built cluster.
func (c *cluster) close() {
	for _, up := range c.leaves {
		if up != nil {
			up.Close()
		}
	}
	for _, agg := range c.aggs {
		agg.Close()
	}
	if c.root != nil {
		c.root.Close()
	}
}

// run drives one protocol run role by role: proto.Server on every uplink,
// AggregateTree on every aggregator and proto.Coordinator on the root. The
// connections outlive the run, so repetitions reuse them; after a failed run
// the streams may hold half a frame and the cluster must be dialled again.
func (c *cluster) run(ctx context.Context, proto distributed.Protocol, inputs []distributed.Input, tc *traceCtx) (*distributed.Result, error) {
	c.meter.Reset()
	var res *distributed.Result
	roles := []func(context.Context) error{func(ctx context.Context) error {
		id := tc.begin(spanCoordinator)
		defer tc.end(id)
		var err error
		res, err = proto.Coordinator(ctx, tc.node(c.root.Node(), id))
		return err
	}}
	for _, agg := range c.aggs {
		roles = append(roles, func(ctx context.Context) error {
			id := tc.begin(spanAggregator)
			defer tc.end(id)
			return distributed.AggregateTree(ctx, proto, tc.node(agg.Node(), id), c.plan)
		})
	}
	for i, up := range c.leaves {
		roles = append(roles, func(ctx context.Context) error {
			id := tc.begin(spanServer)
			defer tc.end(id)
			err := proto.Server(ctx, tc.node(up.Node(), id), inputs[i])
			tc.flushInput(inputs[i], id)
			return err
		})
	}
	if err := runRoles(ctx, roles); err != nil {
		return nil, err
	}
	return res, nil
}

// wordsByDirection splits the meter's total into what the root sent
// (downlink) and everything else (uplink).
func wordsByDirection(meter *comm.Meter, plan *distributed.Plan) (up, down float64) {
	for _, child := range plan.Children(comm.CoordinatorID) {
		down += meter.LinkWords(comm.CoordinatorID, child)
	}
	return meter.Words() - down, down
}
