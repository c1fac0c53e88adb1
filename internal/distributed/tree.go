package distributed

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/comm"
	"repro/internal/fd"
	"repro/internal/matrix"
)

// treeAggregator is implemented by protocols whose summaries are mergeable
// at intermediate nodes and can therefore run under a tree Topology.
// Aggregate is the role of one aggregator: gather the child summaries,
// merge, forward one summary to the parent. Protocols without it are
// star-only, and Validate rejects them under a tree topology.
type treeAggregator interface {
	Aggregate(ctx context.Context, node Node, plan *Plan) error
}

// errStarOnly is the error for a tree run of a star-only protocol.
func errStarOnly(p Protocol) error {
	return fmt.Errorf("distributed: protocol %s does not support tree aggregation (it is star-only: only fd-merge merges summaries at interior nodes)", p.Name())
}

// AggregateTree runs proto's aggregator role on node under plan — the entry
// point a TCP aggregator process drives directly (in-process runs spawn
// aggregators automatically).
func AggregateTree(ctx context.Context, proto Protocol, node Node, plan *Plan) error {
	ta, ok := proto.(treeAggregator)
	if !ok {
		return errStarOnly(proto)
	}
	return ta.Aggregate(ctx, node, plan)
}

// fdSubtreeGather is one tree-node gather of "fd-sketch" summaries: node
// (an aggregator or the root) collects one summary from each child under
// the straggler policy, with the quorum scaled to this subtree
// (Plan.SubtreeQuorum) and counted in covered leaves — a child that itself
// proceeded without some of its leaves reports them in the message's Ints,
// and those leaves do not count toward this node's quorum either. The
// returned parts are in child order (the determinism anchor: merge order
// never depends on arrival order) and missing lists the absent leaf IDs.
//
// The returned release recycles the gathered messages' pooled buffers (a
// no-op off the socket transport). Callers may invoke it once every part
// has been consumed: a canonical merge of two or more parts never aliases
// them (mergePair always allocates), but a single part passes through
// fd.MergeCanonical by reference, so callers must skip release in that
// case and let the GC reclaim the message.
func fdSubtreeGather(ctx context.Context, node Node, plan *Plan, d int, cfg Config) (parts []*matrix.Dense, missing []int, release func(), err error) {
	self := node.ID()
	children := plan.Children(self)
	byChild := make(map[int]*comm.Message, len(children))
	pol := cfg.Stragglers
	spec := gatherSpec{Kinds: []string{"fd-sketch"}, Dims: comm.Dims{D: d}, Peers: children, Quorum: func(done []int) bool {
		if pol.Quorum <= 0 {
			return false
		}
		covered := 0
		for _, c := range done {
			covered += plan.Leaves(c) - len(byChild[c].Ints)
		}
		return covered >= plan.SubtreeQuorum(pol.Quorum, self)
	}}
	if _, err := gatherFrom(ctx, node, cfg, spec, func(msg *comm.Message) error {
		byChild[msg.From] = msg
		return nil
	}); err != nil {
		return nil, nil, nil, err
	}
	for _, c := range children {
		lo, hi := plan.LeafSpan(c)
		msg := byChild[c]
		if msg == nil {
			// The whole child subtree missed the deadline.
			for leaf := lo; leaf < hi; leaf++ {
				missing = append(missing, leaf)
			}
			continue
		}
		for _, leaf := range msg.Ints {
			if int(leaf) < lo || int(leaf) >= hi {
				return nil, nil, nil, fmt.Errorf("distributed: child %d reported missing leaf %d outside its span [%d,%d)", c, leaf, lo, hi)
			}
			missing = append(missing, int(leaf))
		}
		parts = append(parts, recvMatrix(msg))
	}
	sort.Ints(missing)
	release = func() {
		for _, msg := range byChild {
			msg.Release()
		}
	}
	return parts, missing, release, nil
}

// coordFDGather is one node's side of the FD merge — the root's for any plan
// (the star is the depth-1 case) and every aggregator's: gather the
// children's summaries and reduce them with the canonical merge. Because
// the canonical reduction is grouping-invariant over consecutive
// power-of-two groups (see fd.MergeCanonical), the result is bit-identical
// across star and every power-of-two fan-out.
func coordFDGather(ctx context.Context, node Node, plan *Plan, d, ell int, cfg Config) (*matrix.Dense, []int, error) {
	parts, missing, release, err := fdSubtreeGather(ctx, node, plan, d, cfg)
	if err != nil {
		return nil, nil, err
	}
	cfg.observer().TreeMerge(plan.Height(node.ID()), len(parts), len(missing))
	sk, err := fd.MergeCanonical(d, ell, parts, fd.Options{Obs: cfg.Obs, Alpha: cfg.Alpha})
	if err != nil {
		return nil, nil, err
	}
	if len(parts) >= 2 {
		release() // sk is freshly merged; the gathered payloads are done
	}
	return sk, missing, nil
}

// Aggregate implements treeAggregator for FDMerge: merge the child
// summaries with the canonical reduction and forward one ℓ-row summary (at
// most ℓ·d words, like any leaf's) to the parent, missing leaves attached.
func (p FDMerge) Aggregate(ctx context.Context, node Node, plan *Plan) error {
	cfg := p.Env.Config
	sk, missing, err := coordFDGather(ctx, node, plan, p.Env.Dim, fd.SketchSize(p.Eps, p.K), cfg)
	if err != nil {
		return err
	}
	parent := plan.Parent(node.ID())
	cfg.observer().TreeForward(plan.Height(node.ID()), node.ID(), parent)
	return cfg.sendMatrix(ctx, node, parent, "fd-sketch", sk, missing...)
}
