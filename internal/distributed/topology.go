package distributed

import (
	"fmt"

	"repro/internal/comm"
)

// The aggregation topology decides who talks to whom: in the star every
// server reports straight to the coordinator (the paper's model), while a
// k-ary tree interposes aggregator nodes that each merge the O(d·ℓ)
// summaries of their subtree and forward a single summary upward. The tree
// keeps the coordinator's fan-in, memory, and wall clock at O(fanout)
// instead of O(s), at the price of one extra communication round per level —
// total words stay Θ(edges·ℓ·d) either way, and FD's mergeability (Theorem 2
// composes) keeps the (ε,k) guarantee at every depth.

// Role names an endpoint's function under a Plan, replacing the implicit
// "everything reports to the coordinator" convention.
type Role int

const (
	// RoleLeaf is a data-holding server (IDs 0..s-1).
	RoleLeaf Role = iota
	// RoleAggregator is an intermediate tree node that merges its children's
	// summaries (IDs s, s+1, …).
	RoleAggregator
	// RoleRoot is the coordinator (ID comm.CoordinatorID).
	RoleRoot
)

func (r Role) String() string {
	switch r {
	case RoleLeaf:
		return "leaf"
	case RoleAggregator:
		return "aggregator"
	case RoleRoot:
		return "root"
	}
	return fmt.Sprintf("Role(%d)", int(r))
}

// Topology selects the aggregation shape of a run. The zero value is the
// star; construct values with Star() or Tree(fanout).
type Topology struct {
	fanout int
}

// Star returns the flat topology: every server reports directly to the
// coordinator. This is the degenerate one-level tree and the default.
func Star() Topology { return Topology{} }

// Tree returns a k-ary aggregation tree with the given fan-out (≥ 2): each
// internal node merges at most fanout child summaries. A fan-out of s or
// more collapses back to the star.
func Tree(fanout int) Topology { return Topology{fanout: fanout} }

// IsStar reports whether the topology is the flat star.
func (t Topology) IsStar() bool { return t.fanout == 0 }

func (t Topology) String() string {
	if t.IsStar() {
		return "star"
	}
	return fmt.Sprintf("tree(fanout=%d)", t.fanout)
}

// Plan materializes the topology for s servers: leaves keep their server
// IDs 0..s-1, aggregators are numbered s, s+1, … level by level, and the
// root is the coordinator (comm.CoordinatorID).
//
// Grouping is consecutive: each aggregation level packs the previous
// level's nodes into groups of fanout in leaf order, so every node covers a
// contiguous leaf range. A trailing group of one is promoted unchanged to
// the next level instead of being wrapped in a pass-through aggregator —
// pass-throughs never re-sketch, so this also never pays a useless hop.
func (t Topology) Plan(s int) (*Plan, error) {
	if s <= 0 {
		return nil, fmt.Errorf("distributed: topology plan with s=%d", s)
	}
	if !t.IsStar() && t.fanout < 2 {
		return nil, fmt.Errorf("distributed: tree fan-out must be at least 2, got %d", t.fanout)
	}
	p := &Plan{
		servers:  s,
		topo:     t,
		parent:   make(map[int]int, s),
		children: make(map[int][]int),
		span:     make(map[int][2]int, 2*s),
		height:   make(map[int]int, 2*s),
	}
	level := make([]int, s)
	for i := 0; i < s; i++ {
		level[i] = i
		p.span[i] = [2]int{i, i + 1}
		p.height[i] = 0
	}
	next := s
	for !t.IsStar() && len(level) > t.fanout {
		up := level[:0:0]
		for lo := 0; lo < len(level); lo += t.fanout {
			hi := lo + t.fanout
			if hi > len(level) {
				hi = len(level)
			}
			group := level[lo:hi]
			if len(group) == 1 {
				up = append(up, group[0])
				continue
			}
			id := next
			next++
			p.adopt(id, group)
			p.aggs = append(p.aggs, id)
			up = append(up, id)
		}
		level = up
	}
	p.adopt(comm.CoordinatorID, level)
	return p, nil
}

// Plan is the materialized topology of one run: the parent/children maps,
// the contiguous leaf span and height of every node, and the aggregator
// spawn order. Plans are immutable after construction and safe to share.
type Plan struct {
	servers  int
	topo     Topology
	aggs     []int
	parent   map[int]int
	children map[int][]int
	span     map[int][2]int
	height   map[int]int
}

// adopt wires group as the ordered children of id and derives id's span and
// height from them.
func (p *Plan) adopt(id int, group []int) {
	kids := append([]int(nil), group...)
	p.children[id] = kids
	h := 0
	for _, c := range kids {
		p.parent[c] = id
		if p.height[c] > h {
			h = p.height[c]
		}
	}
	p.span[id] = [2]int{p.span[kids[0]][0], p.span[kids[len(kids)-1]][1]}
	p.height[id] = h + 1
}

// Servers returns the number of leaf servers s.
func (p *Plan) Servers() int { return p.servers }

// Topology returns the topology the plan was built from.
func (p *Plan) Topology() Topology { return p.topo }

// IsStar reports whether the plan has no aggregators (every leaf reports
// straight to the root) — true for Star() and for Tree(fanout ≥ s).
func (p *Plan) IsStar() bool { return len(p.aggs) == 0 }

// Aggregators returns the aggregator IDs in spawn order (level by level).
func (p *Plan) Aggregators() []int { return p.aggs }

// Children returns the ordered children of id (the root is
// comm.CoordinatorID). Leaves have none.
func (p *Plan) Children(id int) []int { return p.children[id] }

// Parent returns the parent of id (comm.CoordinatorID for the root's
// children).
func (p *Plan) Parent(id int) int {
	parent, ok := p.parent[id]
	if !ok {
		panic(fmt.Sprintf("distributed: node %d has no parent in plan", id))
	}
	return parent
}

// Role returns the named role of endpoint id under this plan.
func (p *Plan) Role(id int) Role {
	switch {
	case id == comm.CoordinatorID:
		return RoleRoot
	case id >= 0 && id < p.servers:
		return RoleLeaf
	default:
		return RoleAggregator
	}
}

// LeafSpan returns the contiguous leaf range [lo, hi) node id covers.
func (p *Plan) LeafSpan(id int) (lo, hi int) {
	sp, ok := p.span[id]
	if !ok {
		if id == comm.CoordinatorID {
			return 0, p.servers
		}
		panic(fmt.Sprintf("distributed: node %d not in plan", id))
	}
	return sp[0], sp[1]
}

// Leaves returns the number of leaf servers in node id's subtree.
func (p *Plan) Leaves(id int) int {
	lo, hi := p.LeafSpan(id)
	return hi - lo
}

// Height returns the height of node id: leaves are 0, each aggregation
// level adds one, and the root's height is the plan's Depth.
func (p *Plan) Height(id int) int {
	if id == comm.CoordinatorID {
		return p.Depth()
	}
	return p.height[id]
}

// Depth is the number of lockstep aggregation waves from leaves to root:
// 1 for the star, one more per aggregator level.
func (p *Plan) Depth() int {
	h := 0
	for _, c := range p.children[comm.CoordinatorID] {
		if p.height[c] > h {
			h = p.height[c]
		}
	}
	return h + 1
}

// Edges returns the number of uplinks in the plan (s leaf uplinks plus one
// per aggregator) — with every summary exactly ℓ·d words, the run's total
// cost is Edges()·ℓ·d.
func (p *Plan) Edges() int { return p.servers + len(p.aggs) }

// SubtreeQuorum scales the global quorum (counted in servers, as in
// StragglerPolicy) to node id's subtree: ⌈global·leaves/s⌉, the
// proportional share. Since Σ_v ⌈Q·L_v/s⌉ ≥ Q over any sibling set, every
// subtree meeting its local quorum implies the global one is met; a
// partitioned leaf can therefore only fail its own subtree's gathers.
func (p *Plan) SubtreeQuorum(global, id int) int {
	l := p.Leaves(id)
	q := (global*l + p.servers - 1) / p.servers
	if q > l {
		q = l
	}
	return q
}

func (p *Plan) String() string {
	return fmt.Sprintf("%s: s=%d aggregators=%d depth=%d edges=%d",
		p.topo, p.servers, len(p.aggs), p.Depth(), p.Edges())
}
