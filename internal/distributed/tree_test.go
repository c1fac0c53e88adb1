package distributed

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/fd"
	"repro/internal/matrix"
)

// TestTreeBitIdenticalToStar: for power-of-two fan-outs the consecutive
// grouping of a tree plan coincides with a grouping of the canonical
// balanced pairwise merge, so the root's sketch must equal the star's bit
// for bit — and the run's exact word/message/round totals must match the
// plan's edge count.
func TestTreeBitIdenticalToStar(t *testing.T) {
	ctx := context.Background()
	s, d := 8, 12
	eps, k := 0.25, 3
	_, parts := split(t, 3, 512, d, s)

	star, err := Run(ctx, FDMerge{Eps: eps, K: k}, parts, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	// With every leaf holding ≥ ℓ rows, all summaries (leaf and merged) are
	// the same size, so the star's per-edge cost extends to any tree:
	// Bits = Edges · (star bits / s).
	if star.Bits%int64(s) != 0 {
		t.Fatalf("star bits %d not uniform over %d edges", star.Bits, s)
	}
	perEdge := star.Bits / int64(s)
	for _, fanout := range []int{2, 4, 8} {
		plan, err := Tree(fanout).Plan(s)
		if err != nil {
			t.Fatal(err)
		}
		meter := comm.NewMeter()
		res, err := Run(ctx, FDMerge{Eps: eps, K: k}, parts,
			WithSeed(1), WithTopology(Tree(fanout)), WithMeter(meter))
		if err != nil {
			t.Fatalf("fanout %d: %v", fanout, err)
		}
		if !res.Sketch.Equal(star.Sketch) {
			t.Fatalf("fanout %d: sketch differs from star", fanout)
		}
		if wantBits := int64(plan.Edges()) * perEdge; res.Bits != wantBits {
			t.Fatalf("fanout %d: Bits = %d, want Edges·perEdge = %d", fanout, res.Bits, wantBits)
		}
		if res.Messages != int64(plan.Edges()) {
			t.Fatalf("fanout %d: Messages = %d, want %d", fanout, res.Messages, plan.Edges())
		}
		if res.Rounds != int64(plan.Depth()) {
			t.Fatalf("fanout %d: Rounds = %d, want depth %d", fanout, res.Rounds, plan.Depth())
		}
		// The tree's whole point: the coordinator's fan-in is its child count,
		// not s.
		rootKids := len(plan.Children(comm.CoordinatorID))
		if in := meter.InboundMessages(comm.CoordinatorID); in != int64(rootKids) {
			t.Fatalf("fanout %d: root inbound %d messages, want %d", fanout, in, rootKids)
		}
	}
}

// TestTreeGuaranteeNonPowerOfTwo: a fan-out that is not a power of two
// groups differently from the canonical pairwise merge, so bitwise equality
// is not promised — but the (ε,k) guarantee must still hold (Theorem 2
// composes under any merge order).
func TestTreeGuaranteeNonPowerOfTwo(t *testing.T) {
	ctx := context.Background()
	s, d := 9, 12
	eps, k := 0.25, 3
	a, parts := split(t, 5, 540, d, s)
	res, err := Run(ctx, FDMerge{Eps: eps, K: k}, parts, WithSeed(1), WithTopology(Tree(3)))
	if err != nil {
		t.Fatal(err)
	}
	ok, ce, bound, err := core.IsEpsKSketch(a, res.Sketch, eps, k)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("tree(3) sketch misses the (ε,k) guarantee: %v > %v", ce, bound)
	}
}

// TestTreeLargeFanIn drives s=1024 through a fan-out-32 tree and checks the
// coordinator's inbound message count stays at the plan's root fan-in while
// the sketch stays bit-identical to the star — the headline scaling claim.
func TestTreeLargeFanIn(t *testing.T) {
	if testing.Short() {
		t.Skip("s=1024 run in -short mode")
	}
	ctx := context.Background()
	// 8 rows per leaf ≥ ℓ = 5, so every summary is exactly ℓ rows and the
	// per-edge cost is uniform across levels.
	s, d := 1024, 16
	eps, k := 0.2, 0
	_, parts := split(t, 7, 8192, d, s)
	star, err := Run(ctx, FDMerge{Eps: eps, K: k}, parts, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Tree(32).Plan(s)
	if err != nil {
		t.Fatal(err)
	}
	meter := comm.NewMeter()
	res, err := Run(ctx, FDMerge{Eps: eps, K: k}, parts,
		WithSeed(1), WithTopology(Tree(32)), WithMeter(meter))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Sketch.Equal(star.Sketch) {
		t.Fatal("fanout-32 sketch differs from star at s=1024")
	}
	rootKids := int64(len(plan.Children(comm.CoordinatorID)))
	if in := meter.InboundMessages(comm.CoordinatorID); in != rootKids {
		t.Fatalf("root inbound %d messages, want %d (s=%d)", in, rootKids, s)
	}
	if star.Bits%int64(s) != 0 {
		t.Fatalf("star bits %d not uniform over %d edges", star.Bits, s)
	}
	if want := int64(plan.Edges()) * (star.Bits / int64(s)); res.Bits != want {
		t.Fatalf("Bits = %d, want %d", res.Bits, want)
	}
}

// TestTreeSubtreeQuorum: a partitioned leaf is absorbed by its subtree's
// proportional quorum and reported in Result.Missing, while raising the
// global quorum past what the leaf's subtree can cover fails the run even
// though the same quorum would pass in the star (the per-subtree semantics
// are strictly stronger). Both cases keep the partitioned node directly
// under the node whose gather decides, so the outcome doesn't depend on how
// straggler timeouts race across levels.
func TestTreeSubtreeQuorum(t *testing.T) {
	ctx := context.Background()
	pol := func(q int) RunOption {
		return WithStragglers(StragglerPolicy{Timeout: 300 * time.Millisecond, Quorum: q})
	}

	// Absorb: with s=5, f=2 singleton promotion makes leaf 4 a direct child
	// of the root (siblings: an aggregator covering leaves 0..3). Partition
	// leaf 4 under global quorum 3: the root covers 4 ≥ 3 leaves without it
	// and reports exactly Missing=[4]; everything below the root is fast, so
	// no other gather's timeout is in play.
	_, parts5 := split(t, 9, 320, 10, 5)
	cut4 := FaultPlan{Seed: 1, Partition: map[int]bool{4: true}}
	res, err := Run(ctx, FDMerge{Eps: 0.25, K: 2}, parts5,
		WithSeed(1), WithTopology(Tree(2)), WithFaults(cut4), pol(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Missing) != 1 || res.Missing[0] != 4 {
		t.Fatalf("Missing = %v, want [4]", res.Missing)
	}

	// Degrade: with s=8, f=4 leaf 5 sits under the aggregator covering
	// leaves 4..7, whose local quorum at global Q=7 is ⌈7·4/8⌉ = 4 — more
	// than its 3 reachable leaves — so the tree run must fail although the
	// star accepts 7 of 8.
	_, parts8 := split(t, 9, 320, 10, 8)
	cut5 := FaultPlan{Seed: 1, Partition: map[int]bool{5: true}}
	starRes, err := Run(ctx, FDMerge{Eps: 0.25, K: 2}, parts8,
		WithSeed(1), WithFaults(cut5), pol(7))
	if err != nil {
		t.Fatalf("star Q=7: %v", err)
	}
	if len(starRes.Missing) != 1 || starRes.Missing[0] != 5 {
		t.Fatalf("star Q=7: Missing = %v, want [5]", starRes.Missing)
	}
	if _, err := Run(ctx, FDMerge{Eps: 0.25, K: 2}, parts8,
		WithSeed(1), WithTopology(Tree(4)), WithFaults(cut5), pol(7)); err == nil {
		t.Fatal("tree Q=7 succeeded; want the partitioned subtree to fail its local quorum")
	}
}

// TestTreeRejectsStarOnlyProtocols: protocols whose summaries don't merge
// at interior nodes must reject WithTopology with a descriptive error.
func TestTreeRejectsStarOnlyProtocols(t *testing.T) {
	ctx := context.Background()
	_, parts := split(t, 11, 240, 10, 4)
	_, err := Run(ctx, SVS{Alpha: 0.3, Delta: 0.1}, parts, WithTopology(Tree(2)))
	if err == nil || !strings.Contains(err.Error(), "does not support tree aggregation") {
		t.Fatalf("SVS over tree: err = %v", err)
	}
}

// TestStrictGatherRejectsQuorum: protocols whose guarantee cannot survive a
// partial gather must reject a user-supplied quorum loudly instead of
// silently clearing it (the old pca behavior) or hanging.
func TestStrictGatherRejectsQuorum(t *testing.T) {
	ctx := context.Background()
	_, parts := split(t, 13, 240, 10, 4)
	pol := WithStragglers(StragglerPolicy{Timeout: time.Second, Quorum: 3})
	for _, tc := range []struct {
		name  string
		proto Protocol
	}{
		{"svs", SVS{Alpha: 0.3, Delta: 0.1}},
		{"pca-fd-merge", SketchPCA{Sketch: FDMerge{Eps: 0.15, K: 2}, K: 2}},
	} {
		_, err := Run(ctx, tc.proto, parts, pol)
		if err == nil || !strings.Contains(err.Error(), "not supported") {
			t.Fatalf("%s with quorum: err = %v", tc.name, err)
		}
	}
}

// TestMergeCanonicalGroupingInvariance: the property the whole tree path
// rests on — merging consecutive power-of-two groups canonically, then
// canonically merging the group results, yields the same matrix as one flat
// canonical merge.
func TestMergeCanonicalGroupingInvariance(t *testing.T) {
	d, ell := 8, 6
	_, parts := split(t, 17, 256, d, 16)
	sketches := make([]*matrix.Dense, len(parts))
	for i, p := range parts {
		sk := fd.New(d, ell, fd.Options{})
		sk.UpdateMatrix(p)
		m, err := sk.Matrix()
		if err != nil {
			t.Fatal(err)
		}
		sketches[i] = m
	}
	flat, err := fd.MergeCanonical(d, ell, sketches, fd.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, group := range []int{2, 4, 8} {
		var tops []*matrix.Dense
		for lo := 0; lo < len(sketches); lo += group {
			m, err := fd.MergeCanonical(d, ell, sketches[lo:lo+group], fd.Options{})
			if err != nil {
				t.Fatal(err)
			}
			tops = append(tops, m)
		}
		got, err := fd.MergeCanonical(d, ell, tops, fd.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(flat) {
			t.Fatalf("group size %d: hierarchical merge differs from flat canonical merge", group)
		}
	}
}
