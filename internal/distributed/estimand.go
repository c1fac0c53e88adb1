package distributed

import (
	"fmt"

	"repro/internal/matrix"
	"repro/internal/workload"
)

// Estimand is what a protocol estimates — the workload seam of the runtime.
// Historically every layer assumed the answer is a covariance sketch of one
// matrix (AᵀA); the estimand layer makes that assumption explicit so
// two-matrix workloads (AᵀB via coordinated sampling) run through the same
// driver, transports, and meter without a parallel stack.
type Estimand int

const (
	// EstimandCovariance is the single-matrix workload: the protocol's
	// output approximates AᵀA (a covariance sketch, Gram matrix, or PCs).
	// Each server holds one row shard of A.
	EstimandCovariance Estimand = iota
	// EstimandProduct is the two-matrix workload: the protocol's output
	// approximates AᵀB for row-aligned matrices A (n×d_A) and B (n×d_B).
	// Each server holds an aligned (A-shard, B-shard) pair covering the
	// same global rows.
	EstimandProduct
)

// String returns the flag-friendly name of the estimand.
func (e Estimand) String() string {
	switch e {
	case EstimandCovariance:
		return "covariance"
	case EstimandProduct:
		return "product"
	default:
		return fmt.Sprintf("estimand(%d)", int(e))
	}
}

// Input is one server's workload input. A covariance shard sets A only; a
// product shard sets the aligned (A, B) pair plus the global index of its
// first row (Offset), which coordinated sampling hashes so that every
// server's priorities refer to the same global row identity.
//
// Protocols unwrap the Input through Covariance or Product, which reject a
// mismatched shape loudly — a covariance protocol handed a product pair (or
// vice versa) is a configuration error, never a silent truncation.
type Input struct {
	// A is the primary row source (the only one for covariance workloads).
	A RowSource
	// B is the second row source of a product workload; nil for covariance.
	B RowSource
	// Offset is the global index of the shard's first row. Product
	// protocols use it to derive each local row's global identity
	// (Offset+i); covariance protocols ignore it.
	Offset int
}

// CovarianceInput wraps a single covariance shard.
func CovarianceInput(src RowSource) Input { return Input{A: src} }

// ProductInput wraps an aligned (A-shard, B-shard) pair whose first row has
// the given global index.
func ProductInput(a, b RowSource, offset int) Input {
	return Input{A: a, B: b, Offset: offset}
}

// Covariance unwraps a covariance shard, failing loudly when the input is a
// product pair (proto names the protocol in the error).
func (in Input) Covariance(proto string) (RowSource, error) {
	if in.A == nil {
		return nil, fmt.Errorf("distributed: %s: input has no A source", proto)
	}
	if in.B != nil {
		return nil, fmt.Errorf("distributed: %s estimates a covariance (AᵀA) and takes one source per server, but was given a product (A, B) input pair; use a product protocol such as coord-product, or drop the B shard", proto)
	}
	return in.A, nil
}

// Product unwraps an aligned product pair, failing loudly when the input is
// a single covariance shard.
func (in Input) Product(proto string) (a, b RowSource, offset int, err error) {
	if in.A == nil {
		return nil, nil, 0, fmt.Errorf("distributed: %s: input has no A source", proto)
	}
	if in.B == nil {
		return nil, nil, 0, fmt.Errorf("distributed: %s estimates a matrix product (AᵀB) and needs an aligned (A, B) source pair per server, but was given a single covariance shard; build inputs with ProductInput/ProductShards", proto)
	}
	return in.A, in.B, in.Offset, nil
}

// CovarianceInputs wraps each source in a covariance Input — the adapter
// Run uses so the single-matrix entry point flows through the workload
// seam unchanged.
func CovarianceInputs(sources []RowSource) []Input {
	inputs := make([]Input, len(sources))
	for i, src := range sources {
		inputs[i] = CovarianceInput(src)
	}
	return inputs
}

// ProductShards pairs per-server A and B sources under the contiguous row
// partition of n global rows: shard i covers [lo, hi) = ContiguousRange(n,
// s, i), so its Offset is lo — the alignment proof that server i's A rows
// and B rows carry the same global indices. The two slices must have the
// same length, and each pair's sources must agree on their row count.
func ProductShards(n int, aSrcs, bSrcs []RowSource) ([]Input, error) {
	if len(aSrcs) != len(bSrcs) {
		return nil, fmt.Errorf("distributed: ProductShards with %d A shards, %d B shards", len(aSrcs), len(bSrcs))
	}
	if len(aSrcs) == 0 {
		return nil, fmt.Errorf("distributed: ProductShards with no shards")
	}
	s := len(aSrcs)
	inputs := make([]Input, s)
	for i := range aSrcs {
		lo, hi := workload.ContiguousRange(n, s, i)
		na, _ := aSrcs[i].Dims()
		nb, _ := bSrcs[i].Dims()
		if na != hi-lo || nb != hi-lo {
			return nil, fmt.Errorf("distributed: ProductShards: shard %d covers global rows [%d,%d) but A has %d rows, B has %d", i, lo, hi, na, nb)
		}
		inputs[i] = ProductInput(aSrcs[i], bSrcs[i], lo)
	}
	return inputs, nil
}

// ProductShardsDense splits row-aligned dense matrices a (n×d_A) and b
// (n×d_B) into s contiguous shard pairs — the in-memory convenience behind
// the CoordinatedProduct examples and tests.
func ProductShardsDense(a, b *matrix.Dense, s int) ([]Input, error) {
	na, _ := a.Dims()
	nb, _ := b.Dims()
	if na != nb {
		return nil, fmt.Errorf("distributed: product matrices must be row-aligned: A has %d rows, B has %d", na, nb)
	}
	if s <= 0 {
		return nil, fmt.Errorf("distributed: ProductShardsDense with s=%d", s)
	}
	aSrcs := make([]RowSource, s)
	bSrcs := make([]RowSource, s)
	for i := 0; i < s; i++ {
		lo, hi := workload.ContiguousRange(na, s, i)
		aSrcs[i] = workload.NewDenseSource(a.SliceRows(lo, hi))
		bSrcs[i] = workload.NewDenseSource(b.SliceRows(lo, hi))
	}
	return ProductShards(na, aSrcs, bSrcs)
}

// checkInputs validates the per-server inputs against the protocol's
// declared estimand before any party goroutine is spawned, and returns the
// run's column dimensions (dB is 0 for covariance workloads). This is the
// Run-level mixed-workload rejection: shape errors surface as descriptive
// errors here, never as a hung or silently-wrong protocol.
func checkInputs(proto Protocol, inputs []Input) (dA, dB int, err error) {
	name := proto.Name()
	switch proto.Estimand() {
	case EstimandCovariance:
		for i, in := range inputs {
			if _, err := in.Covariance(name); err != nil {
				return 0, 0, fmt.Errorf("server %d: %w", i, err)
			}
		}
		_, dA = inputs[0].A.Dims()
		for i, in := range inputs {
			if _, d := in.A.Dims(); d != dA {
				return 0, 0, fmt.Errorf("distributed: %s: server %d's shard has %d columns, server 0 has %d", name, i, d, dA)
			}
		}
		return dA, 0, nil
	case EstimandProduct:
		for i, in := range inputs {
			if _, _, _, err := in.Product(name); err != nil {
				return 0, 0, fmt.Errorf("server %d: %w", i, err)
			}
		}
		_, dA = inputs[0].A.Dims()
		_, dB = inputs[0].B.Dims()
		covered := make([][2]int, 0, len(inputs))
		for i, in := range inputs {
			na, da := in.A.Dims()
			nb, db := in.B.Dims()
			if da != dA || db != dB {
				return 0, 0, fmt.Errorf("distributed: %s: server %d's shards are %d/%d columns, server 0's are %d/%d", name, i, da, db, dA, dB)
			}
			if na != nb {
				return 0, 0, fmt.Errorf("distributed: %s: server %d's product shards are misaligned: A has %d rows, B has %d — each server must hold the same global rows of A and B (see ProductShards)", name, i, na, nb)
			}
			if in.Offset < 0 {
				return 0, 0, fmt.Errorf("distributed: %s: server %d has negative row offset %d", name, i, in.Offset)
			}
			covered = append(covered, [2]int{in.Offset, in.Offset + na})
		}
		// Distinct global identities are what make the coordinated estimate
		// unbiased: overlapping shard windows would double-count rows.
		for i := range covered {
			for j := i + 1; j < len(covered); j++ {
				a, b := covered[i], covered[j]
				if a[0] < b[1] && b[0] < a[1] {
					return 0, 0, fmt.Errorf("distributed: %s: servers %d and %d cover overlapping global rows [%d,%d) and [%d,%d); shard offsets must partition the row space (see ProductShards / workload.ContiguousRange)", name, i, j, a[0], a[1], b[0], b[1])
				}
			}
		}
		return dA, dB, nil
	default:
		return 0, 0, fmt.Errorf("distributed: %s declares unknown estimand %v", name, proto.Estimand())
	}
}
