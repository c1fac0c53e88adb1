// Package distsketch is the public face of the repository: distributed
// matrix sketching and PCA protocols over a star network of s servers and
// one coordinator, with exact communication accounting, deadlines,
// cancellation, straggler policies, and deterministic fault injection.
//
// The package re-exports the stable surface of the internal packages so
// applications (and the examples/ directory) depend on one import path:
//
//	ctx, cancel := context.WithTimeout(ctx, 5*time.Second)
//	defer cancel()
//	res, err := distsketch.Run(ctx,
//	    distsketch.FDMerge{Eps: 0.1, K: 5},
//	    parts,
//	    distsketch.WithSeed(1),
//	)
//
// The run's deadline is the context's: when it expires, every party's
// pending Send/Recv unblocks and Run returns the context's error.
//
// Protocol values are plain structs; the same value also drives the two
// real-TCP roles (see TCPCoordinator/TCPServer and cmd/distsketch), where
// Validate checks it before a socket opens. Each protocol is a row of the
// paper's Tables 1–2, Theorem 7 or 9, the §3.3 Case-1 exact protocol, or the
// AᵀB product estimand. The FD shrink rule the fd-merge protocols run has
// one parameter, Config.Alpha (WithAlpha): α-FD with α ∈ (0,1], 1 by
// default, mergeable at every α.
package distsketch

import (
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/distributed"
	"repro/internal/matrix"
	"repro/internal/parallel"
	"repro/internal/pca"
)

// SetParallelism sets the width of the process-wide compute worker pool
// shared by every kernel (FD shrinks, SVDs, matrix products); n <= 0 resets
// to GOMAXPROCS. Parallelism only affects local compute speed — metered
// communication word counts are identical at every width. The width is
// process-wide and stays set until the next call.
func SetParallelism(n int) { parallel.SetWorkers(n) }

// Parallelism returns the current compute worker pool width.
func Parallelism() int { return parallel.Workers() }

// Dense is the row-major dense matrix all protocols consume and produce.
type Dense = matrix.Dense

// NewDense allocates a zero rows×cols matrix.
func NewDense(rows, cols int) *Dense { return matrix.New(rows, cols) }

// NewDenseFromRows builds a matrix from row slices.
func NewDenseFromRows(rows [][]float64) *Dense { return matrix.NewFromRows(rows) }

// Message and Meter expose the transport-level accounting types.
type (
	Message = comm.Message
	Meter   = comm.Meter
)

// NewMeter creates a communication meter (shareable across runs).
var NewMeter = comm.NewMeter

// StepFor returns the §3.3 quantization step for an n×d input at accuracy
// eps; pass it to WithQuantization.
var StepFor = comm.StepFor

// WirePrecision is the wire width of matrix payloads: WireFloat64 (the
// default, exact) or WireFloat32 (half the metered words per sketch; senders
// pre-round, so transports stay bit-identical, at an additive covariance-
// error cost bounded by Float32RoundTripError). Pass one via
// Config.WirePrecision or WithWirePrecision; it cannot be combined with
// quantization.
type WirePrecision = comm.Precision

const (
	WireFloat64 = comm.Float64
	WireFloat32 = comm.Float32
)

// ParseWirePrecision converts a -wire-precision flag string ("float64",
// "float32", "f64", "f32", …; "" = float64) to a WirePrecision.
var ParseWirePrecision = comm.ParsePrecision

// Float32RoundTripError bounds the additive covariance-error cost of one
// rows×cols matrix with entries in [-maxAbs, maxAbs] crossing a float32
// wire — the certificate charge per rounded payload.
var Float32RoundTripError = comm.Float32RoundTripError

// CoordinatorID is the conventional endpoint ID of the coordinator.
const CoordinatorID = distributed.CoordinatorID

// Protocol is one distributed sketching protocol, split into its two party
// roles; any value below (FDMerge, SVS, Adaptive, the PCA family, …)
// implements it.
type Protocol = distributed.Protocol

// Env carries the cluster shape a protocol runs in; Run fills it in
// automatically, direct TCP callers set it on the protocol value.
type Env = distributed.Env

// Result is the coordinator's output plus the run's communication totals.
type Result = distributed.Result

// Config is the cross-cutting per-run configuration shared by every
// protocol (seed, quantization step, wire precision, straggler policy, and the fd-merge shrink
// rule's Alpha ∈ (0,1]: only the bottom ⌈αℓ⌉ retained directions absorb
// each shrink, 0 meaning 1, the classic FD shrink).
type Config = distributed.Config

// Validate returns a protocol's first out-of-range parameter, its Env.Config
// included, as an error. Run checks it before any party starts; callers
// driving the TCP roles directly should call it before opening a socket.
var Validate = distributed.Validate

// Estimand is what a protocol estimates — AᵀA of one matrix
// (EstimandCovariance) or AᵀB of a row-aligned pair (EstimandProduct).
// Every Protocol declares one; Run validates the per-server inputs
// against it, so a workload/protocol mismatch fails loudly up front.
type Estimand = distributed.Estimand

const (
	EstimandCovariance = distributed.EstimandCovariance
	EstimandProduct    = distributed.EstimandProduct
)

// Input is one server's workload input: a single covariance shard
// (CovarianceInput), or an aligned (A, B) shard pair with the global index
// of its first row (ProductInput). RunWorkload consumes a slice of these;
// ProductShards / ProductShardsDense build aligned slices under the
// contiguous row partition.
type Input = distributed.Input

var (
	CovarianceInput    = distributed.CovarianceInput
	ProductInput       = distributed.ProductInput
	ProductShards      = distributed.ProductShards
	ProductShardsDense = distributed.ProductShardsDense
)

// The concrete protocols. Covariance sketches:
type (
	// FDMerge is the deterministic Theorem 2 protocol (FD sketches merged
	// at the coordinator); the only protocol honouring a straggler quorum.
	FDMerge = distributed.FDMerge
	// SVS is the §3.1 randomized (α,0)-sketch with two-round calibration.
	SVS = distributed.SVS
	// RowSampling is the squared-norm row-sampling baseline [10].
	RowSampling = distributed.RowSampling
	// Adaptive is the Theorem 7 adaptive (ε,k)-sketch.
	Adaptive = distributed.Adaptive
	// LowRankExact is the §3.3 Case-1 exact protocol (rank ≤ 2k inputs).
	LowRankExact = distributed.LowRankExact
)

// Product protocols (EstimandProduct — the output approximates AᵀB):
type (
	// CoordinatedProduct is the coordinated priority-sampling AᵀB
	// protocol: servers hash global row indices with the shared seed, keep
	// their top-priority rows of A and B, and the coordinator combines the
	// samples into an unbiased estimate with an a-priori certificate. One
	// round, words proportional to the samples' nonzeros — it beats
	// sketch-based baselines when rows are sparse.
	CoordinatedProduct = distributed.CoordinatedProduct
)

// PCA protocols (§4 / Theorem 9):
type (
	// SketchPCA answers PCA from any covariance protocol's sketch (Lemma 8):
	// over Adaptive at ε/2 it is Theorem 9's sketch-then-solve, over
	// FDMerge at ε/2 the FD-merge baseline [22].
	SketchPCA = distributed.SketchPCA
	// BWZ is the subspace-embedding batch solve on the raw partition.
	BWZ = distributed.BWZ
	// PCACombined is the full Theorem 9 pipeline (local sketches + solve).
	PCACombined = distributed.PCACombined
)

// Parameter structs.
type (
	AdaptiveParams = distributed.AdaptiveParams
	PCAParams      = distributed.PCAParams
)

// Topology selects the run's aggregation shape: Star() (every server
// reports straight to the coordinator — the default and the paper's model)
// or Tree(fanout) (k-ary aggregation tree; interior nodes merge their
// subtree's FD sketches and forward one summary upward). Plan is a
// topology materialized for s servers: it names every node's Role (leaf,
// aggregator, root), parent, children, and subtree leaf span, and computes
// per-subtree straggler quorums.
type (
	Topology = distributed.Topology
	Plan     = distributed.Plan
	Role     = distributed.Role
)

var (
	Star = distributed.Star
	Tree = distributed.Tree
)

const (
	RoleLeaf       = distributed.RoleLeaf
	RoleAggregator = distributed.RoleAggregator
	RoleRoot       = distributed.RoleRoot
)

// SamplingFn selects the SVS sampling function (SampleQuadratic or
// SampleLinear) — the typed replacement for the old `useLinear bool`.
type SamplingFn = distributed.SamplingFn

const (
	// SampleQuadratic is the Theorem 6 sampling function (default).
	SampleQuadratic = distributed.SampleQuadratic
	// SampleLinear is the Theorem 5 sampling function.
	SampleLinear = distributed.SampleLinear
)

// ParseSamplingFn converts a flag string ("quadratic"/"linear") to a
// SamplingFn.
var ParseSamplingFn = distributed.ParseSamplingFn

// Run executes a protocol in-process over len(parts) simulated servers and
// returns the coordinator's result; ctx bounds the run, and the RunOption
// values set fault plans, straggler policies, quantization, and seeding.
var Run = distributed.Run

// RunWorkload is the estimand-general driver beneath Run: server i consumes
// inputs[i], which may be a covariance shard or an aligned (A, B) product
// pair. Use it with CovarianceInput per RowSource to stream shards (handing
// it file-backed sources, OpenSource plus NewSectionSource per shard, runs
// the whole protocol out of core), or with ProductShards /
// ProductShardsDense to run product protocols such as CoordinatedProduct.
var RunWorkload = distributed.RunWorkload

// RunOption configures a Run invocation.
type RunOption = distributed.RunOption

var (
	WithSeed          = distributed.WithSeed
	WithQuantization  = distributed.WithQuantization
	WithWirePrecision = distributed.WithWirePrecision
	WithAlpha         = distributed.WithAlpha
	WithStragglers    = distributed.WithStragglers
	WithTopology      = distributed.WithTopology
	WithFaults        = distributed.WithFaults
	WithMeter         = distributed.WithMeter
)

// Quality metrics: IsEpsKSketch checks the Definition 3 guarantee, CovErr
// is Definition 1's covariance error ‖AᵀA−BᵀB‖₂, PCAQualityRatio is
// Definition 4's (1+ε) Frobenius ratio, and SketchPCs extracts top-k
// principal components from a covariance sketch (Lemma 8).
var (
	IsEpsKSketch    = core.IsEpsKSketch
	CovErr          = core.CovErr
	PCAQualityRatio = pca.QualityRatio
	SketchPCs       = pca.SketchPCs
)

// Product-workload metrics: ProductCertificate is the a-priori coordinated-
// sampling error bound (‖Est−AᵀB‖F ≤ cert with probability ≥ 3/4 at sample
// size s), ProductErr the realized Frobenius error ‖Est−AᵀB‖F.
var (
	ProductCertificate = core.ProductCertificate
	ProductErr         = core.ProductErr
)
