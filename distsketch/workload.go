package distsketch

import (
	"repro/internal/workload"
)

// Workload generation and matrix I/O, re-exported so examples and
// applications can produce inputs without reaching into internal packages.

// Partition selects how Split assigns rows to servers.
type Partition = workload.Partition

const (
	// Contiguous gives server i the i-th contiguous row block.
	Contiguous = workload.Contiguous
	// RoundRobin deals rows like cards.
	RoundRobin = workload.RoundRobin
	// Skewed gives early servers geometrically more rows.
	Skewed = workload.Skewed
	// RandomAssign assigns every row to a uniformly random server.
	RandomAssign = workload.RandomAssign
)

// Split partitions a into s per-server row blocks.
var Split = workload.Split

// RowSource is the streaming-ingestion abstraction every protocol server
// consumes: Dims, then Next row by row, Reset for two-pass protocols. See
// the workload package for the full contract (copy-on-next: the caller owns
// every returned slice).
type RowSource = workload.RowSource

// SparseRowSource is a RowSource that can additionally deliver rows in
// sparse form (SparseNext), letting FD servers take the nnz-proportional
// update path.
type SparseRowSource = workload.SparseRowSource

// Source constructors and helpers: wrap in-memory matrices, open .dskm/.csv
// files out of core, window a source to a contiguous shard, or materialize a
// source back into a dense matrix.
var (
	NewDenseSource  = workload.NewDenseSource
	NewSparseSource = workload.NewSparseSource
	// NewSparseGaussianSource streams n×d rows whose cells are
	// Bernoulli(density)·N(0,1), re-seeding on Reset so two-pass protocols
	// replay identical rows without materializing the matrix.
	NewSparseGaussianSource = workload.NewSparseGaussianSource
	OpenSource              = workload.OpenSource
	OpenFileSource          = workload.OpenFileSource
	OpenCSVSource           = workload.OpenCSVSource
	NewSectionSource        = workload.NewSectionSource
	Materialize             = workload.Materialize
	DenseSources            = workload.DenseSources
	ContiguousRange         = workload.ContiguousRange
)

// Synthetic matrix generators covering the regimes the theory
// distinguishes: low-rank structure, flat adversarial spectra, power-law
// spectra, clustered point clouds, integer/rank-bounded inputs.
var (
	Gaussian           = workload.Gaussian
	SignMatrix         = workload.SignMatrix
	LowRankPlusNoise   = workload.LowRankPlusNoise
	PowerLawSpectrum   = workload.PowerLawSpectrum
	ClusteredGaussians = workload.ClusteredGaussians
	DriftingSubspace   = workload.DriftingSubspace
	IntegerMatrix      = workload.IntegerMatrix
	ExactRank          = workload.ExactRank
	SparseRandom       = workload.SparseRandom
)

// Matrix file I/O (binary .dskm format plus CSV import/export).
var (
	LoadMatrix    = workload.LoadMatrix
	SaveMatrix    = workload.SaveMatrix
	LoadCSVMatrix = workload.LoadCSVMatrix
	SaveCSVMatrix = workload.SaveCSVMatrix
)
