package pca

import (
	"fmt"

	"repro/internal/matrix"
)

// CountSketch is the sparse oblivious subspace embedding used as the
// "sketch" primitive of the batch PCA baseline (our stand-in for the
// algorithm of Boutsidis–Woodruff–Zhong [5]): an m×n matrix S with one
// nonzero ±1 per column, at a row chosen by a hash of the column index.
// Because S is determined by (seed, m) alone, every server can apply its
// own column block S_i to its local rows without communication, and
// S·A = Σ_i S_i·A_i by linearity — exactly what the row-partition model
// needs.
type CountSketch struct {
	seed int64
	m    int
}

// NewCountSketch returns the embedding with m target rows derived from seed.
func NewCountSketch(seed int64, m int) *CountSketch {
	if m <= 0 {
		panic(fmt.Sprintf("pca: CountSketch with m=%d", m))
	}
	return &CountSketch{seed: seed, m: m}
}

// Rows returns the embedding dimension m.
func (c *CountSketch) Rows() int { return c.m }

// BucketSign returns the target row and sign for source index i; exposed so
// protocols can ship sparse (bucket, signed-row) forms when the local block
// has fewer rows than the embedding.
func (c *CountSketch) BucketSign(i int) (int, float64) { return c.bucketSign(i) }

// bucketSign returns the target row and sign for source index i.
func (c *CountSketch) bucketSign(i int) (int, float64) {
	h := splitmix64(uint64(c.seed) ^ (uint64(i)*0x9e3779b97f4a7c15 + 0x85ebca6b))
	bucket := int(h % uint64(c.m))
	sign := 1.0
	if (h>>63)&1 == 1 {
		sign = -1
	}
	return bucket, sign
}

// splitmix64 is the SplitMix64 mixing function — a deterministic, seedable
// hash shared by all servers.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// ApplyRows computes S·A for the local row block a whose first row has the
// given global row index: each local row is added, signed, into its hash
// bucket. The result is m×d.
func (c *CountSketch) ApplyRows(a *matrix.Dense, globalRowOffset int) *matrix.Dense {
	n, d := a.Dims()
	out := matrix.New(c.m, d)
	for r := 0; r < n; r++ {
		bucket, sign := c.bucketSign(globalRowOffset + r)
		dst := out.Row(bucket)
		matrix.AxpyVec(dst, sign, a.Row(r))
	}
	return out
}

// ApplyColumns computes A·Sᵀ for the column embedding S (hashing column
// indices): out[i][b] = Σ_{j: h(j)=b} sign(j)·a[i][j]. The result is n×m.
func (c *CountSketch) ApplyColumns(a *matrix.Dense) *matrix.Dense {
	n, d := a.Dims()
	out := matrix.New(n, c.m)
	buckets := make([]int, d)
	signs := make([]float64, d)
	for j := 0; j < d; j++ {
		buckets[j], signs[j] = c.bucketSign(j)
	}
	for i := 0; i < n; i++ {
		src := a.Row(i)
		dst := out.Row(i)
		for j, v := range src {
			dst[buckets[j]] += signs[j] * v
		}
	}
	return out
}
