package distributed

import (
	"fmt"

	"repro/internal/matrix"
	"repro/internal/workload"
)

// RowSource is the streaming ingestion contract every Protocol.Server
// consumes (re-exported from the workload package for protocol code and the
// facade): Dims up front, copy-on-next rows, Reset for two-pass protocols.
type RowSource = workload.RowSource

// streamRows feeds every row of src into update — or into sparseUpdate,
// when both the source and the consumer support the sparse fast path —
// and returns the number of rows delivered plus whether the sparse path
// ran. The caller reports the count to the observer (rows-ingested
// accounting) after the pass.
func streamRows(src workload.RowSource, update func([]float64) error, sparseUpdate func(*matrix.SparseVector) error) (rows int, sparse bool, err error) {
	if sparseUpdate != nil {
		if ss, ok := src.(workload.SparseRowSource); ok {
			for {
				row, ok := ss.SparseNext()
				if !ok {
					break
				}
				if err := sparseUpdate(row); err != nil {
					return rows, true, err
				}
				rows++
			}
			return rows, true, src.Err()
		}
	}
	for {
		row, ok := src.Next()
		if !ok {
			break
		}
		if err := update(row); err != nil {
			return rows, false, err
		}
		rows++
	}
	return rows, false, src.Err()
}

// materializeLocal collects a server's covariance shard into a dense matrix
// and reports its rows as ingested, for the one protocol that needs random
// access to its local rows (BWZ's subspace-embedding PCA solve). That path
// is documented as requiring O(n_i·d) server memory; in-memory sources pass
// through without copying.
func materializeLocal(node Node, in Input, proto string, cfg Config) (*matrix.Dense, error) {
	src, err := in.Covariance(proto)
	if err != nil {
		return nil, err
	}
	m, err := workload.Materialize(src)
	if err != nil {
		return nil, fmt.Errorf("server %d: %w", node.ID(), err)
	}
	cfg.observer().RowsIngested(int64(m.Rows()), false)
	return m, nil
}
