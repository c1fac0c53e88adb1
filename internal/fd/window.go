package fd

import (
	"fmt"
	"math"
)

// WindowSketch answers "covariance of the last W rows" over an unbounded
// stream: the sequence-based sliding-window variant motivated by
// Desai–Ghashami–Phillips for drifting streams. Rows land in bucketed
// sub-sketches of bucketRows rows each; a bucket whose rows have all
// slipped out of the window is dropped whole, and a query merges the live
// buckets into one fresh mergeable sketch (FD mergeability, Theorem 2's
// device applied in time instead of space).
//
// The answer is window-approximate at bucket granularity: once the stream
// is longer than the window, a query covers the last Covered() rows with
// W ≤ Covered() < W + bucketRows — the partially-expired oldest bucket is
// kept whole rather than rewritten, the standard bucketed-window
// trade-off. The certificate returned by Query().ErrorBound() accounts
// for both the per-bucket shrink charges and the merge's own shrink
// charges, so it is a valid covariance-error bound with respect to the
// exact covered suffix of the stream.
//
// Working space is O((⌈W/bucketRows⌉ + 1) · bufferRows · d). WindowSketch
// is not safe for concurrent use.
type WindowSketch struct {
	d          int
	ell        int
	window     int
	bucketRows int
	opts       Options
	seq        int // rows ingested since creation
	buckets    []*winBucket
}

type winBucket struct {
	start int // sequence index of the bucket's first row
	sk    *Sketch
}

// defaultWindowBuckets is the bucket count NewWindow picks for
// numBuckets <= 0.
const defaultWindowBuckets = 4

// NewWindow returns a sliding-window sketch over the last window rows,
// split into numBuckets bucketed sub-sketches (numBuckets <= 0 selects
// defaultWindowBuckets, clamped so buckets hold at least one row). opts.Alpha may be any legal
// α: query-time bucket merging rests on FD mergeability, which holds at
// every α.
func NewWindow(d, ell, window, numBuckets int, opts Options) (*WindowSketch, error) {
	if d <= 0 || ell <= 0 {
		return nil, fmt.Errorf("fd: invalid window dimensions d=%d ell=%d", d, ell)
	}
	if window <= 0 {
		return nil, fmt.Errorf("fd: invalid window size %d", window)
	}
	if err := CheckAlpha(opts.Alpha); err != nil {
		return nil, fmt.Errorf("fd: window sketch: %w", err)
	}
	if numBuckets <= 0 {
		numBuckets = defaultWindowBuckets
	}
	if numBuckets > window {
		numBuckets = window
	}
	bucketRows := int(math.Ceil(float64(window) / float64(numBuckets)))
	return &WindowSketch{d: d, ell: ell, window: window, bucketRows: bucketRows, opts: opts}, nil
}

// Update feeds one row into the window.
func (w *WindowSketch) Update(row []float64) error {
	n := len(w.buckets)
	if n == 0 || w.seq-w.buckets[n-1].start >= w.bucketRows {
		w.buckets = append(w.buckets, &winBucket{start: w.seq, sk: New(w.d, w.ell, w.opts)})
	}
	if err := w.buckets[len(w.buckets)-1].sk.Update(row); err != nil {
		return err
	}
	w.seq++
	w.expire()
	return nil
}

// expire drops buckets whose rows have all left the window: bucket rows
// span [start, start+bucketRows); live suffix starts at seq-window.
func (w *WindowSketch) expire() {
	cut := 0
	for cut < len(w.buckets) && w.buckets[cut].start+w.bucketRows <= w.seq-w.window {
		w.buckets[cut] = nil // release the sub-sketch
		cut++
	}
	if cut > 0 {
		w.buckets = append(w.buckets[:0], w.buckets[cut:]...)
	}
}

// Window returns the configured window size W.
func (w *WindowSketch) Window() int { return w.window }

// BucketRows returns the rows per bucket (the window's granularity).
func (w *WindowSketch) BucketRows() int { return w.bucketRows }

// LiveBuckets returns the number of buckets currently retained.
func (w *WindowSketch) LiveBuckets() int { return len(w.buckets) }

// Covered returns how many trailing rows of the stream a Query covers
// right now: min(seq, W) until the first bucket expires, then within
// [W, W+bucketRows) forever after.
func (w *WindowSketch) Covered() int {
	if len(w.buckets) == 0 {
		return 0
	}
	return w.seq - w.buckets[0].start
}

// Query merges the live buckets into one fresh sketch covering the last
// Covered() rows. The returned sketch's ErrorBound() is the full window
// certificate: the merge target's own shrink charges plus every live
// bucket's accumulated charges, which Merge carries over. The window keeps
// streaming after a query; the result is independent state.
func (w *WindowSketch) Query() (*Sketch, error) {
	q := New(w.d, w.ell, w.opts)
	for _, b := range w.buckets {
		if err := q.Merge(b.sk); err != nil {
			return nil, err
		}
	}
	return q, nil
}
