package fd

import (
	"math/rand"
	"testing"

	"repro/internal/linalg"
	"repro/internal/workload"
)

func TestWindowCoverageAccounting(t *testing.T) {
	w, err := NewWindow(4, 3, 100, 10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if w.BucketRows() != 10 {
		t.Fatalf("bucketRows = %d, want 10", w.BucketRows())
	}
	rng := rand.New(rand.NewSource(3))
	a := workload.Gaussian(rng, 500, 4)
	for i := 0; i < 500; i++ {
		if err := w.Update(a.Row(i)); err != nil {
			t.Fatal(err)
		}
		cov := w.Covered()
		if i+1 <= 100 {
			if cov != i+1 {
				t.Fatalf("at seq %d covered = %d, want %d", i+1, cov, i+1)
			}
		} else if cov < 100 || cov >= 100+w.BucketRows() {
			t.Fatalf("at seq %d covered = %d, want within [100, %d)", i+1, cov, 100+w.BucketRows())
		}
	}
	if lb := w.LiveBuckets(); lb > 100/w.BucketRows()+1 {
		t.Errorf("live buckets = %d, exceeds ⌈W/B⌉+1 = %d", lb, 100/w.BucketRows()+1)
	}
}

// TestWindowCertificateHolds checks the windowed guarantee end-to-end: the
// merged query sketch's ErrorBound certificate upper-bounds the true
// covariance error against the materialized covered suffix of the stream.
func TestWindowCertificateHolds(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n, d, W = 400, 8, 120
	a := workload.Gaussian(rng, n, d)
	w, err := NewWindow(d, 16, W, 6, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := w.Update(a.Row(i)); err != nil {
			t.Fatal(err)
		}
		if (i+1)%97 != 0 && i != n-1 {
			continue
		}
		q, err := w.Query()
		if err != nil {
			t.Fatal(err)
		}
		b, err := q.Matrix()
		if err != nil {
			t.Fatal(err)
		}
		cov := w.Covered()
		suffix := a.SliceRows(i+1-cov, i+1)
		got, err := linalg.CovarianceError(suffix, b)
		if err != nil {
			t.Fatal(err)
		}
		bound := q.ErrorBound()
		if got > bound*(1+1e-9)+1e-9 {
			t.Fatalf("at seq %d: coverr %v exceeds window certificate %v", i+1, got, bound)
		}
		if q.InputRows() != cov {
			t.Errorf("merged sketch accounts %d rows, covered %d", q.InputRows(), cov)
		}
	}
}

// The window keeps streaming after a query (the query result is
// independent state), and forgetting works: after the window slides fully
// past a burst of huge rows, a query's covariance mass reflects only the
// recent small rows.
func TestWindowForgets(t *testing.T) {
	const d, W = 4, 50
	w, err := NewWindow(d, 8, W, 5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	big := []float64{1e6, 0, 0, 0}
	small := []float64{0, 1e-3, 0, 0}
	for i := 0; i < 30; i++ {
		if err := w.Update(big); err != nil {
			t.Fatal(err)
		}
	}
	// Mid-stream query must see the burst.
	q1, err := w.Query()
	if err != nil {
		t.Fatal(err)
	}
	if q1.InputFrob2() < 1e12 {
		t.Fatalf("mid-stream window mass %v, want ≥ 1e12", q1.InputFrob2())
	}
	for i := 0; i < W+w.BucketRows(); i++ {
		if err := w.Update(small); err != nil {
			t.Fatal(err)
		}
	}
	q2, err := w.Query()
	if err != nil {
		t.Fatal(err)
	}
	if q2.InputFrob2() > 1 {
		t.Fatalf("post-slide window mass %v still carries the expired burst", q2.InputFrob2())
	}
}

func TestWindowRejectsBadParams(t *testing.T) {
	if _, err := NewWindow(4, 3, 10, 2, Options{Alpha: 1.5}); err == nil {
		t.Fatal("alpha outside (0,1] must be rejected")
	}
	if _, err := NewWindow(4, 3, 0, 2, Options{}); err == nil {
		t.Fatal("non-positive window must be rejected")
	}
}
