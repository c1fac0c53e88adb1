package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileArithmetic(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 5.5}, {90, 9.1}, {100, 10}, {25, 3.25}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := percentile([]float64{10, 20, 40}, 90); math.Abs(got-36) > 1e-12 {
		t.Errorf("p90 of three = %v, want 36: a tail of few samples is not just the slowest", got)
	}
	if got := percentile([]float64{7}, 90); got != 7 {
		t.Errorf("p90 of one sample = %v", got)
	}
	if percentile(nil, 50) != 0 || median(nil) != 0 {
		t.Error("empty samples must read 0")
	}
}

// The acceptance rule is stated in Python's statistics.quantiles(xs, n=4);
// these are its answers.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{10, 20})
	if q1 != 7.5 || q3 != 22.5 {
		t.Errorf("quartiles(10,20) = %v, %v, want 7.5, 22.5", q1, q3)
	}
	if got, want := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), 1.0; got != want {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if spread([]float64{4}) != 0 {
		t.Error("one sample has no spread to see")
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{3, 50}, {39, 50}, {40, 75}, {100, 90}, {200, 95}, {1000, 99}, {10000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestSelfTime(t *testing.T) {
	msec := func(n int64) int64 { return n * int64(time.Millisecond) }
	spans := []span{
		{ID: 1, Name: "role", Start: msec(0), End: msec(100)},
		// Two children overlapping on [30,40]: they cover [10,60] once.
		{ID: 2, Parent: 1, Name: "send", Start: msec(10), End: msec(40)},
		{ID: 3, Parent: 1, Name: "recv", Start: msec(30), End: msec(60)},
		// A child running past its parent is clipped to it.
		{ID: 4, Parent: 1, Name: "late", Start: msec(90), End: msec(120)},
		// An aggregate counts in full wherever its calls fell.
		{ID: 5, Parent: 1, Name: "next", Start: msec(0), End: msec(15), Calls: 1000},
		// A grandchild is its parent's business, not the root's.
		{ID: 6, Parent: 2, Name: "encode", Start: msec(12), End: msec(20)},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{
		1: 25 * time.Millisecond, // 100 − 50 − 10 − 15
		2: 22 * time.Millisecond, // 30 − 8
		3: 30 * time.Millisecond,
		6: 8 * time.Millisecond,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}
	// Children that cover more than the parent cannot drive it negative.
	over := []span{
		{ID: 1, Name: "role", Start: 0, End: msec(10)},
		{ID: 2, Parent: 1, Name: "next", Start: 0, End: msec(30), Calls: 5},
	}
	if got := selfTimes(over)[1]; got != 0 {
		t.Errorf("over-covered self time = %v, want 0", got)
	}
}

func TestTracerRecordsAndNilIsSilent(t *testing.T) {
	var none *tracer
	id := none.begin("x", 0, 1)
	none.end(id)
	none.aggregate("y", 0, 1, time.Second, 3)
	if id != 0 || none.snapshot() != nil {
		t.Fatal("a nil tracer must record nothing")
	}

	tr := newTracer()
	rep := tr.begin(spanRep, 0, 7)
	role := tr.begin(spanServer, rep, 7)
	tr.aggregate(spanSourceNext, role, 7, 5*time.Millisecond, 42)
	tr.end(role)
	tr.end(rep)
	spans := tr.snapshot()
	if len(spans) != 3 {
		t.Fatalf("recorded %d spans, want 3", len(spans))
	}
	agg := spans[2]
	if agg.Parent != role || agg.Calls != 42 || agg.duration() != 5*time.Millisecond || agg.Start != spans[1].Start {
		t.Errorf("aggregate recorded as %+v", agg)
	}
	if got := named(spans, spanServer, 7); len(got) != 1 || got[0].Parent != rep {
		t.Errorf("named(server) = %+v", got)
	}
	if len(named(spans, spanServer, 8)) != 0 {
		t.Error("named must filter by repetition")
	}
	if math.Abs(total(spans[2:])-0.005) > 1e-12 {
		t.Errorf("total = %v, want 0.005", total(spans[2:]))
	}
}
