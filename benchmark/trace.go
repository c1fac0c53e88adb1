package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one traced interval. Spans are recorded by the decorators and
// replay code of this package, around calls into the layers under test; the
// runtime itself records none.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: no parent
	Name   string `json:"name"`
	Rep    int    `json:"rep"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
	// Calls > 0 marks an aggregate: that many timed calls, too frequent for
	// a span each (one per input row), whose durations sum to End−Start.
	// An aggregate starts where its parent starts; only its length means
	// anything.
	Calls int64 `json:"calls,omitempty"`
}

func (s span) duration() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the benchmark ends. A nil tracer
// records nothing, which is how the untraced pass runs the same code.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its ID (0 from a nil tracer).
func (t *tracer) begin(name string, parent, rep int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Rep: rep, Start: now, End: now})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// aggregate records calls timed calls of total length under parent.
func (t *tracer) aggregate(name string, parent, rep int, total time.Duration, calls int64) {
	if t == nil || calls == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	start := int64(0)
	if parent > 0 {
		start = t.spans[parent-1].Start
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Rep: rep, Start: start, End: start + int64(total), Calls: calls})
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, for every span ID, the span's duration minus the part
// of it its children account for: the union of the child spans' intervals
// (clipped to the parent), plus the full length of every child aggregate.
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		var covered int64
		var ivs [][2]int64
		for _, c := range children[s.ID] {
			if c.Calls > 0 {
				covered += c.End - c.Start
				continue
			}
			lo, hi := max(c.Start, s.Start), min(c.End, s.End)
			if hi > lo {
				ivs = append(ivs, [2]int64{lo, hi})
			}
		}
		sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
		end := int64(-1 << 62)
		for _, iv := range ivs {
			if iv[0] > end {
				covered += iv[1] - iv[0]
				end = iv[1]
			} else if iv[1] > end {
				covered += iv[1] - end
				end = iv[1]
			}
		}
		self[s.ID] = max(0, s.duration()-time.Duration(covered))
	}
	return self
}

// named returns the spans of one repetition with the given name.
func named(spans []span, name string, rep int) []span {
	var out []span
	for _, s := range spans {
		if s.Name == name && s.Rep == rep {
			out = append(out, s)
		}
	}
	return out
}

// total sums the durations of spans, in seconds.
func total(spans []span) float64 {
	var d time.Duration
	for _, s := range spans {
		d += s.duration()
	}
	return d.Seconds()
}

// writeSpans writes every span once, as one JSON array.
func writeSpans(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
