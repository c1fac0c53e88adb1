package fd

import (
	"fmt"

	"repro/internal/matrix"
)

// State is a point-in-time snapshot of a Sketch suitable for
// checkpointing: the raw (unshrunk) buffer rows plus the certificate
// counters. Because the buffer is captured verbatim — no shrink runs to
// produce it — a sketch restored via FromState and fed the remainder of a
// stream is bit-identical to one that consumed the stream uninterrupted.
//
// State does not capture a latched SVD error: State returns that error
// instead, so a poisoned sketch is never checkpointed.
type State struct {
	D          int
	Ell        int
	BufferRows int
	Strategy   string // shrink rule name (Options.Rule); FromState validates it against Options
	Buffer     *matrix.Dense
	Shrinks    int
	TotalDelta float64
	InputRows  int
	InputFrob2 float64
}

// State snapshots the sketch without mutating it. The returned Buffer is a
// copy of the used buffer rows; the caller owns it.
func (s *Sketch) State() (*State, error) {
	if s.err != nil {
		return nil, s.err
	}
	return &State{
		D:          s.d,
		Ell:        s.ell,
		BufferRows: s.bufferRows,
		Strategy:   Options{Alpha: s.alpha}.Rule(),
		Buffer:     s.buf.CopyRows(0, s.used),
		Shrinks:    s.shrinks,
		TotalDelta: s.totalDelta,
		InputRows:  s.inputRows,
		InputFrob2: s.inputFrob2,
	}, nil
}

// FromState reconstructs a sketch from a State snapshot. The shrink rule and
// observer come from opts (they are runtime wiring, not stream state); the
// rule's name must match the name recorded in the snapshot — a restore
// under a different α would silently invalidate the certificate, so it
// fails loudly instead.
func FromState(st *State, opts Options) (*Sketch, error) {
	if st == nil {
		return nil, fmt.Errorf("fd: nil state")
	}
	if st.D <= 0 || st.Ell <= 0 || st.BufferRows < st.Ell+1 {
		return nil, fmt.Errorf("fd: state has invalid shape d=%d ell=%d bufferRows=%d", st.D, st.Ell, st.BufferRows)
	}
	if err := CheckAlpha(opts.Alpha); err != nil {
		return nil, err
	}
	if rule := opts.Rule(); st.Strategy != "" && rule != st.Strategy {
		return nil, fmt.Errorf("fd: state was written under shrink rule %q, restore requested %q", st.Strategy, rule)
	}
	used, cols := 0, st.D
	if st.Buffer != nil {
		used, cols = st.Buffer.Dims()
	}
	if cols != st.D {
		return nil, fmt.Errorf("fd: state buffer has %d cols, want d=%d", cols, st.D)
	}
	if used > st.BufferRows {
		return nil, fmt.Errorf("fd: state buffer has %d rows, exceeds bufferRows=%d", used, st.BufferRows)
	}
	if st.InputRows < used || st.InputFrob2 < 0 || st.TotalDelta < 0 || st.Shrinks < 0 {
		return nil, fmt.Errorf("fd: state counters are inconsistent (inputRows=%d used=%d)", st.InputRows, used)
	}
	o := opts
	o.BufferRows = st.BufferRows
	s := New(st.D, st.Ell, o)
	for i := 0; i < used; i++ {
		s.buf.SetRow(i, st.Buffer.Row(i))
	}
	s.used = used
	s.shrinks = st.Shrinks
	s.totalDelta = st.TotalDelta
	s.inputRows = st.InputRows
	s.inputFrob2 = st.InputFrob2
	return s, nil
}
