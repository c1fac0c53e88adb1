package comm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

// FuzzDecode feeds Decode arbitrary frame bodies (the length prefix is
// supplied, so a claimed length never outruns the input). Decode must not
// panic; a message it accepts must be self-consistent — every payload holds
// as many entries as its header claims — and must survive Encode→Decode bit
// for bit. The seed corpus in testdata/fuzz/FuzzDecode holds one valid frame
// per field tag, and a quantized 1×1 header carrying 3 values that Decode
// must reject: Dequantize would index past the 1×1 matrix.
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, frame []byte) {
		m, err := Decode(bytes.NewReader(append(binary.LittleEndian.AppendUint32(nil, uint32(len(frame))), frame...)))
		if err != nil {
			return
		}
		defer m.Release()
		if m.Matrix != nil && len(m.Matrix.Data()) != m.Matrix.Rows()*m.Matrix.Cols() {
			t.Fatalf("%d×%d matrix holds %d entries", m.Matrix.Rows(), m.Matrix.Cols(), len(m.Matrix.Data()))
		}
		if q := m.Quantized; q != nil && len(q.Values) != q.Rows*q.Cols {
			t.Fatalf("quantized %d×%d matrix holds %d values", q.Rows, q.Cols, len(q.Values))
		}
		if m.Samples != nil {
			if err := m.Samples.check(); err != nil {
				t.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if err := m.Encode(&buf); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		again, err := Decode(&buf)
		if err != nil {
			t.Fatalf("decode of the re-encoded frame: %v", err)
		}
		defer again.Release()
		if a, b := messageBits(m), messageBits(again); a != b {
			t.Fatalf("Encode→Decode changed the message:\n%s\n%s", a, b)
		}
	})
}

// messageBits renders every header and payload field of m, floats as their
// bit patterns, so two renderings agree only on bit-identical messages.
func messageBits(m *Message) string {
	f64 := func(xs []float64) []uint64 {
		out := make([]uint64, len(xs))
		for i, x := range xs {
			out[i] = math.Float64bits(x)
		}
		return out
	}
	s := fmt.Sprintf("%q %d→%d scalars %x ints %v", m.Kind, m.From, m.To, f64(m.Scalars), m.Ints)
	if m.Matrix != nil {
		s += fmt.Sprintf(" matrix %d×%d %v %x", m.Matrix.Rows(), m.Matrix.Cols(), m.MatrixPrecision, f64(m.Matrix.Data()))
	}
	if q := m.Quantized; q != nil {
		s += fmt.Sprintf(" quantized %d×%d step %x bits %d %v", q.Rows, q.Cols, math.Float64bits(q.Step), q.BitsPerEntry, q.Values)
	}
	if sr := m.Samples; sr != nil {
		s += fmt.Sprintf(" samples cols %d ids %v starts %v indices %v values %x", sr.Cols, sr.IDs, sr.Starts, sr.Indices, f64(sr.Values))
	}
	return s
}
