package comm

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"runtime/debug"
	"testing"
	"testing/quick"

	"repro/internal/matrix"
	"repro/internal/workload"
)

func TestParsePrecision(t *testing.T) {
	for _, s := range []string{"", "float64", "f64", "fp64"} {
		p, err := ParsePrecision(s)
		if err != nil || p != Float64 {
			t.Fatalf("ParsePrecision(%q) = %v, %v", s, p, err)
		}
	}
	for _, s := range []string{"float32", "f32", "fp32"} {
		p, err := ParsePrecision(s)
		if err != nil || p != Float32 {
			t.Fatalf("ParsePrecision(%q) = %v, %v", s, p, err)
		}
	}
	if _, err := ParsePrecision("float16"); err == nil {
		t.Fatal("expected error for unsupported precision")
	}
	if Float64.Bits() != 64 || Float32.Bits() != 32 {
		t.Fatalf("precision bits: %d, %d", Float64.Bits(), Float32.Bits())
	}
}

// A float32 matrix entry must meter as exactly half a word, with scalars
// and ints still at full width, and fractional word counts must be exact.
func TestFloat32MessageBitsAndWords(t *testing.T) {
	m := &Message{
		Kind:            "sketch",
		Scalars:         []float64{1, 2, 3},
		Ints:            []int64{7},
		Matrix:          matrix.New(2, 5),
		MatrixPrecision: Float32,
	}
	wantBits := int64(3+1)*64 + int64(10)*32
	if m.Bits() != wantBits {
		t.Fatalf("Bits = %d, want %d", m.Bits(), wantBits)
	}
	if m.Words() != 9 {
		t.Fatalf("Words = %v, want 9", m.Words())
	}
	// An odd entry count meters as an exact half word.
	half := &Message{Kind: "x", Matrix: matrix.New(1, 1), MatrixPrecision: Float32}
	if half.Bits() != 32 || half.Words() != 0.5 {
		t.Fatalf("1-entry float32: bits=%d words=%v, want 32 and 0.5", half.Bits(), half.Words())
	}
}

// Property: a float32-precision message round-trips through the codec to
// exactly the float32 rounding of its entries — pre-rounded senders lose
// nothing, and no entry is ever off by more than 1 float32 ULP from the
// rounding of the original.
func TestPropFloat32WireRoundTrip(t *testing.T) {
	f := func(vals []float64, cols uint8) bool {
		c := int(cols%8) + 1
		r := len(vals) / c
		if r == 0 {
			return true
		}
		data := make([]float64, r*c)
		for i := range data {
			v := vals[i]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 1 // wire promises cover finite payloads
			}
			data[i] = v
		}
		in := &Message{
			Kind:            "sketch",
			Matrix:          matrix.NewFromData(r, c, data),
			MatrixPrecision: Float32,
		}
		var buf bytes.Buffer
		if err := in.Encode(&buf); err != nil {
			return false
		}
		out, err := Decode(&buf)
		if err != nil {
			return false
		}
		defer out.Release()
		if out.MatrixPrecision != Float32 {
			return false
		}
		rounded := RoundFloat32(in.Matrix)
		return out.Matrix.Equal(rounded)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// The float32 wire encoding must cost what the accounting charges: frame
// bytes may exceed Bits()/8 only by the constant header overhead, and a
// float32 leg must be half the matrix payload of the float64 leg.
func TestFloat32WireSizeMatchesAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	mat := workload.Gaussian(rng, 40, 25)
	const slack = 512 // header, dims, tags
	var sizes [2]int
	for i, p := range []Precision{Float64, Float32} {
		m := &Message{Kind: "sketch", Matrix: mat, MatrixPrecision: p}
		var buf bytes.Buffer
		if err := m.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		wireBits := int64(buf.Len()) * 8
		if wireBits > m.Bits()+slack {
			t.Fatalf("%v: wire %d bits, accounted %d", p, wireBits, m.Bits())
		}
		sizes[i] = buf.Len()
	}
	if diff := sizes[0] - sizes[1]; diff != 40*25*4 {
		t.Fatalf("float32 saved %d bytes on the wire, want %d", diff, 40*25*4)
	}
}

// RoundFloat32's perturbation must stay within the certificate charge that
// Float32RoundTripError folds into a float32 leg's error budget.
func TestFloat32RoundTripErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	b := workload.Gaussian(rng, 30, 12)
	rb := RoundFloat32(b)
	maxAbs := b.MaxAbs()
	step := maxAbs * Float32RelStep
	for i := 0; i < 30; i++ {
		for j := 0; j < 12; j++ {
			if d := math.Abs(b.At(i, j) - rb.At(i, j)); d > step {
				t.Fatalf("entry (%d,%d) moved %g > step %g", i, j, d, step)
			}
		}
	}
	// The Gram perturbation is covered by the quantizer-style bound.
	diff := 0.0
	g, rg := b.Gram(), rb.Gram()
	for i := 0; i < 12; i++ {
		for j := 0; j < 12; j++ {
			diff += math.Abs(g.At(i, j) - rg.At(i, j))
		}
	}
	if bound := Float32RoundTripError(30, 12, maxAbs); diff > bound {
		t.Fatalf("Gram moved %g, charged only %g", diff, bound)
	}
	if Float32RoundTripError(30, 12, maxAbs) <= 0 {
		t.Fatal("charge must be positive for a nonzero matrix")
	}
}

// The steady-state codec cycle — encode, decode, consume, release — must
// perform zero heap allocations per message for every payload buffer: the
// frame, the Message, its slices, and the matrix header all come from
// pools. GC is disabled for the measurement so pool clearing cannot
// produce a false positive.
func TestCodecAllocFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc counts only hold on plain builds")
	}
	rng := rand.New(rand.NewSource(3))
	for _, p := range []Precision{Float64, Float32} {
		mat := workload.Gaussian(rng, 16, 8)
		if p == Float32 {
			mat = RoundFloat32(mat)
		}
		in := &Message{
			Kind:            "sketch",
			From:            1,
			To:              CoordinatorID,
			Scalars:         []float64{1, 2},
			Ints:            []int64{3},
			Matrix:          mat,
			MatrixPrecision: p,
		}
		var buf bytes.Buffer
		rd := bytes.NewReader(nil)
		cycle := func() {
			buf.Reset()
			if err := in.Encode(&buf); err != nil {
				t.Fatal(err)
			}
			rd.Reset(buf.Bytes())
			out, err := Decode(rd)
			if err != nil {
				t.Fatal(err)
			}
			if out.Matrix.Rows() != 16 || out.Scalars[0] != 1 {
				t.Fatal("payload corrupted")
			}
			out.Release()
		}
		for i := 0; i < 10; i++ {
			cycle() // warm the pools and the frame buffer
		}
		prev := debug.SetGCPercent(-1)
		allocs := testing.AllocsPerRun(50, cycle)
		debug.SetGCPercent(prev)
		if allocs != 0 {
			t.Fatalf("%v: %v allocs per encode/decode/release cycle, want 0", p, allocs)
		}
	}
}

// Release must be a no-op on sender-built messages: in-memory transports
// share them by pointer and the receiver may still be reading.
func TestReleaseNoopOnSenderMessages(t *testing.T) {
	m := &Message{Kind: "sketch", Matrix: matrix.New(2, 2), Scalars: []float64{1}}
	m.Release()
	if m.Matrix == nil || len(m.Scalars) != 1 || m.Kind != "sketch" {
		t.Fatal("Release mutated a sender-owned message")
	}
	var nilMsg *Message
	nilMsg.Release() // must not panic
}

// Crafted float32 frames must be rejected before any oversized allocation:
// huge dims, truncated payloads, and unknown field tags all error.
func TestDecodeRejectsCraftedFloat32Frames(t *testing.T) {
	le := binary.LittleEndian
	header := func() []byte {
		b := []byte{}
		b = le.AppendUint32(b, msgMagic)
		b = le.AppendUint16(b, 1)
		b = append(b, 'k')
		b = le.AppendUint32(b, 0) // from
		b = le.AppendUint32(b, 0) // to
		return b
	}
	frame := func(body []byte) []byte {
		out := le.AppendUint32(nil, uint32(len(body)))
		return append(out, body...)
	}
	matrix32 := func(b []byte, rows, cols uint32, vals ...float32) []byte {
		b = append(b, fieldMatrix32)
		b = le.AppendUint32(b, rows)
		b = le.AppendUint32(b, cols)
		for _, v := range vals {
			b = le.AppendUint32(b, math.Float32bits(v))
		}
		return b
	}
	quantized := func(rows, cols, n uint32) []byte {
		b := append(header(), fieldQuantized)
		b = le.AppendUint32(b, rows)
		b = le.AppendUint32(b, cols)
		b = le.AppendUint64(b, math.Float64bits(0.5))
		b = append(b, 8) // bits per entry
		b = le.AppendUint32(b, n)
		return append(append(b, make([]byte, n)...), fieldEnd)
	}
	for _, tc := range []struct {
		name string
		body []byte
	}{
		// Dims whose product overflows the frame limit at 4 bytes/entry.
		{"too large", matrix32(header(), 1<<16, 1<<14)},
		// Claims 4 entries, carries 1.
		{"truncated", matrix32(header(), 2, 2, 1.5)},
		{"unknown tag", append(header(), uint8(9))},
		// A value count that is not rows·cols: Dequantize would index past
		// its rows·cols matrix, or allocate rows·cols from a short frame.
		{"quantized 1×1 with 3 values", quantized(1, 1, 3)},
		{"quantized 1000×1000 with 1 value", quantized(1000, 1000, 1)},
		// A second matrix field: the message holds one matrix.
		{"repeated matrix", append(matrix32(matrix32(header(), 1, 1, 1), 1, 1, 2), fieldEnd)},
	} {
		if m, err := Decode(bytes.NewReader(frame(tc.body))); err == nil {
			t.Errorf("%s: decoded %+v", tc.name, m)
		}
	}
}
