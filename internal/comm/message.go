// Package comm provides the communication-accounting layer: typed messages
// between servers and the coordinator, a binary codec for sending them over
// real sockets, a word/bit meter matching the paper's cost model, and the
// §3.3 quantizer that rounds sketch entries to O(log(nd/ε)) bits.
//
// Cost model (paper §1.2): communication is measured in machine words of
// O(log(nd/ε)) bits; every entry of the input matrix fits in one word. We
// count one float64 scalar or matrix entry as one word (64 bits), a float32
// matrix entry as half a word (32 bits), and a quantized entry as its
// actual bit width, so narrow-precision protocols report fractional word
// savings exactly.
package comm

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"

	"repro/internal/matrix"
)

// Codec pools. Encode stages each frame in a pooled byte slice; Decode
// builds messages entirely from pooled parts — the Message struct, its
// payload slices, and matrix headers all come from pools and go back via
// Release — so a steady-state socket round performs zero per-message heap
// allocations for payload buffers (see TestCodecAllocFlat). Kind strings
// are interned: the protocol vocabulary is a handful of constant tags, so
// each is allocated once per process instead of once per message.
var (
	frameBufs  = sync.Pool{New: func() any { return new([]byte) }}
	msgPool    = sync.Pool{New: func() any { return new(Message) }}
	f64Bufs    = sync.Pool{New: func() any { return new([]float64) }}
	i64Bufs    = sync.Pool{New: func() any { return new([]int64) }}
	i32Bufs    = sync.Pool{New: func() any { return new([]int32) }}
	densePool  = sync.Pool{New: func() any { return new(matrix.Dense) }}
	quantPool  = sync.Pool{New: func() any { return new(QuantizedMatrix) }}
	samplePool = sync.Pool{New: func() any { return new(SampleRows) }}
)

// CoordinatorID is the conventional endpoint ID of the coordinator.
const CoordinatorID = -1

// WordBits is the size of one machine word in the cost model.
const WordBits = 64

// Message is one protocol message. Any subset of the payload fields may be
// set; cost accounting covers exactly the fields present.
type Message struct {
	// Kind tags the protocol step (e.g. "frob2", "fd-sketch", "bwz-u").
	Kind string
	// From and To are endpoint IDs (CoordinatorID for the coordinator).
	From, To int
	// Scalars carries float64 values (one word each).
	Scalars []float64
	// Ints carries integer values (one word each).
	Ints []int64
	// Matrix carries a dense matrix (one word per entry at Float64, half a
	// word at Float32).
	Matrix *matrix.Dense
	// MatrixPrecision is the wire width of Matrix's entries. A Float32
	// message still holds float64 values in Matrix — the sender rounds
	// them to float32-representable values first (RoundFloat32), so the
	// 32-bit encoding is exact and in-memory transports that share the
	// message by pointer observe the identical payload.
	MatrixPrecision Precision
	// Quantized carries a quantized matrix (BitsPerEntry bits per entry).
	Quantized *QuantizedMatrix
	// Samples carries a batch of priority-sampled sparse rows (see
	// SampleRows for the exact per-row/per-nonzero word accounting).
	Samples *SampleRows

	// Pool bookkeeping for messages produced by Decode. Release recycles
	// these; messages built by senders have them all zero and Release is
	// a no-op.
	pooled       bool
	scalarBuf    *[]float64
	intBuf       *[]int64
	matBuf       *[]float64
	quantBuf     *[]int64
	sampleIDBuf  *[]int64
	sampleIdxBuf *[]int32
	sampleValBuf *[]float64
	sampleOffBuf *[]int32
}

// Bits returns the payload size of the message in bits under the paper's
// cost model. Headers/kind tags are control overhead and not counted, as in
// the paper's word complexity.
func (m *Message) Bits() int64 {
	bits := int64(len(m.Scalars)+len(m.Ints)) * WordBits
	if m.Matrix != nil {
		r, c := m.Matrix.Dims()
		bits += int64(r) * int64(c) * int64(m.MatrixPrecision.Bits())
	}
	if m.Quantized != nil {
		bits += m.Quantized.Bits()
	}
	if m.Samples != nil {
		bits += m.Samples.Bits()
	}
	return bits
}

// Words returns the payload size in (possibly fractional) machine words.
// Fractions are exact: a float32 entry is 32 bits, so it meters as exactly
// half a word.
func (m *Message) Words() float64 { return float64(m.Bits()) / WordBits }

// Release returns a decoded message's pooled buffers to the codec pools.
// It is a no-op for messages not produced by Decode (in-memory transports
// share sender-owned messages by pointer; those are never recycled). The
// caller must be done with every payload field — including Matrix, whose
// backing array is reused by a future Decode — before calling Release.
func (m *Message) Release() {
	if m == nil || !m.pooled {
		return
	}
	if m.scalarBuf != nil {
		f64Bufs.Put(m.scalarBuf)
	}
	if m.intBuf != nil {
		i64Bufs.Put(m.intBuf)
	}
	if m.matBuf != nil {
		f64Bufs.Put(m.matBuf)
	}
	if m.Matrix != nil {
		m.Matrix.Reuse(0, 0, nil)
		densePool.Put(m.Matrix)
	}
	if m.Quantized != nil {
		if m.quantBuf != nil {
			i64Bufs.Put(m.quantBuf)
		}
		*m.Quantized = QuantizedMatrix{}
		quantPool.Put(m.Quantized)
	}
	if m.Samples != nil {
		if m.sampleIDBuf != nil {
			i64Bufs.Put(m.sampleIDBuf)
		}
		if m.sampleOffBuf != nil {
			i32Bufs.Put(m.sampleOffBuf)
		}
		if m.sampleIdxBuf != nil {
			i32Bufs.Put(m.sampleIdxBuf)
		}
		if m.sampleValBuf != nil {
			f64Bufs.Put(m.sampleValBuf)
		}
		*m.Samples = SampleRows{}
		samplePool.Put(m.Samples)
	}
	*m = Message{}
	msgPool.Put(m)
}

const (
	msgMagic = uint32(0x444d5347) // "DMSG"

	fieldScalars   = uint8(1)
	fieldInts      = uint8(2)
	fieldMatrix    = uint8(3)
	fieldQuantized = uint8(4)
	fieldMatrix32  = uint8(5)
	fieldSamples   = uint8(6)
	fieldEnd       = uint8(0)
)

// maxFrameBytes bounds a single message frame (1 GiB).
const maxFrameBytes = 1 << 30

// frameSize returns the encoded frame length in bytes (excluding the
// 4-byte length prefix), with the quantized payload's packed length given
// by packedLen.
func (m *Message) frameSize(packedLen int) int {
	size := 4 + 2 + len(m.Kind) + 4 + 4 + 1 // magic, kind, from, to, end tag
	if m.Scalars != nil {
		size += 1 + 4 + 8*len(m.Scalars)
	}
	if m.Ints != nil {
		size += 1 + 4 + 8*len(m.Ints)
	}
	if m.Matrix != nil {
		r, c := m.Matrix.Dims()
		size += 1 + 4 + 4 + (m.MatrixPrecision.Bits()/8)*r*c
	}
	if m.Quantized != nil {
		size += 1 + 4 + 4 + 8 + 1 + 4 + packedLen
	}
	if m.Samples != nil {
		// tag, cols, row count, per row id(8)+nnz(4), per nz idx(4)+val(8).
		size += 1 + 4 + 4 + 12*len(m.Samples.IDs) + 12*len(m.Samples.Values)
	}
	return size
}

// Encode serializes the message to w (little-endian framing) as one write:
// the length prefix and frame are assembled in a pooled buffer by manual
// byte manipulation, so steady-state encoding does not allocate per
// message (binary.Write would allocate an internal staging slice per
// call). Float32-precision matrices are truncated entrywise to 32 bits on
// the wire; senders that pre-round via RoundFloat32 lose nothing.
func (m *Message) Encode(w io.Writer) error {
	var packed []byte
	if m.Quantized != nil {
		var err error
		packed, err = packBits(m.Quantized.Values, m.Quantized.BitsPerEntry)
		if err != nil {
			return fmt.Errorf("comm: pack quantized: %w", err)
		}
	}
	if len(m.Kind) > (1<<16)-1 {
		return fmt.Errorf("comm: kind tag of %d bytes", len(m.Kind))
	}
	size := m.frameSize(len(packed))
	if size > maxFrameBytes {
		return fmt.Errorf("comm: frame of %d bytes exceeds limit", size)
	}
	fp := frameBufs.Get().(*[]byte)
	defer frameBufs.Put(fp)
	if cap(*fp) < 4+size {
		*fp = make([]byte, 4+size)
	}
	b := (*fp)[:4+size]
	le := binary.LittleEndian
	le.PutUint32(b, uint32(size))
	off := 4
	le.PutUint32(b[off:], msgMagic)
	off += 4
	le.PutUint16(b[off:], uint16(len(m.Kind)))
	off += 2
	off += copy(b[off:], m.Kind)
	le.PutUint32(b[off:], uint32(int32(m.From)))
	off += 4
	le.PutUint32(b[off:], uint32(int32(m.To)))
	off += 4
	if m.Scalars != nil {
		b[off] = fieldScalars
		off++
		le.PutUint32(b[off:], uint32(len(m.Scalars)))
		off += 4
		for _, v := range m.Scalars {
			le.PutUint64(b[off:], math.Float64bits(v))
			off += 8
		}
	}
	if m.Ints != nil {
		b[off] = fieldInts
		off++
		le.PutUint32(b[off:], uint32(len(m.Ints)))
		off += 4
		for _, v := range m.Ints {
			le.PutUint64(b[off:], uint64(v))
			off += 8
		}
	}
	if m.Matrix != nil {
		r, c := m.Matrix.Dims()
		if m.MatrixPrecision == Float32 {
			b[off] = fieldMatrix32
			off++
			le.PutUint32(b[off:], uint32(r))
			off += 4
			le.PutUint32(b[off:], uint32(c))
			off += 4
			for _, v := range m.Matrix.Data() {
				le.PutUint32(b[off:], math.Float32bits(float32(v)))
				off += 4
			}
		} else {
			b[off] = fieldMatrix
			off++
			le.PutUint32(b[off:], uint32(r))
			off += 4
			le.PutUint32(b[off:], uint32(c))
			off += 4
			for _, v := range m.Matrix.Data() {
				le.PutUint64(b[off:], math.Float64bits(v))
				off += 8
			}
		}
	}
	if m.Quantized != nil {
		q := m.Quantized
		b[off] = fieldQuantized
		off++
		le.PutUint32(b[off:], uint32(q.Rows))
		off += 4
		le.PutUint32(b[off:], uint32(q.Cols))
		off += 4
		le.PutUint64(b[off:], math.Float64bits(q.Step))
		off += 8
		b[off] = uint8(q.BitsPerEntry)
		off++
		le.PutUint32(b[off:], uint32(len(q.Values)))
		off += 4
		off += copy(b[off:], packed)
	}
	if m.Samples != nil {
		s := m.Samples
		b[off] = fieldSamples
		off++
		le.PutUint32(b[off:], uint32(s.Cols))
		off += 4
		le.PutUint32(b[off:], uint32(len(s.IDs)))
		off += 4
		for i, id := range s.IDs {
			le.PutUint64(b[off:], uint64(id))
			off += 8
			le.PutUint32(b[off:], uint32(s.Starts[i+1]-s.Starts[i]))
			off += 4
		}
		for _, idx := range s.Indices {
			le.PutUint32(b[off:], uint32(idx))
			off += 4
		}
		for _, v := range s.Values {
			le.PutUint64(b[off:], math.Float64bits(v))
			off += 8
		}
	}
	b[off] = fieldEnd
	if _, err := w.Write(b); err != nil {
		return fmt.Errorf("comm: write frame: %w", err)
	}
	return nil
}

// cursor is a bounds-checked little-endian reader over a decoded frame.
type cursor struct {
	b   []byte
	off int
}

func (c *cursor) need(n int) error {
	if n < 0 || len(c.b)-c.off < n {
		return io.ErrUnexpectedEOF
	}
	return nil
}

func (c *cursor) u8() (uint8, error) {
	if err := c.need(1); err != nil {
		return 0, err
	}
	v := c.b[c.off]
	c.off++
	return v, nil
}

func (c *cursor) u16() (uint16, error) {
	if err := c.need(2); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint16(c.b[c.off:])
	c.off += 2
	return v, nil
}

func (c *cursor) u32() (uint32, error) {
	if err := c.need(4); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint32(c.b[c.off:])
	c.off += 4
	return v, nil
}

func (c *cursor) u64() (uint64, error) {
	if err := c.need(8); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint64(c.b[c.off:])
	c.off += 8
	return v, nil
}

func (c *cursor) bytes(n int) ([]byte, error) {
	if err := c.need(n); err != nil {
		return nil, err
	}
	v := c.b[c.off : c.off+n]
	c.off += n
	return v, nil
}

// kind interning: protocol kinds are a small fixed vocabulary, so decoded
// tags resolve to a shared string without allocating. The map lookup keyed
// by string(bytes) does not allocate (the compiler recognizes the idiom).
// The table is capped so a misbehaving peer cannot grow it without bound;
// overflow tags fall back to a fresh allocation.
const maxInternedKinds = 1024

var (
	kindMu sync.RWMutex
	kinds  = make(map[string]string)
)

func internKind(b []byte) string {
	kindMu.RLock()
	s, ok := kinds[string(b)]
	kindMu.RUnlock()
	if ok {
		return s
	}
	kindMu.Lock()
	defer kindMu.Unlock()
	if s, ok := kinds[string(b)]; ok {
		return s
	}
	s = string(b)
	if len(kinds) < maxInternedKinds {
		kinds[s] = s
	}
	return s
}

// getF64 takes a float64 buffer of length n from the pool, recording the
// pooled pointer in *slot for Release.
func getF64(slot **[]float64, n int) []float64 {
	bp := f64Bufs.Get().(*[]float64)
	if cap(*bp) < n {
		*bp = make([]float64, n)
	}
	*slot = bp
	return (*bp)[:n]
}

func getI64(slot **[]int64, n int) []int64 {
	bp := i64Bufs.Get().(*[]int64)
	if cap(*bp) < n {
		*bp = make([]int64, n)
	}
	*slot = bp
	return (*bp)[:n]
}

func getI32(slot **[]int32, n int) []int32 {
	bp := i32Bufs.Get().(*[]int32)
	if cap(*bp) < n {
		*bp = make([]int32, n)
	}
	*slot = bp
	return (*bp)[:n]
}

// Decode reads one message from r. The frame is staged in a pooled buffer
// and parsed by offset (no binary.Read staging allocations); the returned
// message and all its payload buffers come from pools — call Release when
// the payload has been fully consumed to recycle them. Messages a caller
// never releases are simply collected by the GC.
func Decode(r io.Reader) (*Message, error) {
	fp := frameBufs.Get().(*[]byte)
	defer frameBufs.Put(fp)
	if cap(*fp) < 4 {
		*fp = make([]byte, 64)
	}
	// The length prefix is staged in the pooled buffer too: a stack array
	// would escape through the io.Reader interface and cost one allocation
	// per message.
	if _, err := io.ReadFull(r, (*fp)[:4]); err != nil {
		return nil, err // io.EOF propagates cleanly for closed connections
	}
	frameLen := binary.LittleEndian.Uint32((*fp)[:4])
	if frameLen > maxFrameBytes {
		return nil, fmt.Errorf("comm: frame of %d bytes exceeds limit", frameLen)
	}
	if cap(*fp) < int(frameLen) {
		*fp = make([]byte, frameLen)
	}
	frame := (*fp)[:frameLen]
	if _, err := io.ReadFull(r, frame); err != nil {
		return nil, fmt.Errorf("comm: read frame: %w", err)
	}
	m, err := decodeFrame(frame)
	if err != nil {
		m.Release() // return partially-filled buffers to the pools
		return nil, err
	}
	return m, nil
}

func decodeFrame(frame []byte) (*Message, error) {
	c := cursor{b: frame}
	magic, err := c.u32()
	if err != nil {
		return nil, err
	}
	if magic != msgMagic {
		return nil, fmt.Errorf("comm: bad magic %#x", magic)
	}
	kindLen, err := c.u16()
	if err != nil {
		return nil, err
	}
	kindBytes, err := c.bytes(int(kindLen))
	if err != nil {
		return nil, err
	}
	from, err := c.u32()
	if err != nil {
		return nil, err
	}
	to, err := c.u32()
	if err != nil {
		return nil, err
	}
	m := msgPool.Get().(*Message)
	*m = Message{Kind: internKind(kindBytes), From: int(int32(from)), To: int(int32(to)), pooled: true}
	for {
		field, err := c.u8()
		if err != nil {
			return m, err
		}
		switch field {
		case fieldEnd:
			return m, nil
		case fieldScalars:
			n, err := c.u32()
			if err != nil {
				return m, err
			}
			if err := c.need(8 * int(n)); err != nil {
				return m, err
			}
			m.Scalars = getF64(&m.scalarBuf, int(n))
			for i := range m.Scalars {
				v, _ := c.u64()
				m.Scalars[i] = math.Float64frombits(v)
			}
		case fieldInts:
			n, err := c.u32()
			if err != nil {
				return m, err
			}
			if err := c.need(8 * int(n)); err != nil {
				return m, err
			}
			m.Ints = getI64(&m.intBuf, int(n))
			for i := range m.Ints {
				v, _ := c.u64()
				m.Ints[i] = int64(v)
			}
		case fieldMatrix, fieldMatrix32:
			r32, err := c.u32()
			if err != nil {
				return m, err
			}
			c32, err := c.u32()
			if err != nil {
				return m, err
			}
			entryBytes := 8
			if field == fieldMatrix32 {
				entryBytes = 4
			}
			if uint64(r32)*uint64(c32) > maxFrameBytes/uint64(entryBytes) {
				return m, fmt.Errorf("comm: matrix %d×%d too large", r32, c32)
			}
			n := int(r32) * int(c32)
			if err := c.need(entryBytes * n); err != nil {
				return m, err
			}
			data := getF64(&m.matBuf, n)
			if field == fieldMatrix32 {
				for i := range data {
					v, _ := c.u32()
					data[i] = float64(math.Float32frombits(v))
				}
				m.MatrixPrecision = Float32
			} else {
				for i := range data {
					v, _ := c.u64()
					data[i] = math.Float64frombits(v)
				}
			}
			d := densePool.Get().(*matrix.Dense)
			d.Reuse(int(r32), int(c32), data)
			m.Matrix = d
		case fieldQuantized:
			r32, err := c.u32()
			if err != nil {
				return m, err
			}
			c32, err := c.u32()
			if err != nil {
				return m, err
			}
			stepBits, err := c.u64()
			if err != nil {
				return m, err
			}
			bpe, err := c.u8()
			if err != nil {
				return m, err
			}
			n, err := c.u32()
			if err != nil {
				return m, err
			}
			if bpe == 0 || uint64(n)*uint64(bpe) > 8*maxFrameBytes {
				return m, fmt.Errorf("comm: quantized payload %d×%d bits malformed", n, bpe)
			}
			packed, err := c.bytes((int(n)*int(bpe) + 7) / 8)
			if err != nil {
				return m, err
			}
			q := quantPool.Get().(*QuantizedMatrix)
			q.Rows, q.Cols = int(r32), int(c32)
			q.Step = math.Float64frombits(stepBits)
			q.BitsPerEntry = int(bpe)
			q.Values = getI64(&m.quantBuf, int(n))
			m.Quantized = q
			if err := unpackBitsInto(q.Values, packed, q.BitsPerEntry); err != nil {
				return m, err
			}
		case fieldSamples:
			cols, err := c.u32()
			if err != nil {
				return m, err
			}
			rows, err := c.u32()
			if err != nil {
				return m, err
			}
			if err := c.need(12 * int(rows)); err != nil {
				return m, err
			}
			s := samplePool.Get().(*SampleRows)
			m.Samples = s
			s.Cols = int(cols)
			s.IDs = getI64(&m.sampleIDBuf, int(rows))
			s.Starts = getI32(&m.sampleOffBuf, int(rows)+1)
			s.Starts[0] = 0
			nnz := 0
			for i := 0; i < int(rows); i++ {
				id, _ := c.u64()
				cnt, _ := c.u32()
				if uint64(nnz)+uint64(cnt) > maxFrameBytes/12 {
					return m, fmt.Errorf("comm: sample rows with %d nonzeros malformed", uint64(nnz)+uint64(cnt))
				}
				s.IDs[i] = int64(id)
				nnz += int(cnt)
				s.Starts[i+1] = int32(nnz)
			}
			if err := c.need(12 * nnz); err != nil {
				return m, err
			}
			s.Indices = getI32(&m.sampleIdxBuf, nnz)
			for i := range s.Indices {
				v, _ := c.u32()
				s.Indices[i] = int32(v)
			}
			s.Values = getF64(&m.sampleValBuf, nnz)
			for i := range s.Values {
				v, _ := c.u64()
				s.Values[i] = math.Float64frombits(v)
			}
			if err := s.check(); err != nil {
				return m, err
			}
		default:
			return m, fmt.Errorf("comm: unknown field tag %d", field)
		}
	}
}
