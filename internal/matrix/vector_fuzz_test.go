package matrix

import (
	"encoding/binary"
	"math"
	"testing"
)

// fuzzVec fills n float64s from data, eight little-endian bytes each,
// cycling through data (zeros when it is empty). A NaN pattern becomes the
// infinity of its sign: every NaN the kernels can then make is the one
// default NaN, so bit comparison stays meaningful.
func fuzzVec(data []byte, n, skip int) []float64 {
	v := make([]float64, n)
	if len(data) < 8 {
		return v
	}
	words := len(data) / 8
	for i := range v {
		w := (i + skip) % words
		v[i] = notNaN(math.Float64frombits(binary.LittleEndian.Uint64(data[8*w:])))
	}
	return v
}

// sameBits reports the first index where got and want differ in any bit.
func sameBits(got, want []float64) (int, bool) {
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i, false
		}
	}
	return 0, true
}

// shifted copies v into a fresh buffer starting shift entries in, so the
// kernels see the same alignment on every run.
func shifted(v []float64, shift int) []float64 {
	buf := make([]float64, len(v)+shift)
	copy(buf[shift:], v)
	return buf[shift:]
}

// notNaN maps a NaN to the infinity of its sign.
func notNaN(x float64) float64 {
	if math.IsNaN(x) {
		return math.Inf(int(1 - 2*(math.Float64bits(x)>>63)))
	}
	return x
}

// FuzzExactKernels checks that AxpyVec, axpy4Exact and RotateVec give the
// same bits on the SIMD path as on the portable loop, for every length 0–67 (the 8-wide
// body, the 4-wide step and the scalar tail), at every alignment within a
// 32-byte line, and on ±0, subnormal, huge and infinite entries. On a
// platform without the SIMD kernels both runs take the portable loop.
func FuzzExactKernels(f *testing.F) {
	f.Add(uint8(67), uint8(1), 1.5, 0.6, 0.8, []byte("\x00\x00\x00\x00\x00\x00\xf0\x3f\x01\x00\x00\x00\x00\x00\x00\x80"))
	f.Add(uint8(4), uint8(0), math.Copysign(0, -1), -1.0, 0.0, []byte{})
	f.Add(uint8(9), uint8(3), math.SmallestNonzeroFloat64, 0.5, -0.5,
		[]byte("\x00\x00\x00\x00\x00\x00\xf0\x7f\x00\x00\x00\x00\x00\x00\xf0\xff\xff\xff\xff\xff\xff\xff\x0f\x00"))
	f.Fuzz(func(t *testing.T, n, off uint8, a, c, s float64, data []byte) {
		size, shift := int(n%68), int(off%4)
		a, c, s = notNaN(a), notNaN(c), notNaN(s)
		x, y := fuzzVec(data, size, 0), fuzzVec(data, size, 3)
		defer setSIMD(setSIMD(true))
		run := func(simd bool) (axpy, axpy4, rx, ry []float64) {
			setSIMD(simd)
			axpy = AxpyVec(shifted(y, shift), a, shifted(x, shift))
			axpy4 = shifted(y, shift)
			axpy4Exact(axpy4, shifted(x, shift), shifted(y, shift), shifted(x, shift), shifted(y, shift), a, c, s, -a)
			rx, ry = shifted(x, shift), shifted(y, shift)
			RotateVec(rx, ry, c, s)
			return axpy, axpy4, rx, ry
		}
		wa, w4, wx, wy := run(false)
		ga, g4, gx, gy := run(true)
		for _, cmp := range []struct {
			name      string
			got, want []float64
		}{{"axpy", ga, wa}, {"axpy4", g4, w4}, {"rotate x", gx, wx}, {"rotate y", gy, wy}} {
			if i, ok := sameBits(cmp.got, cmp.want); !ok {
				t.Fatalf("%s n=%d shift=%d a=%v c=%v s=%v: entry %d is %v (%#x) on SIMD, %v (%#x) portable",
					cmp.name, size, shift, a, c, s, i, cmp.got[i], math.Float64bits(cmp.got[i]),
					cmp.want[i], math.Float64bits(cmp.want[i]))
			}
		}
	})
}
