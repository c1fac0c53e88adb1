package matrix

import "math"

// Dot returns the inner product of x and y, which must have equal length.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("matrix: Dot length mismatch")
	}
	s := 0.0
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// Norm2 returns the squared Euclidean norm of x.
func Norm2(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v * v
	}
	return s
}

// Norm returns the Euclidean norm of x.
func Norm(x []float64) float64 { return math.Sqrt(Norm2(x)) }

// ScaleVec multiplies x by c in place and returns x.
func ScaleVec(x []float64, c float64) []float64 {
	for i := range x {
		x[i] *= c
	}
	return x
}

// AxpyVec computes y += a·x in place and returns y. Each entry is one
// multiply and one add, each rounded, never fused: the 4-lane SIMD kernel
// and the portable loop give the same bits (see RotateVec).
func AxpyVec(y []float64, a float64, x []float64) []float64 {
	if len(x) != len(y) {
		panic("matrix: Axpy length mismatch")
	}
	if len(y) == 0 {
		return y
	}
	if simdEnabled {
		axpySIMD(y, x, a)
	} else {
		axpyGeneric(y, x, a)
	}
	return y
}

// RotateVec applies the Givens rotation [c −s; s c] to the pair (x, y) in
// place: x_i, y_i = c·x_i − s·y_i, s·x_i + c·y_i. x and y must have equal
// length and not overlap.
//
// RotateVec and AxpyVec are the exact kernels of the eigen route (the
// Householder reduction, the QL replay and the back-transform). Every
// product is rounded before it is added, on the 4-lane AVX path and on the
// portable one alike, so an entry's bits depend on neither the ISA nor the
// lane it lands in. The blocked kernels (axpy4, Mul, Gram) fuse instead.
func RotateVec(x, y []float64, c, s float64) {
	if len(x) != len(y) {
		panic("matrix: Rotate length mismatch")
	}
	if len(x) == 0 {
		return
	}
	if simdEnabled {
		rotSIMD(x, y, c, s)
	} else {
		rotGeneric(x, y, c, s)
	}
}

// axpyGeneric is AxpyVec's portable loop. The explicit conversion rounds
// the product, so no compiler fuses it into the add.
func axpyGeneric(y, x []float64, a float64) {
	x = x[:len(y)]
	for i, v := range x {
		y[i] += float64(a * v)
	}
}

// rotGeneric is RotateVec's portable loop, rounding every product as
// axpyGeneric does.
func rotGeneric(x, y []float64, c, s float64) {
	y = y[:len(x)]
	for i, xi := range x {
		yi := y[i]
		x[i] = float64(c*xi) - float64(s*yi)
		y[i] = float64(s*xi) + float64(c*yi)
	}
}

// Normalize scales x to unit Euclidean norm in place and returns its original
// norm. A zero vector is left untouched and 0 is returned.
func Normalize(x []float64) float64 {
	n := Norm(x)
	if n == 0 {
		return 0
	}
	ScaleVec(x, 1/n)
	return n
}

// CopyVec returns a copy of x.
func CopyVec(x []float64) []float64 {
	out := make([]float64, len(x))
	copy(out, x)
	return out
}
