//go:build !amd64 || purego

package matrix

// No SIMD micro-kernel on this platform: the portable Go loop is the only
// path, so the enable flag is permanently off.
var (
	simdAvailable = false
	simdEnabled   = false
)

func axpy4SIMD(dst, r0, r1, r2, r3 []float64, v0, v1, v2, v3 float64) {
	axpy4Generic(dst, r0, r1, r2, r3, v0, v1, v2, v3)
}

func axpy4ExactSIMD(dst, r0, r1, r2, r3 []float64, v0, v1, v2, v3 float64) {
	axpy4Generic(dst, r0, r1, r2, r3, v0, v1, v2, v3)
}

func axpySIMD(y, x []float64, a float64) { axpyGeneric(y, x, a) }

func rotSIMD(x, y []float64, c, s float64) { rotGeneric(x, y, c, s) }

// gramGroup4AVX is only reachable when simdEnabled is true, which never
// holds on this platform.
func gramGroup4AVX(out, rows *float64, d, lo, hi int) {
	panic("matrix: SIMD gram kernel unavailable on this platform")
}
