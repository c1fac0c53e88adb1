//go:build amd64 && !purego

package matrix

// cpuid executes CPUID with the given leaf and sub-leaf.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads extended control register 0 (requires OSXSAVE).
func xgetbv0() uint32

// axpy4AVX is the AVX+FMA micro-kernel in axpy_amd64.s. Pointers address
// the first element; n is the lane count (must be > 0).
//
//go:noescape
func axpy4AVX(dst, r0, r1, r2, r3 *float64, n int, v *[4]float64)

// gramGroup4AVX folds four contiguous input rows (rows[0:4d], stride d)
// into upper-triangle output rows [lo, hi) of the d×d Gram accumulator
// (axpy_amd64.s); one call covers a whole row group.
//
//go:noescape
func gramGroup4AVX(out, rows *float64, d, lo, hi int)

// axpyAVX and rotAVX are the exact (FMA-free) vector kernels in
// axpy_amd64.s behind AxpyVec and RotateVec. n must be > 0.
//
//go:noescape
func axpyAVX(y, x *float64, n int, a float64)

//go:noescape
func rotAVX(x, y *float64, n int, c, s float64)

// axpy4ExactAVX is axpy4AVX with VMULPD+VADDPD in place of the FMA.
//
//go:noescape
func axpy4ExactAVX(dst, r0, r1, r2, r3 *float64, n int, v *[4]float64)

// simdAvailable is true when the CPU and OS support the AVX+FMA kernel:
// CPUID.1:ECX must advertise FMA, OSXSAVE and AVX, and XCR0 must show the
// OS saves XMM+YMM state on context switch.
var simdAvailable = func() bool {
	_, _, ecx, _ := cpuid(1, 0)
	const fma = 1 << 12
	const osxsave = 1 << 27
	const avx = 1 << 28
	if ecx&fma == 0 || ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	const xmmYmm = 0x6
	return xgetbv0()&xmmYmm == xmmYmm
}()

var simdEnabled = simdAvailable

func axpy4SIMD(dst, r0, r1, r2, r3 []float64, v0, v1, v2, v3 float64) {
	n := len(dst)
	_ = r0[n-1]
	_ = r1[n-1]
	_ = r2[n-1]
	_ = r3[n-1]
	v := [4]float64{v0, v1, v2, v3}
	axpy4AVX(&dst[0], &r0[0], &r1[0], &r2[0], &r3[0], n, &v)
}

func axpySIMD(y, x []float64, a float64) {
	axpyAVX(&y[0], &x[0], len(y), a)
}

func rotSIMD(x, y []float64, c, s float64) {
	rotAVX(&x[0], &y[0], len(x), c, s)
}

func axpy4ExactSIMD(dst, r0, r1, r2, r3 []float64, v0, v1, v2, v3 float64) {
	n := len(dst)
	_ = r0[n-1]
	_ = r1[n-1]
	_ = r2[n-1]
	_ = r3[n-1]
	v := [4]float64{v0, v1, v2, v3}
	axpy4ExactAVX(&dst[0], &r0[0], &r1[0], &r2[0], &r3[0], n, &v)
}
