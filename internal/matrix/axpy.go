package matrix

// axpy4 is the shared micro-kernel of the blocked matrix kernels
// (kernels.go): dst[j] += v0·r0[j] + v1·r1[j] + v2·r2[j] + v3·r3[j] for
// every j, accumulated per entry as one fixed chain in row order r0→r3.
// All slices must have equal length.
//
// On amd64 with AVX and FMA (detected once at init) this dispatches to a
// hand-written 4-lane fused-multiply-add kernel; everywhere else it runs
// the portable Go loop below. Both paths use the same per-entry chain
// order, so results are deterministic for a given binary and machine and
// identical at every worker-pool width; the fused path differs from the
// portable one only by the intermediate rounding FMA removes (covered by
// the kernel tolerance tests).
func axpy4(dst, r0, r1, r2, r3 []float64, v0, v1, v2, v3 float64) {
	if len(dst) == 0 {
		return
	}
	if simdEnabled {
		axpy4SIMD(dst, r0, r1, r2, r3, v0, v1, v2, v3)
		return
	}
	axpy4Generic(dst, r0, r1, r2, r3, v0, v1, v2, v3)
}

// axpy4Exact is axpy4 with every product rounded before it is added: four
// AxpyVec calls in row order r0→r3, bit for bit on every path, with one
// pass over dst. On amd64 with AVX it runs a 4-lane multiply-then-add
// kernel, elsewhere axpy4Generic.
func axpy4Exact(dst, r0, r1, r2, r3 []float64, v0, v1, v2, v3 float64) {
	if len(dst) == 0 {
		return
	}
	if simdEnabled {
		axpy4ExactSIMD(dst, r0, r1, r2, r3, v0, v1, v2, v3)
		return
	}
	axpy4Generic(dst, r0, r1, r2, r3, v0, v1, v2, v3)
}

// axpy4Generic is the portable micro-kernel. Exactly one multiply and one
// add per product, chained r0→r3 per entry; the conversions round each
// product, so no compiler fuses it into the add.
func axpy4Generic(dst, r0, r1, r2, r3 []float64, v0, v1, v2, v3 float64) {
	if len(dst) == 0 {
		return
	}
	_ = r0[len(dst)-1]
	_ = r1[len(dst)-1]
	_ = r2[len(dst)-1]
	_ = r3[len(dst)-1]
	for j := range dst {
		t := dst[j]
		t += float64(v0 * r0[j])
		t += float64(v1 * r1[j])
		t += float64(v2 * r2[j])
		t += float64(v3 * r3[j])
		dst[j] = t
	}
}

// KernelISA reports which instruction set the dense micro-kernels use:
// "avx-fma" when the hand-written SIMD path is active, "generic" for the
// portable Go path. Benchmarks record it so baselines are comparable.
func KernelISA() string {
	if simdEnabled {
		return "avx-fma"
	}
	return "generic"
}

// setSIMD force-enables or disables the SIMD micro-kernel (no-op on
// platforms without one). Tests use it to cross-check both paths; it is
// not safe to flip concurrently with running kernels.
func setSIMD(on bool) (prev bool) {
	prev = simdEnabled
	simdEnabled = on && simdAvailable
	return prev
}
