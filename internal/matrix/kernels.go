package matrix

// Cache-blocked dense kernels.
//
// The axpy-shaped kernels (Mul, TMul, Gram, TMulVec) are built on one
// micro-kernel, axpy4 (axpy.go): four input rows are folded into a
// destination row per pass, so the destination is loaded and stored once
// per four multiply-adds and the four row streams stay cache-resident.
// On amd64 the micro-kernel is 4-lane AVX+FMA assembly; elsewhere it is a
// portable Go loop with the same per-entry chain order.
//
// Two invariants hold on every path (see DESIGN.md "Kernel layout and
// precision modes"):
//
//   - Group and panel boundaries depend only on the matrix dimensions —
//     never on the worker-pool width or the parallel shard a row lands
//     in — except inside TMul's row chunks, which already document a
//     summation tolerance. Each output entry is accumulated by one fixed
//     chain (ascending groups of four, rows in order within a group), so
//     the width-invariance promises of dense.go are preserved: blocking
//     changes which entries are computed together, not how any single
//     entry is summed.
//   - No blocked kernel allocates beyond its output: rows are read in
//     place (no packing buffers), which keeps the Gram steady path
//     alloc-flat (see BenchmarkGram and the CI alloc smoke).
//
// MulT and MulVec are dot-shaped (both operands stream contiguously along
// the summation dimension), where folding rows buys nothing: they keep
// per-row dot loops, unrolled four output rows per pass to share streams.
// RowGramLower, the eigen route's half of m·mᵀ, is the exception: it packs
// four columns at a time into a transposed panel, so that it can fold them
// with axpy4Exact and still sum each entry exactly as MulT does.

const (
	// groupRows is the micro-kernel depth: axpy4 folds this many input
	// rows per destination pass.
	groupRows = 4
	// panelBytes bounds the cache-resident row panel of Mul (sized well
	// inside a typical 256 KiB–1 MiB L2).
	panelBytes = 1 << 17
)

// panelRows returns the row-panel height for inputs whose rows hold
// rowFloats float64s, rounded to a multiple of the group depth. It
// depends only on the matrix shape, never on the worker count, so panel
// sums are identical at every pool width.
func panelRows(rowFloats int) int {
	if rowFloats < 1 {
		rowFloats = 1
	}
	rows := (panelBytes / (8 * rowFloats)) &^ (groupRows - 1)
	if rows < groupRows {
		rows = groupRows
	}
	return rows
}

// axpy1 is the single-row tail of axpy4: dst[j] += v·r[j].
func axpy1(dst, r []float64, v float64) {
	for j, x := range r {
		dst[j] += v * x
	}
}

// mulRange computes rows [lo, hi) of out = m · b. b is swept in row
// panels (fixed schedule starting at row 0) kept cache-resident across
// the destination rows; within a panel, groups of four b-rows are folded
// into the output row by axpy4. Every output entry is one ascending-k
// chain with the same fixed group boundaries at any [lo, hi) sharding.
func mulRange(out, m, b *Dense, lo, hi int) {
	kk, n := m.cols, b.cols
	md, bd, od := m.data, b.data, out.data
	kb := panelRows(n)
	for p0 := 0; p0 < kk; p0 += kb {
		p1 := p0 + kb
		if p1 > kk {
			p1 = kk
		}
		for i := lo; i < hi; i++ {
			mi := md[i*kk : (i+1)*kk]
			oi := od[i*n : (i+1)*n]
			k := p0
			for ; k+groupRows <= p1; k += groupRows {
				axpy4(oi,
					bd[k*n:(k+1)*n], bd[(k+1)*n:(k+2)*n],
					bd[(k+2)*n:(k+3)*n], bd[(k+3)*n:(k+4)*n],
					mi[k], mi[k+1], mi[k+2], mi[k+3])
			}
			for ; k < p1; k++ {
				axpy1(oi, bd[k*n:(k+1)*n], mi[k])
			}
		}
	}
}

// tmulRange accumulates rows [lo, hi) of m and b into acc = mᵀ·b: groups
// of four input rows (relative to lo) are folded into each of acc's rows
// by axpy4, with the four b-rows cache-resident across the sweep. Group
// boundaries follow the row chunking, so different pool widths differ
// only by summation-order rounding — exactly the tolerance TMul has
// always documented.
func tmulRange(acc, m, b *Dense, lo, hi int) {
	mc, bc := m.cols, b.cols
	md, bd, od := m.data, b.data, acc.data
	r := lo
	for ; r+groupRows <= hi; r += groupRows {
		b0, b1, b2, b3 := r*mc, (r+1)*mc, (r+2)*mc, (r+3)*mc
		r0 := bd[r*bc : (r+1)*bc]
		r1 := bd[(r+1)*bc : (r+2)*bc]
		r2 := bd[(r+2)*bc : (r+3)*bc]
		r3 := bd[(r+3)*bc : (r+4)*bc]
		for i := 0; i < mc; i++ {
			axpy4(od[i*bc:(i+1)*bc], r0, r1, r2, r3,
				md[b0+i], md[b1+i], md[b2+i], md[b3+i])
		}
	}
	for ; r < hi; r++ {
		mr := md[r*mc : (r+1)*mc]
		br := bd[r*bc : (r+1)*bc]
		for i, v := range mr {
			if v == 0 {
				continue
			}
			axpy1(od[i*bc:(i+1)*bc], br, v)
		}
	}
}

// gramRange accumulates out[i][i:] += Σ_r m[r][i]·m[r][i:] for the
// upper-triangle output rows i in [lo, hi), folding groups of four input
// rows per pass. Groups start at row 0 regardless of sharding, so every
// entry keeps one fixed ascending-row chain at any pool width.
func gramRange(out, m *Dense, lo, hi int) {
	d := m.cols
	md, od := m.data, out.data
	n := m.rows
	if d == 0 || lo >= hi {
		return
	}
	r := 0
	if simdEnabled {
		for ; r+groupRows <= n; r += groupRows {
			gramGroup4AVX(&od[0], &md[r*d], d, lo, hi)
		}
	} else {
		for ; r+groupRows <= n; r += groupRows {
			b0, b1, b2, b3 := r*d, (r+1)*d, (r+2)*d, (r+3)*d
			for i := lo; i < hi; i++ {
				axpy4Generic(od[i*d+i:(i+1)*d],
					md[b0+i:b0+d], md[b1+i:b1+d], md[b2+i:b2+d], md[b3+i:b3+d],
					md[b0+i], md[b1+i], md[b2+i], md[b3+i])
			}
		}
	}
	for ; r < n; r++ {
		base := r * d
		for i := lo; i < hi; i++ {
			axpy1(od[i*d+i:(i+1)*d], md[base+i:base+d], md[base+i])
		}
	}
}

// mulTRange computes rows [lo, hi) of out = m · bᵀ. Both operands stream
// contiguously along the summation dimension, so this stays a dot-product
// loop, unrolled four b-rows per pass to share m's row stream (register
// tiling further was measured slower: 16 scalar accumulators spill on
// amd64). Every entry is one ascending-k chain on every path.
func mulTRange(out, m, b *Dense, lo, hi int) {
	kk, n := m.cols, b.rows
	md, bd, od := m.data, b.data, out.data
	for i := lo; i < hi; i++ {
		mi := md[i*kk : (i+1)*kk]
		oi := od[i*n : (i+1)*n]
		j := 0
		for ; j+4 <= n; j += 4 {
			b0 := bd[j*kk : (j+1)*kk]
			b1 := bd[(j+1)*kk : (j+2)*kk]
			b2 := bd[(j+2)*kk : (j+3)*kk]
			b3 := bd[(j+3)*kk : (j+4)*kk]
			var a0, a1, a2, a3 float64
			for k, v := range mi {
				a0 += v * b0[k]
				a1 += v * b1[k]
				a2 += v * b2[k]
				a3 += v * b3[k]
			}
			oi[j], oi[j+1], oi[j+2], oi[j+3] = a0, a1, a2, a3
		}
		for ; j < n; j++ {
			oi[j] = Dot(mi, bd[j*kk:(j+1)*kk])
		}
	}
}

// rowGramLowerRange computes rows [lo, hi) of the lower triangle of
// out = m·mᵀ, axpy-shaped: each pass copies four columns of m's rows
// [0, hi) into a transposed panel and folds them into every output row
// with axpy4Exact. Entry (i, j) is then 0 + m_i0·m_j0 + m_i1·m_j1 + … in
// ascending k with every product rounded, which is MulT's dot bit for bit.
func rowGramLowerRange(out, m *Dense, lo, hi int) {
	kk, n := m.cols, m.rows
	md, od := m.data, out.data
	panel := make([]float64, groupRows*hi)
	p0, p1, p2, p3 := panel[:hi], panel[hi:2*hi], panel[2*hi:3*hi], panel[3*hi:]
	k := 0
	for ; k+groupRows <= kk; k += groupRows {
		for j := 0; j < hi; j++ {
			c := md[j*kk+k : j*kk+k+groupRows]
			p0[j], p1[j], p2[j], p3[j] = c[0], c[1], c[2], c[3]
		}
		for i := lo; i < hi; i++ {
			c := md[i*kk+k : i*kk+k+groupRows]
			axpy4Exact(od[i*n:i*n+i+1], p0[:i+1], p1[:i+1], p2[:i+1], p3[:i+1], c[0], c[1], c[2], c[3])
		}
	}
	for ; k < kk; k++ {
		for j := 0; j < hi; j++ {
			p0[j] = md[j*kk+k]
		}
		for i := lo; i < hi; i++ {
			AxpyVec(od[i*n:i*n+i+1], md[i*kk+k], p0[:i+1])
		}
	}
}

// mulVecRange computes out[lo:hi] of m · x, four rows per pass sharing
// the streamed x (dot-shaped, like MulT). Each entry is the same
// ascending-k chain Dot produces.
func mulVecRange(out, x []float64, m *Dense, lo, hi int) {
	kk := m.cols
	md := m.data
	i := lo
	for ; i+4 <= hi; i += 4 {
		m0 := md[i*kk : (i+1)*kk]
		m1 := md[(i+1)*kk : (i+2)*kk]
		m2 := md[(i+2)*kk : (i+3)*kk]
		m3 := md[(i+3)*kk : (i+4)*kk]
		var a0, a1, a2, a3 float64
		for k, v := range x {
			a0 += m0[k] * v
			a1 += m1[k] * v
			a2 += m2[k] * v
			a3 += m3[k] * v
		}
		out[i], out[i+1], out[i+2], out[i+3] = a0, a1, a2, a3
	}
	for ; i < hi; i++ {
		out[i] = Dot(md[i*kk:(i+1)*kk], x)
	}
}

// tmulVecRange accumulates the column band [lo, hi) of mᵀ · x, folding
// groups of four input rows into the band with axpy4. Groups start at
// row 0 regardless of sharding — one fixed ascending-row chain per entry
// at any pool width.
func tmulVecRange(out, x []float64, m *Dense, lo, hi int) {
	d := m.cols
	md := m.data
	n := m.rows
	band := out[lo:hi]
	r := 0
	for ; r+groupRows <= n; r += groupRows {
		axpy4(band,
			md[r*d+lo:r*d+hi], md[(r+1)*d+lo:(r+1)*d+hi],
			md[(r+2)*d+lo:(r+2)*d+hi], md[(r+3)*d+lo:(r+3)*d+hi],
			x[r], x[r+1], x[r+2], x[r+3])
	}
	for ; r < n; r++ {
		axpy1(band, md[r*d+lo:r*d+hi], x[r])
	}
}
