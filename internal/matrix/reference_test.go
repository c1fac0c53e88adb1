package matrix

import "fmt"

// Reference kernels: the straightforward serial triple loops that the
// blocked kernels in kernels.go replaced. They are test-only code: the
// ground truth the kernel correctness tests compare against and the naive
// legs of this package's benchmarks.

// RefMul returns m · b computed with the serial ikj reference loop.
func RefMul(m, b *Dense) *Dense {
	if m.cols != b.rows {
		panic(fmt.Sprintf("matrix: RefMul dimension mismatch %d×%d · %d×%d", m.rows, m.cols, b.rows, b.cols))
	}
	out := New(m.rows, b.cols)
	for i := 0; i < m.rows; i++ {
		oi := out.data[i*b.cols : (i+1)*b.cols]
		mi := m.data[i*m.cols : (i+1)*m.cols]
		for k := 0; k < m.cols; k++ {
			a := mi[k]
			if a == 0 {
				continue
			}
			bk := b.data[k*b.cols : (k+1)*b.cols]
			for j, bv := range bk {
				oi[j] += a * bv
			}
		}
	}
	return out
}

// RefTMul returns mᵀ · b computed with the serial reference loop.
func RefTMul(m, b *Dense) *Dense {
	if m.rows != b.rows {
		panic(fmt.Sprintf("matrix: RefTMul dimension mismatch (%d×%d)ᵀ · %d×%d", m.rows, m.cols, b.rows, b.cols))
	}
	out := New(m.cols, b.cols)
	for r := 0; r < m.rows; r++ {
		mr := m.data[r*m.cols : (r+1)*m.cols]
		br := b.data[r*b.cols : (r+1)*b.cols]
		for i, a := range mr {
			if a == 0 {
				continue
			}
			oi := out.data[i*b.cols : (i+1)*b.cols]
			for j, bv := range br {
				oi[j] += a * bv
			}
		}
	}
	return out
}

// RefMulT returns m · bᵀ computed with the serial dot-product reference loop.
func RefMulT(m, b *Dense) *Dense {
	if m.cols != b.cols {
		panic(fmt.Sprintf("matrix: RefMulT dimension mismatch %d×%d · (%d×%d)ᵀ", m.rows, m.cols, b.rows, b.cols))
	}
	out := New(m.rows, b.rows)
	for i := 0; i < m.rows; i++ {
		mi := m.data[i*m.cols : (i+1)*m.cols]
		oi := out.data[i*b.rows : (i+1)*b.rows]
		for j := 0; j < b.rows; j++ {
			oi[j] = Dot(mi, b.data[j*b.cols:(j+1)*b.cols])
		}
	}
	return out
}

// RefGram returns mᵀ · m computed with the serial upper-triangle reference
// loop (row-ascending accumulation, symmetric fill).
func RefGram(m *Dense) *Dense {
	d := m.cols
	out := New(d, d)
	for r := 0; r < m.rows; r++ {
		row := m.data[r*d : (r+1)*d]
		for i := 0; i < d; i++ {
			vi := row[i]
			if vi == 0 {
				continue
			}
			oi := out.data[i*d:]
			for j := i; j < d; j++ {
				oi[j] += vi * row[j]
			}
		}
	}
	for i := 0; i < d; i++ {
		for j := i + 1; j < d; j++ {
			out.data[j*d+i] = out.data[i*d+j]
		}
	}
	return out
}

// RefMulVec returns m · x computed with serial per-row dot products.
func RefMulVec(m *Dense, x []float64) []float64 {
	if len(x) != m.cols {
		panic(fmt.Sprintf("matrix: RefMulVec length %d != %d cols", len(x), m.cols))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = Dot(m.data[i*m.cols:(i+1)*m.cols], x)
	}
	return out
}

// RefTMulVec returns mᵀ · x computed with the serial row-ascending loop.
func RefTMulVec(m *Dense, x []float64) []float64 {
	if len(x) != m.rows {
		panic(fmt.Sprintf("matrix: RefTMulVec length %d != %d rows", len(x), m.rows))
	}
	out := make([]float64, m.cols)
	for i := 0; i < m.rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		mi := m.data[i*m.cols : (i+1)*m.cols]
		for j, v := range mi {
			out[j] += xi * v
		}
	}
	return out
}
