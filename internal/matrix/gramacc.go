package matrix

import "fmt"

// GramAccumulator computes the Gram AᵀA of a row stream in one pass and
// O(d²) memory. Rows are copied (dense) or scattered (sparse) into a fixed
// panel that the blocked Gram kernel folds into a d×d accumulator whenever
// it fills. The panel height is a multiple of the kernel's group depth, so
// every entry keeps the summation chain Gram() gives the stacked rows: the
// result is bit-identical to Gram() of the matrix the stream spells out.
type GramAccumulator struct {
	gram  *Dense // upper triangle accumulates
	panel *Dense // panel rows [0, fill) hold pending input rows
	view  Dense  // header over the filled part of panel
	fill  int
	frob2 float64
}

// NewGramAccumulator returns an empty accumulator for rows of length d.
func NewGramAccumulator(d int) *GramAccumulator {
	return &GramAccumulator{gram: New(d, d), panel: New(panelRows(d), d)}
}

// Add folds one dense row into the Gram.
func (g *GramAccumulator) Add(row []float64) {
	dst := g.next(len(row))
	copy(dst, row)
	for _, v := range row {
		g.frob2 += v * v
	}
}

// AddSparse folds one sparse row into the Gram.
func (g *GramAccumulator) AddSparse(v *SparseVector) {
	dst := g.next(v.Len)
	for i := range dst {
		dst[i] = 0
	}
	for k, j := range v.Indices {
		x := v.Values[k]
		dst[j] = x
		g.frob2 += x * x
	}
}

// next returns the panel row the next input row goes into, flushing a full
// panel first.
func (g *GramAccumulator) next(n int) []float64 {
	if d := g.gram.cols; n != d {
		panic(fmt.Sprintf("matrix: GramAccumulator row of length %d, want %d", n, d))
	}
	if g.fill == g.panel.rows {
		g.flush()
	}
	g.fill++
	return g.panel.Row(g.fill - 1)
}

func (g *GramAccumulator) flush() {
	if g.fill == 0 {
		return
	}
	g.view.Reuse(g.fill, g.panel.cols, g.panel.data[:g.fill*g.panel.cols])
	g.view.addUpperGram(g.gram)
	g.fill = 0
}

// Frob2 returns the squared Frobenius norm of the rows added so far, summed
// in stream order: the same bits as Frob2 of the stacked rows.
func (g *GramAccumulator) Frob2() float64 { return g.frob2 }

// Gram returns AᵀA of the rows added so far as a new symmetric matrix.
// Adding may continue afterwards.
func (g *GramAccumulator) Gram() *Dense {
	g.flush()
	out := g.gram.Clone()
	mirrorUpper(out)
	return out
}
