package matrix

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randDense(rng *rand.Rand, r, c int) *Dense {
	m := New(r, c)
	for i := range m.data {
		m.data[i] = rng.NormFloat64()
	}
	return m
}

func TestNewAndAccessors(t *testing.T) {
	m := New(3, 4)
	if r, c := m.Dims(); r != 3 || c != 4 {
		t.Fatalf("Dims = %d,%d, want 3,4", r, c)
	}
	m.Set(1, 2, 7.5)
	if got := m.At(1, 2); got != 7.5 {
		t.Fatalf("At(1,2) = %v, want 7.5", got)
	}
	if got := m.At(0, 0); got != 0 {
		t.Fatalf("At(0,0) = %v, want 0", got)
	}
}

func TestNewFromRows(t *testing.T) {
	m := NewFromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.Rows() != 3 || m.Cols() != 2 {
		t.Fatalf("dims = %d×%d", m.Rows(), m.Cols())
	}
	if m.At(2, 1) != 6 {
		t.Fatalf("At(2,1) = %v", m.At(2, 1))
	}
	empty := NewFromRows(nil)
	if empty.Rows() != 0 || empty.Cols() != 0 {
		t.Fatalf("empty dims = %d×%d", empty.Rows(), empty.Cols())
	}
}

func TestNewFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on ragged rows")
		}
	}()
	NewFromRows([][]float64{{1, 2}, {3}})
}

func TestIdentityAndDiag(t *testing.T) {
	id := identity(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if id.At(i, j) != want {
				t.Fatalf("I(%d,%d) = %v", i, j, id.At(i, j))
			}
		}
	}
	d := Diag([]float64{2, 3})
	if d.At(0, 0) != 2 || d.At(1, 1) != 3 || d.At(0, 1) != 0 {
		t.Fatalf("Diag wrong: %v", d)
	}
}

func TestRowSharing(t *testing.T) {
	m := NewFromRows([][]float64{{1, 2}, {3, 4}})
	r := m.Row(0)
	r[1] = 99
	if m.At(0, 1) != 99 {
		t.Fatal("Row must share storage")
	}
}

func TestColSetCol(t *testing.T) {
	m := NewFromRows([][]float64{{1, 2}, {3, 4}})
	c := m.Col(1)
	if c[0] != 2 || c[1] != 4 {
		t.Fatalf("Col = %v", c)
	}
	c[0] = 77 // Col is a copy; matrix unchanged
	if m.At(0, 1) != 2 {
		t.Fatal("Col must copy")
	}
	m.SetCol(0, []float64{9, 8})
	if m.At(0, 0) != 9 || m.At(1, 0) != 8 {
		t.Fatalf("SetCol failed: %v", m)
	}
}

func TestTranspose(t *testing.T) {
	m := NewFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := m.T()
	if tr.Rows() != 3 || tr.Cols() != 2 {
		t.Fatalf("T dims = %d×%d", tr.Rows(), tr.Cols())
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatalf("T mismatch at %d,%d", i, j)
			}
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := randDense(rng, 7, 5)
	if !m.T().T().Equal(m) {
		t.Fatal("(Aᵀ)ᵀ != A")
	}
}

func TestMulAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randDense(rng, 6, 4)
	b := randDense(rng, 4, 5)
	got := a.Mul(b)
	for i := 0; i < 6; i++ {
		for j := 0; j < 5; j++ {
			want := 0.0
			for k := 0; k < 4; k++ {
				want += a.At(i, k) * b.At(k, j)
			}
			if math.Abs(got.At(i, j)-want) > 1e-12 {
				t.Fatalf("Mul(%d,%d) = %v, want %v", i, j, got.At(i, j), want)
			}
		}
	}
}

func TestMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randDense(rng, 4, 4)
	if !a.Mul(identity(4)).EqualApprox(a, 1e-15) {
		t.Fatal("A·I != A")
	}
	if !identity(4).Mul(a).EqualApprox(a, 1e-15) {
		t.Fatal("I·A != A")
	}
}

func TestGramMatchesTMul(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randDense(rng, 9, 6)
	g := a.Gram()
	want := a.TMul(a)
	if !g.EqualApprox(want, 1e-10) {
		t.Fatal("Gram != AᵀA via TMul")
	}
	// Symmetry.
	if !g.EqualApprox(g.T(), 0) {
		t.Fatal("Gram not exactly symmetric")
	}
}

func TestTMulAndMulT(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randDense(rng, 5, 3)
	b := randDense(rng, 5, 4)
	if !a.TMul(b).EqualApprox(a.T().Mul(b), 1e-10) {
		t.Fatal("TMul != Aᵀ·B")
	}
	c := randDense(rng, 6, 3)
	if !a.MulT(c).EqualApprox(a.Mul(c.T()), 1e-10) {
		t.Fatal("MulT != A·Cᵀ")
	}
}

func TestMulVecTMulVec(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := randDense(rng, 4, 3)
	x := []float64{1, -2, 0.5}
	got := a.MulVec(x)
	for i := 0; i < 4; i++ {
		want := Dot(a.Row(i), x)
		if math.Abs(got[i]-want) > 1e-13 {
			t.Fatalf("MulVec[%d] = %v, want %v", i, got[i], want)
		}
	}
	y := []float64{1, 2, 3, 4}
	got2 := a.TMulVec(y)
	want2 := a.T().MulVec(y)
	for i := range got2 {
		if math.Abs(got2[i]-want2[i]) > 1e-12 {
			t.Fatalf("TMulVec[%d] = %v, want %v", i, got2[i], want2[i])
		}
	}
}

func TestAddSubScale(t *testing.T) {
	a := NewFromRows([][]float64{{1, 2}, {3, 4}})
	b := NewFromRows([][]float64{{10, 20}, {30, 40}})
	if got := a.Add(b).At(1, 1); got != 44 {
		t.Fatalf("Add = %v", got)
	}
	if got := b.Sub(a).At(0, 0); got != 9 {
		t.Fatalf("Sub = %v", got)
	}
	if got := a.Scale(2).At(1, 0); got != 6 {
		t.Fatalf("Scale = %v", got)
	}
	// Originals unchanged.
	if a.At(0, 0) != 1 {
		t.Fatal("Add/Scale mutated receiver")
	}
	c := a.Clone()
	c.ScaleInPlace(3)
	if c.At(0, 1) != 6 || a.At(0, 1) != 2 {
		t.Fatal("ScaleInPlace wrong")
	}
	c.ScaleRow(1, 0.5)
	if c.At(1, 0) != 4.5 {
		t.Fatalf("ScaleRow = %v", c.At(1, 0))
	}
}

func TestStack(t *testing.T) {
	a := NewFromRows([][]float64{{1, 2}})
	b := NewFromRows([][]float64{{3, 4}, {5, 6}})
	s := a.Stack(b)
	if s.Rows() != 3 || s.At(2, 1) != 6 || s.At(0, 0) != 1 {
		t.Fatalf("Stack wrong: %v", s)
	}
	// Empty matrices are skipped.
	s2 := Stack(&Dense{}, a, nil, b, New(0, 2))
	if !s2.Equal(s) {
		t.Fatal("Stack with empties wrong")
	}
	if Stack().Rows() != 0 {
		t.Fatal("Stack() should be empty")
	}
	// Zero-row parts still fix the column count.
	e := Stack(New(0, 5), New(0, 5))
	if e.Rows() != 0 || e.Cols() != 5 {
		t.Fatalf("Stack of empties = %d×%d, want 0×5", e.Rows(), e.Cols())
	}
}

func TestSliceAndCopyRows(t *testing.T) {
	m := NewFromRows([][]float64{{1, 1}, {2, 2}, {3, 3}, {4, 4}})
	s := m.SliceRows(1, 3)
	if s.Rows() != 2 || s.At(0, 0) != 2 || s.At(1, 1) != 3 {
		t.Fatalf("SliceRows wrong: %v", s)
	}
	s.Set(0, 0, 99)
	if m.At(1, 0) != 99 {
		t.Fatal("SliceRows must share storage")
	}
	c := m.CopyRows(0, 1)
	c.Set(0, 0, -5)
	if m.At(0, 0) != 1 {
		t.Fatal("CopyRows must copy")
	}
}

func TestAppendRow(t *testing.T) {
	var m Dense
	m2 := m.AppendRow([]float64{1, 2, 3})
	m3 := m2.AppendRow([]float64{4, 5, 6})
	if m3.Rows() != 2 || m3.At(1, 2) != 6 {
		t.Fatalf("AppendRow wrong: %v", m3)
	}
}

func TestNorms(t *testing.T) {
	m := NewFromRows([][]float64{{3, 4}, {0, 0}})
	if m.Frob2() != 25 {
		t.Fatalf("Frob2 = %v", m.Frob2())
	}
	if m.Frob() != 5 {
		t.Fatalf("Frob = %v", m.Frob())
	}
	if m.RowNorm2(0) != 25 || m.RowNorm2(1) != 0 {
		t.Fatal("RowNorm2 wrong")
	}
	sq := NewFromRows([][]float64{{1, 9}, {9, 2}})
	if sq.Trace() != 3 {
		t.Fatalf("Trace = %v", sq.Trace())
	}
	if sq.MaxAbs() != 9 {
		t.Fatalf("MaxAbs = %v", sq.MaxAbs())
	}
}

func TestIsFinite(t *testing.T) {
	m := New(2, 2)
	if !m.IsFinite() {
		t.Fatal("zero matrix should be finite")
	}
	m.Set(0, 1, math.NaN())
	if m.IsFinite() {
		t.Fatal("NaN not detected")
	}
	m.Set(0, 1, math.Inf(1))
	if m.IsFinite() {
		t.Fatal("Inf not detected")
	}
}

func TestEqualApprox(t *testing.T) {
	a := NewFromRows([][]float64{{1, 2}})
	b := NewFromRows([][]float64{{1.0001, 2}})
	if a.EqualApprox(b, 1e-6) {
		t.Fatal("should differ at 1e-6")
	}
	if !a.EqualApprox(b, 1e-3) {
		t.Fatal("should agree at 1e-3")
	}
	c := NewFromRows([][]float64{{1, 2}, {3, 4}})
	if a.EqualApprox(c, 1) {
		t.Fatal("different dims must not be equal")
	}
}

func TestString(t *testing.T) {
	m := randDense(rand.New(rand.NewSource(7)), 10, 10)
	s := m.String()
	if len(s) == 0 {
		t.Fatal("empty String()")
	}
}

// Property: (A·B)ᵀ == Bᵀ·Aᵀ.
func TestPropMulTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, k, n := 1+r.Intn(6), 1+r.Intn(6), 1+r.Intn(6)
		a := randDense(rng, m, k)
		b := randDense(rng, k, n)
		return a.Mul(b).T().EqualApprox(b.T().Mul(a.T()), 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: ‖A‖F² == trace(AᵀA).
func TestPropFrobTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, n := 1+r.Intn(8), 1+r.Intn(8)
		a := randDense(rng, m, n)
		return math.Abs(a.Frob2()-a.Gram().Trace()) < 1e-9*(1+a.Frob2())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: stacking preserves the Gram matrix: [A;B]ᵀ[A;B] == AᵀA + BᵀB.
// This identity underlies the whole distributed-sketch framework.
func TestPropStackGramAdditive(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := 1 + r.Intn(6)
		a := randDense(rng, 1+r.Intn(6), d)
		b := randDense(rng, 1+r.Intn(6), d)
		return a.Stack(b).Gram().EqualApprox(a.Gram().Add(b.Gram()), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDimensionPanics(t *testing.T) {
	a := New(2, 3)
	b := New(2, 3)
	cases := []func(){
		func() { a.Mul(b) },
		func() { a.At(2, 0) },
		func() { a.At(0, 3) },
		func() { a.Set(-1, 0, 1) },
		func() { a.MulVec([]float64{1}) },
		func() { a.TMulVec([]float64{1}) },
		func() { a.SetRow(0, []float64{1}) },
		func() { a.SetCol(0, []float64{1}) },
		func() { a.Add(New(3, 3)) },
		func() { a.Sub(New(2, 2)) },
		func() { a.SliceRows(0, 5) },
		func() { a.Trace() },
		func() { a.Stack(New(1, 4)) },
		func() { NewFromData(2, 2, []float64{1}) },
		func() { New(-1, 2) },
		func() { Dot([]float64{1}, []float64{1, 2}) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestVectorOps(t *testing.T) {
	x := []float64{3, 4}
	if Norm2(x) != 25 || Norm(x) != 5 {
		t.Fatal("Norm wrong")
	}
	y := CopyVec(x)
	ScaleVec(y, 2)
	if y[0] != 6 || x[0] != 3 {
		t.Fatal("ScaleVec/CopyVec wrong")
	}
	AxpyVec(y, -1, []float64{6, 8})
	if y[0] != 0 || y[1] != 0 {
		t.Fatal("Axpy wrong")
	}
	z := []float64{0, 3}
	n := Normalize(z)
	if n != 3 || z[1] != 1 {
		t.Fatal("Normalize wrong")
	}
	zero := []float64{0, 0}
	if Normalize(zero) != 0 {
		t.Fatal("Normalize(0) should return 0")
	}
}

func BenchmarkMul128(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	x := randDense(rng, 128, 128)
	y := randDense(rng, 128, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Mul(y)
	}
}

func BenchmarkGram1024x64(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	x := randDense(rng, 1024, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Gram()
	}
}

// identity returns the n×n identity matrix.
func identity(n int) *Dense {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}
