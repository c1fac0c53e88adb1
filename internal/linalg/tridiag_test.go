package linalg

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/matrix"
)

// TestEigenvaluesSymMatchesJacobi checks the QL eigenvalues against the
// one-sided Jacobi SVD, which shares no code with them: the singular values
// of a symmetric matrix are its |λ|.
func TestEigenvaluesSymMatchesJacobi(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	for _, n := range []int{1, 2, 3, 8, 20, 50} {
		s := randSym(rng, n)
		fast, err := EigenvaluesSym(s)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		sig, err := SingularValues(s)
		if err != nil {
			t.Fatal(err)
		}
		abs := make([]float64, n)
		for i, v := range fast {
			abs[i] = math.Abs(v)
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(abs)))
		scale := 1 + sig[0]
		for i := range abs {
			if math.Abs(abs[i]-sig[i]) > 1e-9*scale {
				t.Fatalf("n=%d |λ|[%d]: %v vs σ %v", n, i, abs[i], sig[i])
			}
		}
	}
}

func TestEigenvaluesSymKnown(t *testing.T) {
	s := matrix.NewFromRows([][]float64{{2, 1}, {1, 2}})
	vals, err := EigenvaluesSym(s)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vals[0]-3) > 1e-12 || math.Abs(vals[1]-1) > 1e-12 {
		t.Fatalf("vals = %v", vals)
	}
}

func TestEigenvaluesSymDiagonalAndZero(t *testing.T) {
	vals, err := EigenvaluesSym(matrix.Diag([]float64{-3, 7, 0}))
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{7, 0, -3}
	for i, w := range want {
		if math.Abs(vals[i]-w) > 1e-12 {
			t.Fatalf("vals = %v", vals)
		}
	}
	z, err := EigenvaluesSym(matrix.New(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range z {
		if v != 0 {
			t.Fatal("zero matrix eigenvalues")
		}
	}
	e, err := EigenvaluesSym(matrix.New(0, 0))
	if err != nil || len(e) != 0 {
		t.Fatal("empty")
	}
}

func TestEigenvaluesSymDegenerate(t *testing.T) {
	// Repeated eigenvalues (identity) and rank-1 matrices.
	vals, err := EigenvaluesSym(identity(10))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vals {
		if math.Abs(v-1) > 1e-12 {
			t.Fatalf("identity eigenvalue %v", v)
		}
	}
	rng := rand.New(rand.NewSource(61))
	u := randDense(rng, 12, 1)
	r1 := u.MulT(u) // rank-1 PSD
	vals, err = EigenvaluesSym(r1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vals[0]-u.Frob2()) > 1e-9*u.Frob2() {
		t.Fatalf("rank-1 top eigenvalue %v, want %v", vals[0], u.Frob2())
	}
	for _, v := range vals[1:] {
		if math.Abs(v) > 1e-9*u.Frob2() {
			t.Fatalf("rank-1 trailing eigenvalue %v", v)
		}
	}
}

func TestSpectralNormSymFast(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for _, n := range []int{8, 64} {
		s := randSym(rng, n)
		fast, err := SpectralNormSymFast(s)
		if err != nil {
			t.Fatal(err)
		}
		exact, err := SpectralNormSym(s)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(fast-exact) > 1e-8*(1+exact) {
			t.Fatalf("n=%d: fast %v vs exact %v", n, fast, exact)
		}
	}
	if v, err := SpectralNormSymFast(matrix.New(0, 0)); err != nil || v != 0 {
		t.Fatal("empty")
	}
}

// Property: trace and Frobenius identities hold for the fast eigenvalues.
func TestPropEigenvaluesSym(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(16)
		s := randSym(rng, n)
		vals, err := EigenvaluesSym(s)
		if err != nil {
			return false
		}
		tr, f2 := 0.0, 0.0
		for _, v := range vals {
			tr += v
			f2 += v * v
		}
		return math.Abs(tr-s.Trace()) < 1e-8*(1+math.Abs(s.Trace())) &&
			math.Abs(f2-s.Frob2()) < 1e-8*(1+s.Frob2())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEigenvaluesSym256(b *testing.B) {
	rng := rand.New(rand.NewSource(63))
	s := randSym(rng, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EigenvaluesSym(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEigSym256(b *testing.B) {
	rng := rand.New(rand.NewSource(63))
	s := randSym(rng, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := computeEigSym(s); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRowsSubsetBitIdentical: RightFactor builds each requested v_j alone,
// so any subset of positions, in any order and with repeats, yields rows
// bit-identical to the same rows of a request for every position, tall and
// wide, from A or from its Gram.
func TestRowsSubsetBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	subset := []int{5, 0, 7, 7, 2, 11}
	for _, dims := range [][2]int{{40, 12}, {12, 40}, {12, 12}} {
		a := randDense(rng, dims[0], dims[1])
		factors := map[string]func(f *RightFactor) error{
			"A":    func(f *RightFactor) error { return f.Factor(a) },
			"Gram": func(f *RightFactor) error { return f.FactorGram(a.Gram(), dims[0]) },
		}
		for name, factor := range factors {
			var f RightFactor
			if err := factor(&f); err != nil {
				t.Fatal(err)
			}
			full := f.Top(len(f.Lambda))
			if err := factor(&f); err != nil {
				t.Fatal(err)
			}
			ws := make([]float64, len(subset))
			for i, j := range subset {
				ws[i] = f.Sigma(j)
			}
			part := matrix.New(len(subset), dims[1])
			f.Rows(part, subset, ws)
			for i, j := range subset {
				if !denseBitsEqual(part.SliceRows(i, i+1), full.SliceRows(j, j+1)) {
					t.Fatalf("%v from %s: row %d of the subset differs from row %d of the full request", dims, name, i, j)
				}
			}
		}
	}
}

// TestRotationRecordRoundTrip: a recorded rotation decodes to itself within
// a few ulps at every angle, the sign of each component included, and at
// the edges s = ±0 with c = −1 (t = ±Inf) and c = 0.
func TestRotationRecordRoundTrip(t *testing.T) {
	cases := [][2]float64{{1, 0}, {-1, 0}, {-1, math.Copysign(0, -1)}, {0, 1}, {0, -1}, {-1, 1e-300}, {1, -1e-300}}
	for k := 0; k < 64; k++ {
		s, c := math.Sincos(2 * math.Pi * float64(k) / 64)
		cases = append(cases, [2]float64{c, s})
	}
	for _, cs := range cases {
		c, s := decodeRot(encodeRot(cs[0], cs[1]))
		if math.Abs(c-cs[0]) > 4*unitRoundoff || math.Abs(s-cs[1]) > 4*unitRoundoff {
			t.Errorf("(c, s) = (%v, %v) decodes to (%v, %v)", cs[0], cs[1], c, s)
		}
	}
}
