package linalg

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"testing"
	"testing/quick"

	"repro/internal/matrix"
)

// identity returns the n×n identity matrix.
func identity(n int) *matrix.Dense {
	m := matrix.New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// eigSym is S = V·diag(Values)·Vᵀ with every vector requested from the
// one eigen route (symEig), V's columns in the order of Values.
type eigSym struct {
	Values []float64
	V      *matrix.Dense
}

// computeEigSym asks symEig for all n eigenvectors of the symmetric s.
func computeEigSym(s *matrix.Dense) (*eigSym, error) {
	var e symEig
	if err := e.factor(s.Clone()); err != nil {
		return nil, err
	}
	n := s.Rows()
	js := make([]int, n)
	for j := range js {
		js[j] = j
	}
	vt := matrix.New(n, n)
	e.vectors(vt, js)
	return &eigSym{Values: e.values, V: vt.T()}, nil
}

// Reconstruct returns V·diag(Values)·Vᵀ.
func (e *eigSym) Reconstruct() *matrix.Dense {
	return e.V.Mul(matrix.Diag(e.Values)).MulT(e.V)
}

func randSym(rng *rand.Rand, n int) *matrix.Dense {
	a := randDense(rng, n, n)
	return a.Add(a.T()).Scale(0.5)
}

func TestEigSymReconstruct(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 5, 10, 20} {
		s := randSym(rng, n)
		e, err := computeEigSym(s)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !e.Reconstruct().EqualApprox(s, 1e-9) {
			t.Fatalf("n=%d: reconstruction failed", n)
		}
		if !IsOrthonormalColumns(e.V, 1e-9) {
			t.Fatalf("n=%d: V not orthonormal", n)
		}
		if !sort.IsSorted(sort.Reverse(sort.Float64Slice(e.Values))) {
			t.Fatalf("n=%d: eigenvalues not sorted desc: %v", n, e.Values)
		}
	}
}

func TestEigSymKnown(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 3 and 1.
	s := matrix.NewFromRows([][]float64{{2, 1}, {1, 2}})
	e, err := computeEigSym(s)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e.Values[0]-3) > 1e-12 || math.Abs(e.Values[1]-1) > 1e-12 {
		t.Fatalf("eigenvalues = %v, want [3 1]", e.Values)
	}
}

func TestEigSymDiagonal(t *testing.T) {
	s := matrix.Diag([]float64{-5, 2, 7})
	e, err := computeEigSym(s)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{7, 2, -5}
	for i, w := range want {
		if math.Abs(e.Values[i]-w) > 1e-12 {
			t.Fatalf("eigenvalues = %v, want %v", e.Values, want)
		}
	}
}

func TestEigSymZeroAndEmpty(t *testing.T) {
	e, err := computeEigSym(matrix.New(3, 3))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range e.Values {
		if v != 0 {
			t.Fatal("zero matrix eigenvalues must be 0")
		}
	}
	e2, err := computeEigSym(matrix.New(0, 0))
	if err != nil || len(e2.Values) != 0 {
		t.Fatal("empty eig failed")
	}
}

func TestEigSymNonSquarePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	computeEigSym(matrix.New(2, 3))
}

func TestSpectralNormSym(t *testing.T) {
	s := matrix.Diag([]float64{3, -7, 2})
	got, err := SpectralNormSym(s)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-7) > 1e-12 {
		t.Fatalf("SpectralNormSym = %v, want 7", got)
	}
}

// TestSpectralNormSymScaleInvariant: scaling S by c scales ‖S‖₂ by c —
// exactly when c is a power of two. Without the power-of-two prescaling
// Jacobi does not converge at 1e-150.
func TestSpectralNormSymScaleInvariant(t *testing.T) {
	s := randSym(rand.New(rand.NewSource(93)), 17)
	want, err := SpectralNormSym(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []float64{1e150, 1e-150, 0x1p-60, 0x1p+60} {
		got, err := SpectralNormSym(s.Scale(c))
		if err != nil {
			t.Fatalf("scale %g: %v", c, err)
		}
		frac, _ := math.Frexp(c)
		if frac == 0.5 && got/c != want || math.Abs(got/c-want) > 1e-14*want {
			t.Fatalf("scale %g: ‖cS‖₂/c = %v, want %v", c, got/c, want)
		}
	}
}

// TestSpectralNormSymNonFinite: a NaN or Inf is ErrNoConvergence, never a
// norm (the Jacobi SVD itself sorts a NaN σ behind a 0).
func TestSpectralNormSymNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(-1)} {
		s := matrix.New(3, 3)
		s.Set(1, 1, bad)
		if v, err := SpectralNormSym(s); !errors.Is(err, ErrNoConvergence) {
			t.Fatalf("%v input: norm %v, err %v", bad, v, err)
		}
	}
}

func TestEigSymVsSVDOnGram(t *testing.T) {
	// λ_i(AᵀA) == σ_i(A)².
	rng := rand.New(rand.NewSource(14))
	a := randDense(rng, 10, 5)
	e, err := computeEigSym(a.Gram())
	if err != nil {
		t.Fatal(err)
	}
	sig, err := SingularValues(a)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sig {
		if math.Abs(e.Values[i]-sig[i]*sig[i]) > 1e-8*math.Max(1, sig[i]*sig[i]) {
			t.Fatalf("λ[%d] = %v, σ² = %v", i, e.Values[i], sig[i]*sig[i])
		}
	}
}

// Property: trace(S) == Σ eigenvalues.
func TestPropEigTrace(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		s := randSym(rng, n)
		e, err := computeEigSym(s)
		if err != nil {
			return false
		}
		sum := 0.0
		for _, v := range e.Values {
			sum += v
		}
		return math.Abs(sum-s.Trace()) < 1e-9*(1+math.Abs(s.Trace()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// unitRoundoff is u = 2⁻⁵³, the unit roundoff of float64.
const unitRoundoff = 0x1p-53

// eigCase is one input of the accuracy table.
type eigCase struct {
	name string
	s    *matrix.Dense
}

func eigCases() []eigCase {
	rng := rand.New(rand.NewSource(90))
	var cases []eigCase
	for _, n := range []int{1, 2, 3, 31, 32, 33, 256} {
		cases = append(cases, eigCase{"random n=" + strconv.Itoa(n), randSym(rng, n)})
	}
	// Rank 5 in dimension 20: fifteen eigenvalues are zero up to rounding.
	cases = append(cases, eigCase{"rank-deficient", randDense(rng, 5, 20).Gram()})
	// Eigenvalues 3 (×4), 1 (×3) and 0 (×2) in a random basis.
	q := orthonormalizeColumns(randDense(rng, 9, 9), 0)
	lam := matrix.Diag([]float64{3, 3, 3, 3, 1, 1, 1, 0, 0})
	cases = append(cases, eigCase{"repeated", q.Mul(lam).MulT(q)})
	cases = append(cases, eigCase{"identity", identity(12)})
	cases = append(cases, eigCase{"zero", matrix.New(6, 6)})
	cases = append(cases, eigCase{"diagonal", matrix.Diag([]float64{-2, 9, 0, 4, 4, -7, 1e-3})})
	base := randSym(rng, 17)
	cases = append(cases, eigCase{"scaled 1e150", base.Scale(1e150)})
	cases = append(cases, eigCase{"scaled 1e-150", base.Scale(1e-150)})
	return cases
}

// TestEigSymAccuracy holds the QL solver to backward-stable bounds on every
// case of eigCases: ‖SV − VΛ‖ ≤ c·n·u·‖S‖₂ and ‖VᵀV − I‖ ≤ c·n·u, both
// measured in the Frobenius norm (an upper bound on the 2-norm), with ‖S‖₂
// taken from the Jacobi SVD. Values must be sorted and equal, bit for bit,
// to the values-only EigenvaluesSym.
func TestEigSymAccuracy(t *testing.T) {
	const c = 8.0
	for _, tc := range eigCases() {
		n, s := tc.s.Rows(), tc.s
		e, err := computeEigSym(s)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		norm, err := SpectralNormSym(s)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		// Scale before multiplying so that the 1e±150 cases neither
		// overflow nor underflow in the check itself.
		scale := 1.0
		if norm > 0 {
			scale = 1 / norm
		}
		sv := s.Scale(scale).Mul(e.V)
		vl := e.V.Mul(matrix.Diag(e.Values).Scale(scale))
		resid := sv.Sub(vl).Frob()
		orth := e.V.T().Mul(e.V).Sub(identity(n)).Frob()
		tol := c * float64(n) * unitRoundoff
		t.Logf("%-14s n=%3d  ‖SV−VΛ‖/‖S‖₂ = %.2e  ‖VᵀV−I‖ = %.2e  (bound %.2e)", tc.name, n, resid, orth, tol)
		if resid > tol {
			t.Errorf("%s: residual %.3e > %.3e", tc.name, resid, tol)
		}
		if orth > tol {
			t.Errorf("%s: orthogonality %.3e > %.3e", tc.name, orth, tol)
		}
		if !sort.IsSorted(sort.Reverse(sort.Float64Slice(e.Values))) {
			t.Errorf("%s: eigenvalues not sorted non-increasing", tc.name)
		}
		vals, err := EigenvaluesSym(s)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for i := range vals {
			if math.Float64bits(vals[i]) != math.Float64bits(e.Values[i]) {
				t.Errorf("%s: λ[%d] with vectors %v, values only %v", tc.name, i, e.Values[i], vals[i])
				break
			}
		}
	}
}

// TestEigSymMatchesJacobiFactor checks the QL eigenvalues of a Gram AᵀA
// against the squared Jacobi singular values of its factor A, an oracle
// that shares no code with the QL path: |λⱼ − σⱼ²| ≤ c·d·u·σ₁².
func TestEigSymMatchesJacobiFactor(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for _, dims := range [][2]int{{40, 8}, {64, 33}, {8, 20}, {300, 64}} {
		n, d := dims[0], dims[1]
		a := randDense(rng, n, d)
		e, err := computeEigSym(a.Gram())
		if err != nil {
			t.Fatal(err)
		}
		sig, err := SingularValues(a)
		if err != nil {
			t.Fatal(err)
		}
		tol := 4 * float64(d) * unitRoundoff * sig[0] * sig[0]
		for j := 0; j < d; j++ {
			want := 0.0
			if j < len(sig) {
				want = sig[j] * sig[j]
			}
			if diff := math.Abs(e.Values[j] - want); diff > tol {
				t.Fatalf("%d×%d: λ[%d] = %v, σ² = %v (|diff| %.2e > %.2e)", n, d, j, e.Values[j], want, diff, tol)
			}
		}
	}
}

// TestEigenvaluesSymPinned pins the values-only path to the bits it
// produced before the eigenvector accumulation was added to the same
// reduction and QL iteration. The Gram is summed by a plain loop here so
// that the pin does not depend on the SIMD kernels.
func TestEigenvaluesSymPinned(t *testing.T) {
	p1 := matrix.NewFromRows([][]float64{{4, 1, -2, 2}, {1, 2, 0, 1}, {-2, 0, 3, -2}, {2, 1, -2, -1}})
	a := randDense(rand.New(rand.NewSource(71)), 9, 5)
	p3 := matrix.New(5, 5)
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			s := 0.0
			for k := 0; k < 9; k++ {
				s += a.At(k, i) * a.At(k, j)
			}
			p3.Set(i, j, s)
		}
	}
	for _, tc := range []struct {
		name string
		s    *matrix.Dense
		want []string
	}{
		{"p1", p1, []string{"0x1.b60e45b04578cp+02", "0x1.225f3cb44918fp+01", "0x1.1598e8d4d9bd9p+00", "-0x1.19483c7f40e8ep+01"}},
		{"p2", randSym(rand.New(rand.NewSource(70)), 7), []string{"0x1.41cd0b5b9bfbbp+01", "0x1.1e8c3935965dcp+00", "0x1.dbe46d23afa6cp-02", "-0x1.db4822d17f92p-06", "-0x1.3cc45a7026f4fp+00", "-0x1.0924bbb4cd529p+01", "-0x1.12331c0fc6dbap+02"}},
		{"p3", p3, []string{"0x1.c38a52f2fbbdcp+04", "0x1.4a10e30833c13p+03", "0x1.85a1dbc9ee0bp+02", "0x1.1a63a590a98dcp+01", "0x1.2e8d23b8afbadp+00"}},
		{"p1·1e150", p1.Scale(1e150), []string{"0x1.0ba5804561142p+501", "0x1.62d3c4810d004p+499", "0x1.533782aea760dp+498", "-0x1.57b83b59bf55fp+499"}},
		{"p1·1e-150", p1.Scale(1e-150), []string{"0x1.667b5d7b100b9p-496", "0x1.db40222e7d998p-498", "0x1.c6579a88d8b4ep-499", "-0x1.cc5f8acf4505p-498"}},
	} {
		vals, err := EigenvaluesSym(tc.s)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for i, w := range tc.want {
			if got := strconv.FormatFloat(vals[i], 'x', -1, 64); got != w {
				t.Errorf("%s: λ[%d] = %s, pinned %s", tc.name, i, got, w)
			}
		}
	}
}

// TestEigSymNonFiniteIsNoConvergence: a NaN or Inf anywhere in the input
// is ErrNoConvergence from both entry points, never a NaN eigenvalue.
func TestEigSymNonFiniteIsNoConvergence(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		for _, n := range []int{1, 2, 5} {
			for _, at := range [][2]int{{0, 0}, {n - 1, 0}, {n - 1, n - 1}} {
				s := randSym(rand.New(rand.NewSource(92)), n)
				s.Set(at[0], at[1], bad)
				s.Set(at[1], at[0], bad)
				if vals, err := EigenvaluesSym(s); !errors.Is(err, ErrNoConvergence) {
					t.Errorf("EigenvaluesSym n=%d %v at %v: err %v, values %v", n, bad, at, err, vals)
				}
				if _, err := computeEigSym(s); !errors.Is(err, ErrNoConvergence) {
					t.Errorf("computeEigSym n=%d %v at %v: err %v", n, bad, at, err)
				}
			}
		}
	}
}
