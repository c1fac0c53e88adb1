package fd

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/linalg"
	"repro/internal/matrix"
	"repro/internal/parallel"
	"repro/internal/workload"
)

// fullBuffer returns a sketch whose buffer holds exactly the rows of buf,
// with no shrink run yet.
func fullBuffer(t *testing.T, buf *matrix.Dense, ell int, alpha float64) *Sketch {
	t.Helper()
	n, d := buf.Dims()
	s := New(d, ell, Options{Alpha: alpha, BufferRows: n})
	if err := s.UpdateMatrix(buf); err != nil {
		t.Fatal(err)
	}
	if s.Shrinks() != 0 || s.used != n {
		t.Fatalf("buffer not full: %d shrinks, %d of %d rows", s.Shrinks(), s.used, n)
	}
	return s
}

// jacobiShrink is the reference shrink: the Jacobi SVD of buf, the shared
// cutoff max(n,d)·u·σ₁² on its squared spectrum, shrinkSpectrum, and rows
// σ'_j·v_jᵀ. It returns the rows, the shrunk spectrum and the charge.
func jacobiShrink(t *testing.T, buf *matrix.Dense, ell int, alpha float64) (*matrix.Dense, []float64, float64) {
	t.Helper()
	n, d := buf.Dims()
	svd, err := linalg.ComputeSVD(buf)
	if err != nil {
		t.Fatal(err)
	}
	sig2 := make([]float64, len(svd.Sigma))
	for j, s := range svd.Sigma {
		sig2[j] = s * s
	}
	tol := float64(max(n, d)) * 0x1p-52 * sig2[0]
	for j := range sig2 {
		if sig2[j] <= tol {
			sig2[j] = 0
		}
	}
	charge := shrinkSpectrum(sig2, ell, alpha)
	var rows [][]float64
	for j := 0; j < len(sig2) && sig2[j] > 0; j++ {
		row := make([]float64, d)
		for l := range row {
			row[l] = math.Sqrt(sig2[j]) * svd.V.At(l, j)
		}
		rows = append(rows, row)
	}
	if len(rows) == 0 {
		return matrix.New(0, d), sig2, charge
	}
	return matrix.NewFromRows(rows), sig2, charge
}

// TestShrinkGramRouteMatchesJacobi: the covariance shrink keeps as many
// rows as a Jacobi shrink under the same cutoff, its shrunk spectrum and
// charge agree within 8·max(n,d)·u·λ₁, and so does the covariance of the
// rows it leaves. It logs the squaring charge max(n,d)·u·λ₁ beside the
// shrink's δ.
func TestShrinkGramRouteMatchesJacobi(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	inputs := []struct {
		name string
		ell  int
		buf  *matrix.Dense
	}{
		{"wide 16×40", 8, workload.PowerLawSpectrum(rng, 16, 40, 1, 100)},
		{"wide 24×96", 12, workload.LowRankPlusNoise(rng, 24, 96, 6, 10, 0.7, 0.3)},
		{"tall 20×12", 10, workload.PowerLawSpectrum(rng, 20, 12, 1, 100)},
		{"tall 64×24", 20, workload.LowRankPlusNoise(rng, 64, 24, 4, 10, 0.7, 0.3)},
		{"rank-5 wide 16×40", 8, workload.LowRankPlusNoise(rng, 16, 40, 5, 10, 0.8, 0)},
		{"rank-5 tall 40×12", 8, workload.LowRankPlusNoise(rng, 40, 12, 5, 10, 0.8, 0)},
	}
	for _, in := range inputs {
		n, d := in.buf.Dims()
		lambda1, err := linalg.SpectralNormSym(in.buf.Gram())
		if err != nil {
			t.Fatal(err)
		}
		tol := 8 * float64(max(n, d)) * 0x1p-52 * lambda1
		for _, alpha := range []float64{1, 0.5} {
			s := fullBuffer(t, in.buf, in.ell, alpha)
			if err := s.shrink(); err != nil {
				t.Fatal(err)
			}
			got := s.buf.CopyRows(0, s.used)
			want, wantSig2, wantCharge := jacobiShrink(t, in.buf, in.ell, alpha)
			t.Logf("%-18s α=%.1f  δ %.3e  squaring charge %.3e  rows %d",
				in.name, alpha, s.TotalShrinkage(), tol/8, s.used)
			if got.Rows() != want.Rows() {
				t.Fatalf("%s α=%v: %d rows kept, Jacobi keeps %d", in.name, alpha, got.Rows(), want.Rows())
			}
			if strings.HasPrefix(in.name, "rank-5") && got.Rows() != 5 {
				t.Fatalf("%s α=%v: %d rows kept from a rank-5 buffer", in.name, alpha, got.Rows())
			}
			if diff := math.Abs(s.TotalShrinkage() - wantCharge); diff > tol {
				t.Errorf("%s α=%v: charge %.6e, Jacobi %.6e", in.name, alpha, s.TotalShrinkage(), wantCharge)
			}
			for j := 0; j < len(wantSig2); j++ {
				g := 0.0
				if j < len(s.sig2) {
					g = s.sig2[j]
				}
				if diff := math.Abs(g - wantSig2[j]); diff > tol {
					t.Errorf("%s α=%v: σ'²_%d = %.6e, Jacobi %.6e (|Δ| %.2e > %.2e)", in.name, alpha, j, g, wantSig2[j], diff, tol)
				}
			}
			cov, err := linalg.SpectralNormSym(got.Gram().Sub(want.Gram()))
			if err != nil {
				t.Fatal(err)
			}
			if cov > tol {
				t.Errorf("%s α=%v: ‖BᵀB − B_Jᵀ B_J‖₂ = %.3e above %.3e", in.name, alpha, cov, tol)
			}
		}
	}
}

// TestMergeCertificateAtD64: FD sketches of four shards at d = 64, merged,
// meet both certificates, the summed charges of every shrink in the merge
// and ‖A‖F²/(⌈αℓ⌉+1). The covariance error is measured by the Jacobi
// oracle (SpectralNormSym), not by CovarianceError, which at d > 32 runs
// the same QL the shrink runs.
func TestMergeCertificateAtD64(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	const shards, rows, d, ell = 4, 150, 64, 10
	a := workload.LowRankPlusNoise(rng, shards*rows, d, 8, 10, 0.7, 0.3)
	for _, alpha := range []float64{1, 0.5} {
		opts := Options{Alpha: alpha}
		root := New(d, ell, opts)
		for i := 0; i < shards; i++ {
			leaf := New(d, ell, opts)
			if err := leaf.UpdateMatrix(a.SliceRows(i*rows, (i+1)*rows)); err != nil {
				t.Fatal(err)
			}
			if err := root.Merge(leaf); err != nil {
				t.Fatal(err)
			}
		}
		b, err := root.Matrix()
		if err != nil {
			t.Fatal(err)
		}
		coverr, err := linalg.SpectralNormSym(a.Gram().Sub(b.Gram()))
		if err != nil {
			t.Fatal(err)
		}
		charges := root.TotalShrinkage() // Merge carried every leaf's charges
		apriori := a.Frob2() / float64(eligible(ell, alpha)+1)
		t.Logf("α=%.1f: coverr %.4e, Σ charges %.4e, ‖A‖F²/(⌈αℓ⌉+1) %.4e", alpha, coverr, charges, apriori)
		if coverr == 0 || coverr > charges || coverr > apriori {
			t.Fatalf("α=%v: coverr %.6e outside (0, min(Σ charges %.6e, a-priori %.6e)]", alpha, coverr, charges, apriori)
		}
	}
}

// TestShrinkAllocsConstant pins the steady-state allocations of one shrink
// at pool width 1: a constant count whatever ℓ and d, and at most
// 3.25·m² + 16·m float64s and 256 bytes for an m×m Gram: the Gram, the
// rotation record (≈1.1·m²) and the block of at most m requested
// eigenvectors. The race runtime allocates internally, so the test skips
// under -race.
func TestShrinkAllocsConstant(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates internally")
	}
	const maxAllocs, shrinks = 24, 10
	defer parallel.SetWorkers(parallel.Workers())
	parallel.SetWorkers(1)
	rng := rand.New(rand.NewSource(62))
	for _, shape := range []struct{ d, ell int }{{64, 10}, {256, 88}, {24, 20}, {8, 2}} {
		rows := workload.Gaussian(rng, 4*shape.ell, shape.d)
		s := New(shape.d, shape.ell, Options{})
		next := 0
		refill := func() {
			for s.used < s.bufferRows {
				s.buf.SetRow(s.used, rows.Row(next%rows.Rows()))
				s.used++
				next++
			}
		}
		refill()
		if err := s.shrink(); err != nil { // sizes the reused buffers
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(shrinks, func() {
			refill()
			if err := s.shrink(); err != nil {
				t.Fatal(err)
			}
		})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < shrinks; i++ {
			refill()
			if err := s.shrink(); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		m := min(s.bufferRows, shape.d)
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / shrinks
		maxBytes := float64(8*(13*m*m/4+16*m) + 256)
		t.Logf("d=%d ℓ=%d: %.0f allocations and %.0f bytes (%.2f·m² float64s, m=%d) per shrink",
			shape.d, shape.ell, allocs, bytes, bytes/float64(8*m*m), m)
		if allocs > maxAllocs {
			t.Errorf("d=%d ℓ=%d: %.0f allocations per shrink, want ≤ %d", shape.d, shape.ell, allocs, maxAllocs)
		}
		if bytes > maxBytes {
			t.Errorf("d=%d ℓ=%d: %.0f bytes per shrink, want ≤ %.0f", shape.d, shape.ell, bytes, maxBytes)
		}
	}
}

// TestSketchBitIdenticalAcrossPoolWidths: an FD sketch, wide buffer and
// tall, has the same bits at pool widths 1, 2 and 4. The shrink's Gram and
// its row product split across the pool; every entry keeps one summation
// chain whatever the split.
func TestSketchBitIdenticalAcrossPoolWidths(t *testing.T) {
	defer parallel.SetWorkers(parallel.Workers())
	rng := rand.New(rand.NewSource(64))
	for _, shape := range []struct{ d, ell int }{{256, 20}, {24, 20}} {
		a := workload.LowRankPlusNoise(rng, 300, shape.d, 6, 10, 0.7, 0.3)
		var want *matrix.Dense
		for _, w := range []int{1, 2, 4} {
			parallel.SetWorkers(w)
			got, err := SketchMatrix(a, shape.ell)
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = got
				continue
			}
			if !bitsEqual(got, want) {
				t.Fatalf("d=%d ℓ=%d: the sketch at pool width %d differs from width 1", shape.d, shape.ell, w)
			}
		}
	}
}

// bitsEqual reports whether a and b have the same shape and bits.
func bitsEqual(a, b *matrix.Dense) bool {
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() {
		return false
	}
	for i, x := range a.Data() {
		if math.Float64bits(x) != math.Float64bits(b.Data()[i]) {
			return false
		}
	}
	return true
}

// TestExtremeScales: a 256×32 Gaussian input scaled by 1e-160, 1e-150 or
// 1e150 sketches to the unit-scale sketch times the scale, within 1e-12
// relative. Squaring such rows leaves the normal range, so the shrink
// relies on the factor's power-of-two prescale.
func TestExtremeScales(t *testing.T) {
	a := workload.Gaussian(rand.New(rand.NewSource(63)), 256, 32)
	const ell = 8
	sketch := func(m *matrix.Dense) (*matrix.Dense, error) {
		s := New(32, ell, Options{})
		if err := s.UpdateMatrix(m); err != nil {
			return nil, err
		}
		return s.Matrix()
	}
	want, err := sketch(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, scale := range []float64{1e-160, 1e-150, 1e150} {
		got, err := sketch(a.Scale(scale))
		if err != nil {
			t.Fatalf("scale %g: %v", scale, err)
		}
		if !got.IsFinite() || got.Rows() != want.Rows() {
			t.Fatalf("scale %g: %d rows, finite %v; want %d finite rows", scale, got.Rows(), got.IsFinite(), want.Rows())
		}
		if diff := got.Scale(1 / scale).Sub(want).Frob(); diff > 1e-12*want.Frob() {
			t.Fatalf("scale %g: ‖B/scale − B₁‖F = %.3e, above 1e-12·‖B₁‖F = %.3e", scale, diff, 1e-12*want.Frob())
		}
	}
}

// BenchmarkShrink times one shrink of a full 2ℓ-row buffer at the shapes
// of the reference workloads: fd-dense-mem (d=256), fd-sparse-tcp-tree
// (d=512) and the service (d=64). The buffer refill is not timed.
func BenchmarkShrink(b *testing.B) {
	for _, shape := range []struct{ d, ell int }{{256, 88}, {512, 88}, {64, 40}} {
		b.Run(fmt.Sprintf("d=%d/ell=%d", shape.d, shape.ell), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(shape.d)))
			rows := workload.Gaussian(rng, 4*shape.ell, shape.d)
			s := New(shape.d, shape.ell, Options{})
			next := 0
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for s.used < s.bufferRows {
					s.buf.SetRow(s.used, rows.Row(next%rows.Rows()))
					s.used++
					next++
				}
				b.StartTimer()
				if err := s.shrink(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
