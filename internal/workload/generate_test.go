package workload

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"testing"

	"repro/internal/linalg"
	"repro/internal/matrix"
)

func TestGaussianShapeAndScale(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := Gaussian(rng, 500, 20)
	if m.Rows() != 500 || m.Cols() != 20 {
		t.Fatalf("dims %d×%d", m.Rows(), m.Cols())
	}
	// Mean squared entry ≈ 1.
	ms := m.Frob2() / float64(500*20)
	if ms < 0.9 || ms > 1.1 {
		t.Fatalf("mean square = %v, want ≈1", ms)
	}
}

func TestSignMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := SignMatrix(rng, 40, 16)
	plus := 0
	for _, v := range m.Data() {
		if v != 1 && v != -1 {
			t.Fatalf("entry %v not ±1", v)
		}
		if v == 1 {
			plus++
		}
	}
	if m.Frob2() != float64(40*16) {
		t.Fatalf("‖A‖F² = %v, want %d", m.Frob2(), 40*16)
	}
	// Roughly balanced.
	if plus < 200 || plus > 440 {
		t.Fatalf("plus count %d suspicious", plus)
	}
}

func TestLowRankPlusNoiseSpectrum(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := LowRankPlusNoise(rng, 200, 30, 5, 100, 0.5, 0.01)
	sig, err := linalg.SingularValues(a)
	if err != nil {
		t.Fatal(err)
	}
	// Top 5 singular values dominate the tail.
	head := linalg.TailEnergyOf(sig, 0) - linalg.TailEnergyOf(sig, 5)
	tail := linalg.TailEnergyOf(sig, 5)
	if head < 50*tail {
		t.Fatalf("head %v vs tail %v: not low-rank enough", head, tail)
	}
}

func TestLowRankPlusNoiseClampsK(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := LowRankPlusNoise(rng, 5, 3, 100, 1, 1, 0)
	if a.Rows() != 5 || a.Cols() != 3 {
		t.Fatal("dims wrong when k > min(n,d)")
	}
	if !a.IsFinite() {
		t.Fatal("non-finite entries")
	}
}

func TestPowerLawSpectrum(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := PowerLawSpectrum(rng, 60, 20, 1.0, 10)
	sig, err := linalg.SingularValues(a)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 10; j++ {
		want := 10 / float64(j+1)
		if math.Abs(sig[j]-want) > 1e-6*want {
			t.Fatalf("σ[%d] = %v, want %v", j, sig[j], want)
		}
	}
}

func TestClusteredGaussians(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := ClusteredGaussians(rng, 300, 10, 3, 20, 0.5)
	if a.Rows() != 300 || a.Cols() != 10 {
		t.Fatal("dims wrong")
	}
	// Cluster structure ⇒ strong top-3 components: tail energy after rank 3
	// should be a small fraction of total.
	te3, err := linalg.TailEnergy(a, 3)
	if err != nil {
		t.Fatal(err)
	}
	if te3 > 0.2*a.Frob2() {
		t.Fatalf("tail energy %v vs total %v: clusters not dominant", te3, a.Frob2())
	}
}

func TestDriftingSubspaceAnomalies(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a, anomalies := DriftingSubspace(rng, 100, 12, 3, 0, 50, 25)
	if len(anomalies) != 3 { // rows 25, 50, 75
		t.Fatalf("anomalies = %v", anomalies)
	}
	for _, i := range anomalies {
		if n := matrix.Norm(a.Row(i)); math.Abs(n-50) > 1e-6 {
			t.Fatalf("anomaly row %d norm %v, want 50", i, n)
		}
	}
	// With zero drift, non-anomalous rows lie in a rank-3 subspace.
	normal := matrix.New(0, 12)
	for i := 0; i < 20; i++ {
		isAnom := false
		for _, j := range anomalies {
			if i == j {
				isAnom = true
			}
		}
		if !isAnom {
			normal = normal.AppendRow(a.Row(i))
		}
	}
	if r := linalg.Rank(normal, 1e-8); r != 3 {
		t.Fatalf("normal rows rank %d, want 3", r)
	}
}

func TestIntegerMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m := IntegerMatrix(rng, 30, 10, 5)
	for _, v := range m.Data() {
		if v != math.Trunc(v) || math.Abs(v) > 5 {
			t.Fatalf("entry %v not an integer in [-5,5]", v)
		}
	}
}

func TestExactRank(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := ExactRank(rng, 40, 12, 4, 3)
	if r := linalg.Rank(a, 1e-9); r != 4 {
		t.Fatalf("rank = %d, want 4", r)
	}
}

func TestSplitSchemes(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a := Gaussian(rng, 37, 5)
	for _, scheme := range []Partition{Contiguous, RoundRobin, Skewed, RandomAssign} {
		parts := Split(a, 4, scheme, rand.New(rand.NewSource(11)))
		if len(parts) != 4 {
			t.Fatalf("%v: %d parts", scheme, len(parts))
		}
		total := 0
		frob := 0.0
		for _, p := range parts {
			total += p.Rows()
			frob += p.Frob2()
		}
		if total != 37 {
			t.Fatalf("%v: total rows %d, want 37", scheme, total)
		}
		if math.Abs(frob-a.Frob2()) > 1e-9 {
			t.Fatalf("%v: Frobenius not preserved", scheme)
		}
		// Gram matrices must sum to the global Gram (partition invariant).
		g := matrix.New(5, 5)
		for _, p := range parts {
			g = g.Add(p.Gram())
		}
		if !g.EqualApprox(a.Gram(), 1e-9) {
			t.Fatalf("%v: ΣGramᵢ != Gram", scheme)
		}
	}
}

func TestSplitContiguousPreservesOrder(t *testing.T) {
	a := matrix.NewFromRows([][]float64{{0}, {1}, {2}, {3}, {4}, {5}})
	parts := Split(a, 3, Contiguous, nil)
	if parts[0].At(0, 0) != 0 || parts[1].At(0, 0) != 2 || parts[2].At(1, 0) != 5 {
		t.Fatalf("contiguous order broken: %v %v %v", parts[0], parts[1], parts[2])
	}
}

func TestSplitSkewed(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := Gaussian(rng, 64, 2)
	parts := Split(a, 4, Skewed, nil)
	if parts[0].Rows() != 32 || parts[1].Rows() != 16 || parts[2].Rows() != 8 || parts[3].Rows() != 8 {
		t.Fatalf("skewed sizes: %d %d %d %d", parts[0].Rows(), parts[1].Rows(), parts[2].Rows(), parts[3].Rows())
	}
}

func TestPartitionString(t *testing.T) {
	for _, p := range []Partition{Contiguous, RoundRobin, Skewed, RandomAssign, Partition(99)} {
		if p.String() == "" {
			t.Fatal("empty String")
		}
	}
}

func TestRowStream(t *testing.T) {
	a := matrix.NewFromRows([][]float64{{1, 2}, {3, 4}})
	s := NewDenseSource(a)
	if s.Remaining() != 2 {
		t.Fatal("Remaining wrong")
	}
	r1, ok := s.Next()
	if !ok || r1[0] != 1 {
		t.Fatal("first row wrong")
	}
	r2, ok := s.Next()
	if !ok || r2[1] != 4 {
		t.Fatal("second row wrong")
	}
	if _, ok := s.Next(); ok {
		t.Fatal("stream should be exhausted")
	}
	s.Reset()
	if s.Remaining() != 2 {
		t.Fatal("Reset failed")
	}
}

func TestMatrixIORoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m := Gaussian(rng, 17, 9)
	var buf bytes.Buffer
	if err := WriteMatrix(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMatrix(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(m) {
		t.Fatal("round trip mismatch")
	}
}

func TestMatrixIOBadMagic(t *testing.T) {
	buf := bytes.NewBuffer([]byte{1, 2, 3, 4, 0, 0, 0, 0, 0, 0, 0, 0})
	if _, err := ReadMatrix(buf); err == nil {
		t.Fatal("expected bad-magic error")
	}
}

func TestMatrixIOFiles(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	m := Gaussian(rng, 5, 5)
	path := t.TempDir() + "/m.dskm"
	if err := SaveMatrix(path, m); err != nil {
		t.Fatal(err)
	}
	got, err := LoadMatrix(path)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(m) {
		t.Fatal("file round trip mismatch")
	}
	if _, err := LoadMatrix(path + ".missing"); err == nil {
		t.Fatal("expected error for missing file")
	}
}

func TestSparseRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	s := SparseRandom(rng, 200, 40, 0.1)
	if r, c := s.Dims(); r != 200 || c != 40 {
		t.Fatalf("dims %d×%d", r, c)
	}
	if d := s.Density(); d < 0.07 || d > 0.13 {
		t.Fatalf("density %v, want ≈0.1", d)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SparseRandom(rng, 1, 1, 2)
}

func TestReadCSVMatrix(t *testing.T) {
	csv := "# comment\n1, 2.5, -3\n\n4,5,6\n"
	m, err := ReadCSVMatrix(bytes.NewBufferString(csv))
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Fatalf("dims %d×%d", m.Rows(), m.Cols())
	}
	if m.At(0, 1) != 2.5 || m.At(1, 2) != 6 {
		t.Fatalf("values wrong: %v", m)
	}
	if _, err := ReadCSVMatrix(bytes.NewBufferString("1,2\n3\n")); err == nil {
		t.Fatal("ragged csv must error")
	}
	if _, err := ReadCSVMatrix(bytes.NewBufferString("1,x\n")); err == nil {
		t.Fatal("bad float must error")
	}
}

func TestLoadCSVMatrix(t *testing.T) {
	path := t.TempDir() + "/m.csv"
	if err := os.WriteFile(path, []byte("1,2\n3,4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := LoadCSVMatrix(path)
	if err != nil {
		t.Fatal(err)
	}
	if m.At(1, 1) != 4 {
		t.Fatal("load wrong")
	}
	if _, err := LoadCSVMatrix(path + ".missing"); err == nil {
		t.Fatal("missing file must error")
	}
}
