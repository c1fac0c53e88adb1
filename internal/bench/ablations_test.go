package bench

import "testing"

func TestBernoulliVsIID(t *testing.T) {
	rows, err := BernoulliVsIID(smallConfig(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.CovErr < 0 {
			t.Fatalf("%s: negative error", r.Algorithm)
		}
	}
	// The Bernoulli rows must satisfy their budget.
	for i := 0; i < len(rows); i += 2 {
		if !rows[i].OK {
			t.Errorf("%s: Bernoulli guarantee violated: %v", rows[i].Algorithm, rows[i].CovErr)
		}
	}
}

func TestFinalCompressAblation(t *testing.T) {
	rows, err := FinalCompressAblation(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if !r.OK {
			t.Errorf("%s: guarantee violated (%v > %v)", r.Algorithm, r.CovErr, r.Budget)
		}
	}
}

func TestBufferFactorAblation(t *testing.T) {
	rows, err := BufferFactorAblation(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if !r.OK {
			t.Errorf("%s: guarantee violated (%v > %v)", r.Algorithm, r.CovErr, r.Budget)
		}
	}
}

func TestSparseInputAblation(t *testing.T) {
	rows, err := SparseInputAblation(smallConfig(), 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if !r.OK {
			t.Errorf("%s: guarantee violated (%v > %v)", r.Algorithm, r.CovErr, r.Budget)
		}
	}
	// Dense and sparse Jacobi paths are the same algorithm: identical error.
	if rows[0].CovErr != rows[1].CovErr {
		t.Fatalf("dense %v vs sparse %v jacobi errors differ", rows[0].CovErr, rows[1].CovErr)
	}
}
