package bench

import (
	"strings"
	"testing"
)

// The K1 smoke keeps the shape small, so the ≥2× speedup bar of the blocked
// legs is not asserted here (tiny matrices don't amortize the blocking) —
// only the structure and the wire-leg invariants, which are exact at every
// size.
func TestKernelBenchSmokeAndWireInvariants(t *testing.T) {
	rows, err := KernelBench(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("expected 6 rows (4 kernel + 2 wire), got %d", len(rows))
	}
	byAlgo := map[string]Row{}
	for _, r := range rows {
		if r.Experiment != "k1" {
			t.Fatalf("row %s in experiment %q, want k1", r.Algorithm, r.Experiment)
		}
		byAlgo[r.Algorithm] = r
	}
	for _, name := range []string{"gram-ref", "gram-blocked", "tmul-ref", "tmul-blocked"} {
		r, ok := byAlgo[name]
		if !ok {
			t.Fatalf("missing kernel leg %s", name)
		}
		if r.ElapsedMS <= 0 || r.Throughput <= 0 {
			t.Errorf("%s: no timing measured (elapsed %v, throughput %v)", name, r.ElapsedMS, r.Throughput)
		}
		if !strings.Contains(r.Note, "isa=") {
			t.Errorf("%s: note %q does not name the kernel ISA", name, r.Note)
		}
	}
	w64, w32 := byAlgo["fd-merge/float64"], byAlgo["fd-merge/float32"]
	if w64.Words <= 0 || w32.Words != w64.Words/2 {
		t.Fatalf("float32 words %v, want exactly half of %v", w32.Words, w64.Words)
	}
	if !w64.OK {
		t.Errorf("float64 leg violated its certificate: err %v > budget %v", w64.CovErr, w64.Budget)
	}
	if !w32.OK {
		t.Errorf("float32 leg violated its charged certificate: err %v, budget %v", w32.CovErr, w32.Budget)
	}
	if w32.Budget <= w64.Budget {
		t.Errorf("float32 budget %v does not carry the explicit charge over %v", w32.Budget, w64.Budget)
	}
	if !strings.Contains(w32.Note, "certificate charge") {
		t.Errorf("float32 note %q does not document the charge", w32.Note)
	}
}

func TestCollectKernelBaseline(t *testing.T) {
	// The BENCH_PR8.json shape: a timed table1 next to the k1 rows.
	cfg := smallConfig()
	fns := []func(Config) ([]Row, error){Table1, KernelBench}
	b, err := CollectBaseline(cfg, []string{"table1", "k1"}, func(i int) ([]Row, error) { return fns[i](cfg) })
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Experiments) != 2 || b.Experiments[0].Name != "table1" || b.Experiments[1].Name != "k1" {
		t.Fatalf("unexpected experiment set: %+v", b.Experiments)
	}
	for _, e := range b.Experiments {
		if e.ElapsedMS <= 0 {
			t.Errorf("%s: no elapsed time", e.Name)
		}
	}
	// The k1 experiment's observer scope sees the two fd-merge wire legs.
	if b.Experiments[1].Comm.Bits <= 0 || b.Experiments[1].Comm.Messages <= 0 {
		t.Errorf("k1 comm totals empty: %+v", b.Experiments[1].Comm)
	}
	if _, err := b.JSON(); err != nil {
		t.Fatal(err)
	}
}
