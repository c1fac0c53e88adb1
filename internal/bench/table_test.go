package bench

import (
	"bytes"
	"flag"
	"io"
	"os"
	"strings"
	"testing"

	"repro/internal/matrix"
)

var update = flag.Bool("update", false, "rewrite testdata/golden_small.txt from the current output")

// goldenConfig is the small workload the committed golden output is taken
// at: sketchbench -experiment all -n 1024 -d 24 -s 4 -k 3 -eps 0.25.
func goldenConfig() Config {
	return Config{Seed: 1, N: 1024, D: 24, S: 4, K: 3, Eps: 0.25}
}

// TestGoldenSmall pins what the harness prints: every experiment of the
// table at the small config, byte for byte — each row's words, theory,
// error, budget, ok and note. The harness reads no clock, so any diff is a
// changed result; after an intended change, regenerate with
//
//	go test ./internal/bench -run TestGoldenSmall -update
func TestGoldenSmall(t *testing.T) {
	const path = "testdata/golden_small.txt"
	var got bytes.Buffer
	if err := Write(&got, "all", goldenConfig(), false); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(got.String(), " no ") {
		t.Errorf("a row's guarantee does not hold:\n%s", got.String())
	}
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	if isa := matrix.KernelISA(); isa != "avx-fma" {
		// The golden is taken with the AVX/FMA kernels; another instruction
		// set sums in another order and moves the last printed digits.
		t.Skipf("output differs from %s, as it may with the %s kernels", path, isa)
	}
	g, w := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	i := 0
	for i < len(g) && i < len(w) && g[i] == w[i] {
		i++
	}
	g, w = append(g, "<end>"), append(w, "<end>")
	t.Fatalf("output differs from %s at line %d (rerun with -update if intended):\n got: %s\nwant: %s", path, i+1, g[i], w[i])
}

// TestBadConfigIsAnErrorNotAPanic runs every experiment of the table under
// each out-of-range flag value: all must come back as an error (a panic
// would crash the test binary).
func TestBadConfigIsAnErrorNotAPanic(t *testing.T) {
	bad := map[string]func(*Config){
		"eps=0":   func(c *Config) { c.Eps = 0 },
		"eps=1":   func(c *Config) { c.Eps = 1 },
		"eps=1.5": func(c *Config) { c.Eps = 1.5 },
		"eps=-1":  func(c *Config) { c.Eps = -1 },
		"n=0":     func(c *Config) { c.N = 0 },
		"d=0":     func(c *Config) { c.D = 0 },
		"s=0":     func(c *Config) { c.S = 0 },
		"s>n":     func(c *Config) { c.S = c.N + 1 },
		"k=-1":    func(c *Config) { c.K = -1 },
	}
	for name, mutate := range bad {
		cfg := goldenConfig()
		mutate(&cfg)
		for _, e := range Experiments {
			if _, _, err := e.Run(cfg); err == nil {
				t.Errorf("%s with %s: no error", e.Name, name)
			}
		}
		if err := Write(io.Discard, "all", cfg, false); err == nil {
			t.Errorf("Write with %s: no error", name)
		}
	}
	// In range but degenerate (k = 0, d = 1, one row per server, 2k > d): an
	// experiment may decline with an error, but must not panic either.
	for _, cfg := range []Config{
		{Seed: 1, N: 64, D: 8, S: 4, K: 0, Eps: 0.25},
		{Seed: 1, N: 64, D: 1, S: 4, K: 3, Eps: 0.25},
		{Seed: 1, N: 16, D: 8, S: 16, K: 7, Eps: 0.5},
	} {
		for _, e := range Experiments {
			e.Run(cfg)
		}
	}
	if err := Write(io.Discard, "nope", goldenConfig(), false); err == nil || !strings.Contains(err.Error(), Names()) {
		t.Errorf("unknown experiment: error %v does not list the table", err)
	}
}

// TestShrinkFrontierSkipsEpsOutOfRange: S1 sweeps 2ε, which a legal ε ≥ 0.5
// pushes out of (0,1); those points are note rows, not a panic.
func TestShrinkFrontierSkipsEpsOutOfRange(t *testing.T) {
	cfg := smallConfig()
	cfg.Eps = 0.5
	rows, err := ShrinkFrontier(cfg)
	if err != nil {
		t.Fatal(err)
	}
	skipped := 0
	for _, r := range rows {
		if strings.HasPrefix(r.Note, "skipped") {
			skipped++
			if r.Eps != 1 {
				t.Errorf("%s skipped at eps=%v", r.Algorithm, r.Eps)
			}
		}
		if !r.OK {
			t.Errorf("%s eps=%v: certificate violated", r.Algorithm, r.Eps)
		}
	}
	if skipped != 2 {
		t.Fatalf("%d skipped points, want one per α", skipped)
	}
}

func TestFormatRowsStaysATable(t *testing.T) {
	out := FormatRows([]Row{
		{Algorithm: "FD buffer ℓ+1 (Liberty original)", S: 16, D: 64, K: 5, Eps: 0.1, OK: true, Note: "x"},
		{Algorithm: "coord-product m=1024", S: 16, D: 64, K: 1024, Eps: 0.01, Words: 12, OK: true},
	})
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("want header + 2 rows:\n%s", out)
	}
	// Every line's "ok" column ends at the same rune offset.
	col := -1
	for i, l := range lines {
		at := strings.Index(l, " yes")
		if i == 0 {
			at = strings.Index(l, "  ok")
		}
		if at < 0 {
			t.Fatalf("line %d has no ok column: %q", i, l)
		}
		at = len([]rune(l[:at]))
		if col >= 0 && at != col {
			t.Fatalf("line %d: ok column at rune %d, header at %d:\n%s", i, at, col, out)
		}
		col = at
	}
	for _, l := range lines {
		if strings.HasSuffix(l, " ") {
			t.Errorf("trailing blank in %q", l)
		}
	}
}
