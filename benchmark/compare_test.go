package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// syntheticSuite is a set of five untraced runs of every workload in which
// every end-to-end metric reads base·(1+wobble) for a small per-run wobble,
// except that scale[workload/metric] multiplies the named reading.
func syntheticSuite(scale map[string]float64, wobble []float64) *suite {
	s := &suite{Seed: defaultSeed}
	for _, wl := range workloads {
		for _, wob := range wobble {
			rec := &runRecord{Workload: wl.Name, Correct: true, Attempted: 10, Metrics: make(map[string]metricValue)}
			for i, m := range endToEndMetrics {
				v := float64(100*(i+1)) * (1 + wob)
				if m.Name == "words_total" && exactWords[wl.Name] {
					v = 90112 // exact metrics do not wobble
				}
				if f, ok := scale[wl.Name+"/"+m.Name]; ok {
					v *= f
				}
				rec.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
			}
			s.Runs = append(s.Runs, rec)
		}
	}
	return s
}

var quiet = []float64{-0.004, -0.002, 0, 0.002, 0.004}

func TestCompareIdenticalSetsPass(t *testing.T) {
	var out bytes.Buffer
	if code := compareSuites(&out, syntheticSuite(nil, quiet), syntheticSuite(nil, quiet)); code != 0 {
		t.Fatalf("identical sets exit %d:\n%s", code, out.String())
	}
	if strings.Contains(out.String(), "BREACH") || strings.Contains(out.String(), "unresolved") {
		t.Fatalf("identical sets were flagged:\n%s", out.String())
	}
	for _, m := range endToEndMetrics {
		if !strings.Contains(out.String(), m.Name) {
			t.Errorf("the report does not name %s", m.Name)
		}
	}
}

// A regression is flagged where it exceeds the pair's bound: 10% more words
// on the service (bound 5%), 30% less throughput on SVS (bound 25%) — and
// only there.
func TestCompareFlagsARegression(t *testing.T) {
	for pair, factor := range map[string]float64{
		"service-ingest-query/words_total": 1.10,
		"svs-dense-tcp/rows_per_s":         0.70,
	} {
		var out bytes.Buffer
		if code := compareSuites(&out, syntheticSuite(nil, quiet), syntheticSuite(map[string]float64{pair: factor}, quiet)); code != 1 {
			t.Fatalf("%s ×%v exits %d:\n%s", pair, factor, code, out.String())
		}
		wl, metric, _ := strings.Cut(pair, "/")
		breaches := 0
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.Contains(line, "BREACH") {
				breaches++
				if !strings.Contains(line, wl) || !strings.Contains(line, metric) {
					t.Errorf("wrong pair flagged: %s", line)
				}
			}
		}
		if breaches != 1 {
			t.Errorf("%s: %d breaches reported, want 1:\n%s", pair, breaches, out.String())
		}
	}

	// A gain of the same size is not a regression.
	var out bytes.Buffer
	faster := syntheticSuite(map[string]float64{"svs-dense-tcp/rows_per_s": 1.30}, quiet)
	if code := compareSuites(&out, syntheticSuite(nil, quiet), faster); code != 0 {
		t.Fatalf("a 30%% gain exits %d:\n%s", code, out.String())
	}
}

func TestCompareMarksNoisyPairsUnresolved(t *testing.T) {
	noisy := []float64{-0.2, -0.1, 0, 0.1, 0.2}
	var out bytes.Buffer
	if code := compareSuites(&out, syntheticSuite(nil, noisy), syntheticSuite(nil, noisy)); code != 0 {
		t.Fatalf("noise alone exits %d:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "unresolved") {
		t.Fatalf("a spread wider than the bound was not marked:\n%s", out.String())
	}
	// Unless every run of the change beats every run of the parent.
	m := endToEndMetrics[1] // rows_per_s
	if v, _, _ := verdict("fd-dense-mem", m, []float64{80, 100, 120}, []float64{150, 180, 210}); v != "ok" {
		t.Errorf("a clean win inside the noise is %q, want ok", v)
	}
}

func TestCompareHoldsBatchWordsExact(t *testing.T) {
	var out bytes.Buffer
	moved := syntheticSuite(map[string]float64{"fd-dense-mem/words_total": 1.001}, quiet)
	if code := compareSuites(&out, syntheticSuite(nil, quiet), moved); code != 1 {
		t.Fatalf("moved batch words exit %d:\n%s", code, out.String())
	}
	// The service's words depend on upload timing and get the metric's bound.
	out.Reset()
	drift := syntheticSuite(map[string]float64{"service-ingest-query/words_total": 1.02}, quiet)
	if code := compareSuites(&out, syntheticSuite(nil, quiet), drift); code != 0 {
		t.Fatalf("2%% more service words exit %d:\n%s", code, out.String())
	}
}

func TestCompareFailShareMustNotRise(t *testing.T) {
	b := syntheticSuite(nil, quiet)
	b.Runs[0].Failed = 1
	var out bytes.Buffer
	if code := compareSuites(&out, syntheticSuite(nil, quiet), b); code != 1 {
		t.Fatalf("a new failure exits %d:\n%s", code, out.String())
	}
}

func TestCompareFilesRoundTrip(t *testing.T) {
	dir := t.TempDir()
	a, b := dir+"/a.json", dir+"/b.json"
	if err := writeJSON(a, syntheticSuite(nil, quiet)); err != nil {
		t.Fatal(err)
	}
	if err := writeJSON(b, syntheticSuite(map[string]float64{"product-sparse-tcp/latency_ms_p50": 1.3}, quiet)); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if code := compareFiles(&out, a, a); code != 0 {
		t.Errorf("a file against itself exits %d", code)
	}
	if code := compareFiles(&out, a, b); code != 1 {
		t.Errorf("a 30%% latency regression exits %d", code)
	}
	if code := compareFiles(&out, a, dir+"/missing.json"); code != 2 {
		t.Errorf("a missing file exits %d, want 2", code)
	}
}

// BENCHMARK.json is the contract a driver reads; the tables in metrics.go
// are what the program prints. They must say the same thing.
func TestBenchmarkJSONMatchesTheTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []metricSpec   `json:"end_to_end"`
		PerLayer   []metricSpec   `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", doc.RunSeconds)
	}
	equal := func(what string, got, want any) {
		g, _ := json.Marshal(got)
		w, _ := json.Marshal(want)
		if !bytes.Equal(g, w) {
			t.Errorf("%s differ:\n BENCHMARK.json %s\n metrics.go     %s", what, g, w)
		}
	}
	equal("workloads", doc.Workloads, workloads)
	equal("end-to-end metrics", doc.EndToEnd, endToEndMetrics)
	equal("per-layer metrics", doc.PerLayer, perLayerMetrics)
	hasSetup := false
	for _, m := range doc.EndToEnd {
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
}
