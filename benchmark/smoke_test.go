package main

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/fd"
	"repro/internal/workload"
)

// Every workload, both passes, at smoke size: the run is correct, nothing
// failed, the certificate holds, and every metric of the pass is reported.
func TestEveryWorkloadRunsCorrectAtSmokeSize(t *testing.T) {
	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			name := wl.Name + "/untraced"
			if trace {
				name = wl.Name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				opt := options{workload: wl.Name, seed: 7, seconds: 0.2, trace: trace, smoke: true}
				if trace {
					opt.spans = filepath.Join(t.TempDir(), "spans.json")
				}
				rec, err := runWorkload(context.Background(), opt)
				if err != nil {
					t.Fatal(err)
				}
				if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d: %v", rec.Correct, rec.Attempted, rec.Failed, rec.Failures)
				}
				if len(rec.Hash) != 64 {
					t.Errorf("result hash %q", rec.Hash)
				}
				specs := endToEndMetrics
				if trace {
					specs = perLayerMetrics
				}
				if len(rec.Metrics) != len(specs) {
					t.Errorf("%d metrics reported, want %d", len(rec.Metrics), len(specs))
				}
				for _, m := range specs {
					v, ok := rec.Metrics[m.Name]
					if !ok || v.Unit != m.Unit {
						t.Errorf("metric %s reported as %+v", m.Name, v)
					}
					if !trace && !(v.Value > 0) {
						t.Errorf("end-to-end metric %s reads %v; it must never be 0", m.Name, v.Value)
					}
				}
				if !trace {
					if r := rec.Metrics["err_over_bound"].Value; r > 1 {
						t.Errorf("err_over_bound = %v", r)
					}
					return
				}
				if v := rec.Metrics["workload.rows_read"].Value; v <= 0 {
					t.Errorf("workload.rows_read = %v: the source decorator saw nothing", v)
				}
				if v := rec.Metrics["obs.bits_total"].Value; v <= 0 {
					t.Errorf("obs.bits_total = %v: the observer saw nothing", v)
				}
				if v := rec.Metrics["comm.frame_bytes"].Value; v <= 0 {
					t.Errorf("comm.frame_bytes = %v: no uplink message was replayed", v)
				}
				data, err := os.ReadFile(opt.spans)
				if err != nil {
					t.Fatal(err)
				}
				var spans []span
				if err := json.Unmarshal(data, &spans); err != nil || len(spans) == 0 {
					t.Fatalf("spans file: %d spans, %v", len(spans), err)
				}
			})
		}
	}
}

// Two runs of one commit and seed must agree bit for bit on the batch
// workloads: same result bytes, same words.
func TestBatchWorkloadsRepeatBitForBit(t *testing.T) {
	for _, wl := range workloads {
		if !exactWords[wl.Name] {
			continue
		}
		opt := options{workload: wl.Name, seed: 3, seconds: 0.05, smoke: true}
		a, err := runWorkload(context.Background(), opt)
		if err != nil {
			t.Fatal(err)
		}
		b, err := runWorkload(context.Background(), opt)
		if err != nil {
			t.Fatal(err)
		}
		if a.Hash != b.Hash || a.Metrics["words_total"] != b.Metrics["words_total"] {
			t.Errorf("%s: runs differ: %s/%v vs %s/%v", wl.Name, a.Hash[:12], a.Metrics["words_total"].Value, b.Hash[:12], b.Metrics["words_total"].Value)
		}
		opt.seed = 4
		c, err := runWorkload(context.Background(), opt)
		if err != nil {
			t.Fatal(err)
		}
		if c.Hash == a.Hash {
			t.Errorf("%s: another seed gave the same result bytes", wl.Name)
		}
	}
}

func TestUnknownWorkloadIsAnError(t *testing.T) {
	if _, err := runWorkload(context.Background(), options{workload: "nope", seconds: 1}); err == nil {
		t.Fatal("an unknown workload name was accepted")
	}
}

// The certificate check takes its budget from the eigenvalues of AᵀA; it
// must be the number core.IsEpsKSketch gets from an SVD of A.
func TestEpsKRatioMatchesIsEpsKSketch(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := workload.LowRankPlusNoise(rng, 300, 24, 3, 30, 0.7, 0.5)
	b, err := fd.SketchEpsK(a, 0.2, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{0, 3} {
		_, coverr, budget, err := core.IsEpsKSketch(a, b, 0.2, k)
		if err != nil {
			t.Fatal(err)
		}
		got, err := epsKRatio(a.Gram(), b, 0.2, k)
		if err != nil {
			t.Fatal(err)
		}
		if want := coverr / budget; math.Abs(got-want) > 1e-9*want {
			t.Errorf("k=%d: epsKRatio = %v, IsEpsKSketch gives %v", k, got, want)
		}
	}
}
