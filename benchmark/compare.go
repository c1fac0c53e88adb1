package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// endToEndValues collects, per workload and end-to-end metric, the value of
// every untraced run in s, and per workload the share of operations failed.
func endToEndValues(s *suite) (values map[string]map[string][]float64, failShare map[string]float64) {
	values = make(map[string]map[string][]float64)
	attempted, failed := make(map[string]int), make(map[string]int)
	for _, rec := range s.Runs {
		attempted[rec.Workload] += rec.Attempted
		failed[rec.Workload] += rec.Failed
		if rec.Trace != 0 {
			continue
		}
		if values[rec.Workload] == nil {
			values[rec.Workload] = make(map[string][]float64)
		}
		for _, m := range endToEndMetrics {
			if v, ok := rec.Metrics[m.Name]; ok {
				values[rec.Workload][m.Name] = append(values[rec.Workload][m.Name], v.Value)
			}
		}
	}
	failShare = make(map[string]float64)
	for w, n := range attempted {
		if n > 0 {
			failShare[w] = float64(failed[w]) / float64(n)
		}
	}
	return values, failShare
}

// printSuite prints the medians of a set of runs: every end-to-end metric of
// every workload, and the tracing overhead the traced pass saw.
func printSuite(w io.Writer, s *suite) {
	values, failShare := endToEndValues(s)
	fmt.Fprintf(w, "\n== summary  seed %d  GOMAXPROCS=%d nproc=%d %s %s\n", s.Seed, s.Env.GOMAXPROCS, s.Env.NProc, s.Env.KernelISA, s.Env.GoVersion)
	for _, wl := range workloads {
		fmt.Fprintf(w, "%s  (%d runs, fail_share %.4g)\n", wl.Name, len(values[wl.Name]["setup_s"]), failShare[wl.Name])
		for _, m := range endToEndMetrics {
			xs := values[wl.Name][m.Name]
			fmt.Fprintf(w, "  %-18s median %14.6g %-7s spread %6.2f%%  bound %4.1f%%\n", m.Name, median(xs), m.Unit, 100*spread(xs), 100*boundFor(wl.Name, m))
		}
		var overhead []float64
		for _, rec := range s.Runs {
			if rec.Workload == wl.Name && rec.Trace == 1 {
				overhead = append(overhead, rec.Metrics["obs.traced_overhead_pct"].Value)
			}
		}
		fmt.Fprintf(w, "  %-18s median %14.6g %%\n", "traced overhead", median(overhead))
	}
}

// boundFor is the regression bound of metric m on workload w.
func boundFor(w string, m metricSpec) float64 {
	if m.Name == "words_total" && exactWords[w] {
		return 0
	}
	return m.Bound
}

// worsening is how far b is worse than a, as a share of a, in the direction
// that is bad for the metric; negative when b is better.
func worsening(m metricSpec, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if m.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// allBetter reports whether every run of b reads better than every run of a.
func allBetter(m metricSpec, a, b []float64) bool {
	for _, x := range a {
		for _, y := range b {
			if worsening(m, x, y) >= 0 {
				return false
			}
		}
	}
	return len(a) > 0 && len(b) > 0
}

// verdict judges one workload × metric pair between a parent set of runs, a,
// and a change, b: unresolved when the run-to-run spread is wider than the
// bound (unless every run of b beats every run of a), BREACH when b's median
// is worse than a's by more than the bound, ok otherwise.
func verdict(w string, m metricSpec, a, b []float64) (status string, worse, noise float64) {
	bound := boundFor(w, m)
	worse = worsening(m, median(a), median(b))
	noise = max(spread(a), spread(b))
	switch {
	case noise > bound && !allBetter(m, a, b):
		if bound == 0 && worse != 0 {
			return "BREACH", worse, noise // an exact metric moved
		}
		return "unresolved", worse, noise
	case worse > bound:
		return "BREACH", worse, noise
	}
	return "ok", worse, noise
}

func readSuite(path string) (*suite, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s suite
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.Runs) == 0 {
		return nil, fmt.Errorf("%s holds no runs", path)
	}
	return &s, nil
}

// compareFiles prints every workload × end-to-end metric of two -out files
// with both medians and the bound, and returns 1 if any pair breaches its
// bound or the share of failed operations rose.
func compareFiles(w io.Writer, pathA, pathB string) int {
	a, err := readSuite(pathA)
	if err == nil {
		var b *suite
		if b, err = readSuite(pathB); err == nil {
			return compareSuites(w, a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 2
}

func compareSuites(w io.Writer, a, b *suite) int {
	va, failA := endToEndValues(a)
	vb, failB := endToEndValues(b)
	status := 0
	fmt.Fprintf(w, "%-22s %-16s %14s %14s %9s %8s %8s  %s\n", "workload", "metric", "median a", "median b", "worse", "spread", "bound", "verdict")
	for _, wl := range workloads {
		for _, m := range endToEndMetrics {
			xa, xb := va[wl.Name][m.Name], vb[wl.Name][m.Name]
			if len(xa) == 0 || len(xb) == 0 {
				fmt.Fprintf(w, "%-22s %-16s missing from one side\n", wl.Name, m.Name)
				status = 1
				continue
			}
			v, worse, noise := verdict(wl.Name, m, xa, xb)
			if v == "BREACH" {
				status = 1
			}
			fmt.Fprintf(w, "%-22s %-16s %14.6g %14.6g %+8.2f%% %7.2f%% %7.1f%%  %s\n",
				wl.Name, m.Name, median(xa), median(xb), 100*worse, 100*noise, 100*boundFor(wl.Name, m), v)
		}
		v := "ok"
		if failB[wl.Name] > failA[wl.Name] {
			v, status = "BREACH", 1
		}
		fmt.Fprintf(w, "%-22s %-16s %14.6g %14.6g %35s  %s\n", wl.Name, "fail_share", failA[wl.Name], failB[wl.Name], "must not rise", v)
	}
	return status
}
