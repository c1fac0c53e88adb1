// Command benchmark is the repository's reference benchmark: five named
// workloads, each measured end to end by an untraced pass and layer by layer
// by a traced one, with every output checked against its certificate. See
// README.md in this directory for the workloads, the metrics and how to read
// them, and BENCHMARK.json at the root for the contract a driver runs it by.
//
//	go run ./benchmark                                   # every workload, both passes
//	go run ./benchmark -workload fd-dense-mem -trace 1   # one workload, per-layer pass
//	go run ./benchmark -smoke                            # tiny sizes, seconds
//	go run ./benchmark -runs 5 -out a.json               # a set of runs to compare
//	go run ./benchmark -compare a.json b.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strconv"
)

// defaultSeed is fixed so that two runs of one commit see the same inputs.
const defaultSeed = 20170514

func main() { os.Exit(realMain()) }

func realMain() int {
	var opt options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.StringVar(&opt.workload, "workload", "all", "workload `name`, or all")
	fs.Int64Var(&opt.seed, "seed", defaultSeed, "seed the inputs are generated from")
	fs.Float64Var(&opt.seconds, "seconds", 15, "how long one run measures")
	trace := fs.Int("trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics (one workload; all runs both)")
	fs.BoolVar(&opt.smoke, "smoke", false, "tiny sizes: the whole suite in seconds")
	fs.StringVar(&opt.spans, "spans", "", "write the traced pass's spans to this `file` as JSON")
	out := fs.String("out", "", "write the full record of the run(s) to this `file` as JSON")
	runs := fs.Int("runs", 1, "with -workload all: how many times to run each workload")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of this process to `file` (one workload)")
	compare := fs.Bool("compare", false, "compare two -out files: benchmark -compare a.json b.json")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare a.json b.json")
			return 2
		}
		return compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 || (*trace != 0 && *trace != 1) || opt.seconds <= 0 || *runs < 1 {
		fmt.Fprintln(os.Stderr, "benchmark: bad arguments; see -help")
		return 2
	}
	opt.trace = *trace == 1
	if opt.smoke && opt.seconds > 1 {
		opt.seconds = 1
	}

	if opt.workload == "all" {
		if *cpuprofile != "" || opt.spans != "" {
			fmt.Fprintln(os.Stderr, "benchmark: -cpuprofile and -spans need one -workload")
			return 2
		}
		return runAll(opt, *runs, *out)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	rec, err := runWorkload(context.Background(), opt)
	if err != nil {
		return fatal(err)
	}
	printRecord(rec)
	if *out != "" {
		if err := writeJSON(*out, rec); err != nil {
			return fatal(err)
		}
	}
	// The contract line: last on standard output, exactly these four keys.
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
	if err != nil {
		return fatal(err)
	}
	fmt.Println(string(line))
	if !rec.Correct {
		return 1
	}
	return 0
}

// fatal reports err and returns the exit code for it.
func fatal(err error) int {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 1
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printRecord prints every metric of a run by name with its unit, each
// timing with its sample count, median and the highest percentile the count
// supports, and every failure.
func printRecord(rec *runRecord) {
	pass := "end-to-end (untraced)"
	if rec.Trace == 1 {
		pass = "per-layer (traced)"
	}
	fmt.Printf("== %s  seed %d  %s  GOMAXPROCS=%d nproc=%d %s %s\n", rec.Workload, rec.Seed, pass,
		rec.Env.GOMAXPROCS, rec.Env.NProc, rec.Env.KernelISA, rec.Env.GoVersion)
	specs := endToEndMetrics
	if rec.Trace == 1 {
		specs = perLayerMetrics
	}
	for _, m := range specs {
		fmt.Printf("  %-38s %16.6g %s\n", m.Name, rec.Metrics[m.Name].Value, m.Unit)
	}
	names := make([]string, 0, len(rec.Timings))
	for name := range rec.Timings {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t := rec.Timings[name]
		fmt.Printf("  timing %-31s n=%d median=%.6g p%g=%.6g %s\n", name, t.N, t.Median, t.TailP, t.Tail, t.Unit)
	}
	fmt.Printf("  result sha256 %s   attempted %d  failed %d\n", rec.Hash, rec.Attempted, rec.Failed)
	for _, f := range rec.Failures {
		fmt.Printf("  FAILED: %s\n", f)
	}
}

// suite is what -out holds for a run of every workload and what -compare
// reads: the records of every run, both passes.
type suite struct {
	Seed int64        `json:"seed"`
	Env  envInfo      `json:"env"`
	Runs []*runRecord `json:"runs"`
}

// runAll runs every workload in a process of its own — peak memory is read
// per process — first untraced, then traced, runs times over.
func runAll(opt options, runs int, out string) int {
	self, err := os.Executable()
	if err != nil {
		return fatal(err)
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return fatal(err)
	}
	tmp, err := os.MkdirTemp(".bench_build", "records-")
	if err != nil {
		return fatal(err)
	}
	defer os.RemoveAll(tmp)

	setProcs(benchProcs())
	all := suite{Seed: opt.seed, Env: currentEnv()}
	status := 0
	for _, w := range workloads {
		for i := 0; i < runs; i++ {
			for trace := 0; trace <= 1; trace++ {
				record := filepath.Join(tmp, "record.json")
				args := []string{
					"-workload", w.Name, "-seed", strconv.FormatInt(opt.seed, 10),
					"-seconds", strconv.FormatFloat(opt.seconds, 'g', -1, 64),
					"-trace", strconv.Itoa(trace), "-out", record,
				}
				if opt.smoke {
					args = append(args, "-smoke")
				}
				cmd := exec.Command(self, args...)
				cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
				runErr := cmd.Run()
				var rec runRecord
				data, err := os.ReadFile(record)
				if err == nil {
					err = json.Unmarshal(data, &rec)
				}
				os.Remove(record)
				if err != nil {
					fmt.Fprintf(os.Stderr, "benchmark: %s (trace %d) left no record: %v (%v)\n", w.Name, trace, err, runErr)
					status = 1
					continue
				}
				if runErr != nil || !rec.Correct {
					status = 1
				}
				all.Runs = append(all.Runs, &rec)
			}
		}
	}
	if out != "" {
		if err := writeJSON(out, all); err != nil {
			return fatal(err)
		}
	}
	printSuite(os.Stdout, &all)
	return status
}
