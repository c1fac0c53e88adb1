package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/distributed"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// traceCtx is what a repetition of the traced pass carries: where its spans
// go and the observer attached for it. A nil *traceCtx is the untraced pass;
// every method is a no-op on it, so the two passes run the same code.
type traceCtx struct {
	t       *tracer
	ob      *obs.Observer
	rep     int
	repSpan int

	mu         sync.Mutex
	nodes      map[int]*timedNode // by the role span that owns the node
	sourceTime time.Duration
	sourceRows int64
}

func (tc *traceCtx) observer() *obs.Observer {
	if tc == nil {
		return nil
	}
	return tc.ob
}

// begin opens a role span under the repetition's span.
func (tc *traceCtx) begin(name string) int {
	if tc == nil {
		return 0
	}
	return tc.t.begin(name, tc.repSpan, tc.rep)
}

func (tc *traceCtx) end(id int) {
	if tc != nil {
		tc.t.end(id)
	}
}

// node decorates n for the role whose span is parent.
func (tc *traceCtx) node(n distributed.Node, parent int) distributed.Node {
	if tc == nil {
		return n
	}
	tn := &timedNode{Node: n, t: tc.t, parent: parent, rep: tc.rep}
	tc.mu.Lock()
	tc.nodes[parent] = tn
	tc.mu.Unlock()
	return tn
}

// flushInput moves the time a role's decorated sources spent in Next into
// the trace, as aggregates under the role's span.
func (tc *traceCtx) flushInput(in distributed.Input, parent int) {
	if tc == nil {
		return
	}
	for _, src := range []distributed.RowSource{in.A, in.B} {
		if f, ok := src.(flusher); ok {
			spent, rows := f.flush(tc.t, parent, tc.rep)
			tc.mu.Lock()
			tc.sourceTime += spent
			tc.sourceRows += rows
			tc.mu.Unlock()
		}
	}
}

// repOut is what one repetition hands back once its result is in hand.
type repOut struct {
	rows   int           // input rows the repetition consumed
	wall   time.Duration // batch: the whole run; service: first row to last upload absorbed
	words  float64       // metered words of the run
	result *matrix.Dense // the output: hashed, and verified by check
	res    *distributed.Result

	// latenciesMS are the waits a caller saw: the run itself on a batch
	// workload, every /topk round trip on the service.
	latenciesMS []float64
	// ops and opsFailed count operations inside the repetition beyond the
	// repetition itself (the service's queries).
	ops, opsFailed int

	uplink, downlink float64
	messages, rounds int64
	extra            map[string]float64 // workload-specific layer readings
}

// load is one named workload the benchmark runs. The harness calls generate
// and deploy (together: set-up), then rep in a closed loop, then check on the
// last output after the clock has stopped.
type load interface {
	// deterministic reports whether every repetition must produce the same
	// result bytes and words given the seed.
	deterministic() bool
	// generate makes the inputs from the seed; the programs under test see
	// only these.
	generate(seed int64)
	// deploy brings up what repetitions reuse (listeners, connections). With
	// an observer — the traced pass — it attaches it to every endpoint and
	// wraps the inputs in the timing decorator.
	deploy(ctx context.Context, ob *obs.Observer) error
	undeploy()
	// rep runs one repetition under ctx's deadline.
	rep(ctx context.Context, tc *traceCtx) (*repOut, error)
	// check verifies out against its certificate and returns measured error
	// ÷ certificate; above 1, or an error, fails the run.
	check(out *repOut) (errOverBound float64, err error)
	// layers replays the workload's calls into each layer from outside and
	// records the per-layer readings (traced pass only).
	layers(ctx context.Context, lr *layerRun) error
}

// options are the settings of one run of one workload.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	spans    string // file the traced pass writes its spans to
}

// envInfo records where a reading was taken.
type envInfo struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	KernelISA  string `json:"kernel_isa"`
	GoVersion  string `json:"go_version"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runRecord is the full record of one run; the contract line printed last is
// its first four fields.
type runRecord struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Trace    int               `json:"trace"`
	Hash     string            `json:"result_sha256"`
	Timings  map[string]timing `json:"timings,omitempty"`
	Failures []string          `json:"failures,omitempty"`
	Env      envInfo           `json:"env"`
}

// run is the state of one run: the counts every failure feeds and the
// readings collected so far.
type run struct {
	opt       options
	w         load
	rec       *runRecord
	values    map[string]float64
	hash      string
	firstHash string
	words     []float64
	repsRun   int // repetitions started, failed ones included
}

func (r *run) fail(format string, args ...any) {
	r.rec.Failed++
	r.rec.Failures = append(r.rec.Failures, fmt.Sprintf(format, args...))
}

// repDeadline bounds one repetition: a hang must become one counted failure.
func (r *run) repDeadline() time.Duration {
	if r.opt.smoke {
		return 20 * time.Second
	}
	return 60 * time.Second
}

// setProcs fixes GOMAXPROCS and the compute pool together: the pool is
// sized from GOMAXPROCS at start-up, before this package could set it.
func setProcs(n int) {
	runtime.GOMAXPROCS(n)
	parallel.SetWorkers(n)
}

func benchProcs() int { return min(runtime.NumCPU(), 4) }

func currentEnv() envInfo {
	return envInfo{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		KernelISA:  matrix.KernelISA(),
		GoVersion:  runtime.Version(),
	}
}

// oneRep runs one repetition under its deadline and applies the checks that
// need no reference: a result that is there, and for a deterministic
// workload the same bytes and words as the first repetition. A failed
// repetition is counted and the deployment dialled again, since its streams
// may hold half a frame.
func (r *run) oneRep(ctx context.Context, tc *traceCtx) *repOut {
	r.rec.Attempted++
	r.repsRun++
	rctx, cancel := context.WithTimeout(ctx, r.repDeadline())
	out, err := r.w.rep(rctx, tc)
	cancel()
	if err != nil {
		r.fail("repetition: %v", err)
		r.w.undeploy()
		if derr := r.w.deploy(ctx, tc.observer()); derr != nil {
			r.fail("redeploy: %v", derr)
		}
		return nil
	}
	r.rec.Attempted += out.ops
	r.rec.Failed += out.opsFailed
	if out.opsFailed > 0 {
		r.rec.Failures = append(r.rec.Failures, fmt.Sprintf("%d of %d operations inside the repetition failed", out.opsFailed, out.ops))
	}
	if out.result == nil || out.result.Rows() == 0 {
		// An empty sketch certifies vacuously and puts nothing on the wire.
		r.fail("repetition returned an empty result")
		return nil
	}
	r.hash = hashMatrix(out.result)
	if r.w.deterministic() {
		if r.firstHash == "" {
			r.firstHash = r.hash
		} else if r.hash != r.firstHash {
			r.fail("result bytes differ between repetitions of one seed: %s vs %s", r.hash[:12], r.firstHash[:12])
		}
		if len(r.words) > 0 && out.words != r.words[0] {
			r.fail("words differ between repetitions of one seed: %v vs %v", out.words, r.words[0])
		}
	}
	r.words = append(r.words, out.words)
	return out
}

// hashMatrix is the SHA-256 of a matrix's dimensions and entry bits, so two
// runs of one commit and seed can be compared bit for bit.
func hashMatrix(m *matrix.Dense) string {
	h := sha256.New()
	var b [8]byte
	rows, cols := m.Dims()
	binary.LittleEndian.PutUint64(b[:], uint64(rows))
	h.Write(b[:])
	binary.LittleEndian.PutUint64(b[:], uint64(cols))
	h.Write(b[:])
	buf := make([]byte, 0, 8*cols)
	for i := 0; i < rows; i++ {
		buf = buf[:0]
		for _, v := range m.Row(i) {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// measure runs repetitions in a closed loop with one client — the next
// starts when the last one's result is in hand — until the window is used
// up, and at least minReps times. It stops early rather than start a
// repetition that would overrun the window by more than half its length.
func (r *run) measure(ctx context.Context, tc func(rep int) *traceCtx, window time.Duration, minReps int) (outs []*repOut) {
	start := time.Now()
	var longest time.Duration
	failedInARow := 0
	for rep := 1; ; rep++ {
		elapsed := time.Since(start)
		if rep > minReps && elapsed+longest/2 > window {
			break
		}
		t := tc(rep)
		if t != nil {
			t.repSpan = t.t.begin(spanRep, 0, rep)
		}
		out := r.oneRep(ctx, t)
		if t != nil {
			t.t.end(t.repSpan)
		}
		if out != nil {
			if len(outs) > 0 {
				// Only the last output is checked; holding every result
				// would grow the heap with the repetition count.
				outs[len(outs)-1].result, outs[len(outs)-1].res = nil, nil
			}
			outs = append(outs, out)
			longest = max(longest, time.Since(start)-elapsed)
			failedInARow = 0
		} else if failedInARow++; failedInARow == 3 {
			break // nothing works; the failures are counted
		}
	}
	return outs
}

func untraced(int) *traceCtx { return nil }

// setUp generates and deploys several times, keeps the last deployment, and
// returns each set-up's time. A set-up of milliseconds is dominated by
// scheduling noise, so cheap ones are repeated up to a hundred times within a
// second (or the window, if that is shorter); an expensive one runs three
// times.
func (r *run) setUp(ctx context.Context, window time.Duration) ([]float64, error) {
	var samples []float64
	var spent time.Duration
	for len(samples) < 3 || (len(samples) < 100 && spent < min(time.Second, window)) {
		if len(samples) > 0 {
			r.w.undeploy()
		}
		t0 := time.Now()
		r.w.generate(r.opt.seed)
		if err := r.w.deploy(ctx, nil); err != nil {
			return nil, err
		}
		d := time.Since(t0)
		spent += d
		samples = append(samples, d.Seconds())
	}
	return samples, nil
}

func walls(outs []*repOut) []float64 {
	w := make([]float64, len(outs))
	for i, o := range outs {
		w[i] = o.wall.Seconds()
	}
	return w
}

// runWorkload is one run of one workload: the untraced pass that yields the
// end-to-end metrics, or with opt.trace the pass that yields the per-layer
// ones. The two never mix: no end-to-end number comes from a traced
// repetition.
func runWorkload(ctx context.Context, opt options) (*runRecord, error) {
	w, err := newWorkload(opt.workload, opt.smoke)
	if err != nil {
		return nil, err
	}
	setProcs(benchProcs())
	r := &run{opt: opt, w: w, values: make(map[string]float64)}
	r.rec = &runRecord{
		Workload: opt.workload, Seed: opt.seed, Metrics: make(map[string]metricValue),
		Timings: make(map[string]timing), Env: currentEnv(),
	}
	if opt.trace {
		r.rec.Trace = 1
	}
	window := time.Duration(opt.seconds * float64(time.Second))

	setups, err := r.setUp(ctx, window)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer func() { r.w.undeploy() }()

	// Warm-up: first-use costs (page faults, pools, connection buffers) are
	// paid once per process, not per run of the protocol.
	r.oneRep(ctx, nil)

	var last *repOut
	if !opt.trace {
		outs := r.measure(ctx, untraced, window, 3)
		if len(outs) > 0 {
			last = outs[len(outs)-1]
			r.endToEnd(setups, outs)
		}
	} else {
		last, err = r.tracedPass(ctx, window)
		if err != nil {
			return nil, err
		}
	}

	if last != nil {
		t0 := time.Now()
		ratio, err := r.w.check(last)
		r.values["core.coverr_s"] = time.Since(t0).Seconds()
		switch {
		case err != nil:
			r.fail("check: %v", err)
		case !(ratio <= 1):
			r.fail("certificate broken: measured error is %.4g of its bound", ratio)
		}
		r.values["err_over_bound"] = ratio
		for name, x := range last.extra {
			r.values[name] = x // the workload's own layer readings
		}
	}
	r.values["peak_rss_mb"] = peakRSSMB()
	r.rec.Hash = r.hash

	specs := endToEndMetrics
	if opt.trace {
		specs = perLayerMetrics
	}
	for _, m := range specs {
		r.rec.Metrics[m.Name] = metricValue{Value: r.values[m.Name], Unit: m.Unit}
	}
	r.rec.Correct = r.rec.Failed == 0 && last != nil
	return r.rec, nil
}

// endToEnd fills the end-to-end metrics from the untraced repetitions.
func (r *run) endToEnd(setups []float64, outs []*repOut) {
	var lat []float64
	for _, o := range outs {
		lat = append(lat, o.latenciesMS...)
	}
	r.values["setup_s"] = median(setups)
	r.values["rows_per_s"] = float64(outs[0].rows) / median(walls(outs))
	r.values["words_total"] = median(r.words[len(r.words)-len(outs):])
	r.values["latency_ms_p50"] = percentile(lat, 50)
	r.values["latency_ms_p90"] = percentile(lat, 90)
	r.rec.Timings["setup_s"] = summarise(setups, "s")
	r.rec.Timings["repetition_s"] = summarise(walls(outs), "s")
	r.rec.Timings["latency_ms"] = summarise(lat, "ms")
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB; one
// workload runs per process, so the peak belongs to it.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			var kb float64
			fmt.Sscan(rest, &kb)
			return kb / 1024
		}
	}
	return 0
}
