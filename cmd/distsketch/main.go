// Command distsketch runs the distributed sketching protocols over real TCP
// sockets: one coordinator process and s server processes (or goroutines in
// separate invocations on different machines).
//
// Coordinator (listens, waits for s servers, prints the result):
//
//	distsketch -role coordinator -addr :9009 -servers 4 -protocol fd -d 64 -eps 0.1 -k 5
//
// Server i (loads its partition of the data and dials in):
//
//	distsketch -role server -addr host:9009 -id 0 -servers 4 -protocol fd \
//	    -input data.dskm -eps 0.1 -k 5
//
// Each server streams its contiguous row block straight from the file
// (.dskm or .csv, picked by extension) without materializing the matrix, so
// the demo needs only one shared file and server memory stays bounded; pass
// -part to stream a pre-split shard file whole.
//
// Protocols: fd (Theorem 2), svs (§3.1), adaptive (Theorem 7), sampling
// ([10] baseline), lowrank (§3.3 Case 1), pca (Theorem 9: SketchPCA over
// the adaptive sketch at -eps/2, so -eps is the PCA target),
// coord-product (coordinated priority-sampling AᵀB estimation).
// -sampling picks the SVS sampling function (quadratic or linear);
// -alpha sets the fd protocol's FD shrink rule α ∈ (0,1] (default 1, the
// classic FD shrink; only the bottom ⌈αℓ⌉ retained directions absorb each
// shrink); -timeout bounds the whole run and the coordinator's per-server
// waits. Out-of-range parameters (-eps, -k, -alpha, …) fail with one error
// line before any socket opens.
//
// coord-product estimates the product AᵀB of a row-aligned matrix pair
// instead of a covariance: each server additionally loads -input-b (same
// row count as -input), the coordinator takes -d-b (B's columns, default
// -d) and -sample-size m, and the result is certified to
// ‖Est−AᵀB‖F ≤ 2√(2/(m−1))·‖A‖F·‖B‖F with probability ≥ 3/4. With -part
// each server must also pass -offset, the global index of its shard's
// first row — the row alignment that makes the shared-seed samples
// coordinate:
//
//	distsketch -role coordinator -addr :9009 -servers 2 -protocol coord-product \
//	    -d 64 -d-b 8 -sample-size 256
//	distsketch -role server -id 0 -servers 2 -addr host:9009 -protocol coord-product \
//	    -input a.0.dskm -input-b b.0.dskm -part -offset 0 -sample-size 256
//
// Tree aggregation (-topology tree -fanout f, protocol fd only) interposes
// aggregator processes between the leaves and the coordinator. Every
// process must be started with the same -servers/-topology/-fanout so they
// derive the same plan; aggregator IDs continue upward from s (print the
// plan's shape with any role by getting it wrong once — errors name the
// valid IDs). A 3-level tree over 4 servers (aggregators 4 and 5):
//
//	distsketch -role coordinator -addr :9009 -servers 4 -topology tree -fanout 2 \
//	    -protocol fd -d 64
//	distsketch -role aggregator -id 4 -listen :9010 -addr host:9009 -servers 4 \
//	    -topology tree -fanout 2 -protocol fd -d 64
//	distsketch -role aggregator -id 5 -listen :9011 -addr host:9009 -servers 4 \
//	    -topology tree -fanout 2 -protocol fd -d 64
//	distsketch -role server -id 0 -addr host:9010 -servers 4 -topology tree \
//	    -fanout 2 -protocol fd -input data.dskm   # leaves 0,1 dial agg 4; 2,3 dial agg 5
//
// Each leaf's -addr is its parent aggregator's -listen address; each
// aggregator's -addr is its own parent (here the coordinator).
//
// Observability (both roles):
//
//	-trace run.jsonl    structured JSONL trace of protocol events
//	-metrics out.json   metrics registry snapshot on exit ("-" = stdout)
//	-debug 127.0.0.1:0  expvar (/debug/vars) + pprof HTTP endpoint
//
// A written trace can be schema-checked offline:
//
//	distsketch -role check-trace -trace run.jsonl
//
// Service mode (-serve) turns both roles into long-lived daemons: servers
// ingest under the monitoring-model tracking protocol (optionally looping
// their input with -loop or generating rows with -gen), checkpoint their
// sketch state atomically (-checkpoint, -checkpoint-every,
// -checkpoint-rows), and restore from the checkpoint on restart; the
// coordinator answers /status, /sketch, /coverr, /topk?k=, and /window on
// the -debug endpoint. SIGINT/SIGTERM stop a daemon gracefully (servers
// write a final checkpoint first). See the README's "service mode"
// section for a full walkthrough:
//
//	distsketch -serve -role coordinator -addr :9009 -servers 2 -d 32 \
//	    -eps 0.2 -debug 127.0.0.1:8080
//	distsketch -serve -role server -addr host:9009 -id 0 -servers 2 \
//	    -input data.dskm -eps 0.2 -loop -checkpoint s0.dskm -checkpoint-every 5s
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/distsketch"
)

type options struct {
	role     string
	addr     string
	listen   string
	servers  int
	id       int
	topology string
	fanout   int
	protocol string
	sampling string
	alpha    float64
	wirePrec string
	input    string
	inputB   string
	part     bool
	offset   int
	d        int
	dB       int
	sample   int
	eps      float64
	k        int
	seed     int64
	timeout  time.Duration
	verify   string
	parallel int
	trace    string
	metrics  string
	debug    string

	// Service mode (-serve).
	serve           bool
	policy          string
	window          int
	windowBuckets   int
	checkpoint      string
	checkpointEvery time.Duration
	checkpointRows  int
	maxRows         int
	loop            bool
	gen             int
	throttle        time.Duration
	drainExit       bool
}

func main() {
	o, _ := parseFlags(flag.CommandLine, os.Args[1:]) // CommandLine exits on a bad flag
	run, err := o.roleFunc()
	if err != nil {
		fmt.Fprintln(os.Stderr, "distsketch:", err)
		os.Exit(1)
	}
	if o.role == roleCheckTrace {
		// Runs before InstallObserver, which would open -trace for writing.
		if err := run(context.Background(), o); err != nil {
			fmt.Fprintln(os.Stderr, "distsketch:", err)
			os.Exit(1)
		}
		return
	}

	if o.parallel > 0 {
		distsketch.SetParallelism(o.parallel)
	}
	// Every runtime layer falls back to the process-wide observer, so
	// installing it is all the -trace/-metrics/-debug plumbing there is.
	finish := func() error { return nil }
	if o.trace != "" || o.metrics != "" || o.debug != "" {
		if finish, err = distsketch.InstallObserver(o.trace, o.metrics); err != nil {
			fmt.Fprintln(os.Stderr, "distsketch:", err)
			os.Exit(1)
		}
	}
	ctx := context.Background()
	if o.serve {
		// Daemons stop gracefully on SIGINT/SIGTERM: servers write a final
		// checkpoint, the coordinator drains its query loop.
		var stop context.CancelFunc
		ctx, stop = signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
		defer stop()
	}
	if o.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.timeout)
		defer cancel()
	}

	err = run(ctx, o)
	if ferr := finish(); err == nil {
		err = ferr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "distsketch:", err)
		os.Exit(1)
	}
}

// parseFlags defines every flag on fs and parses args into options.
func parseFlags(fs *flag.FlagSet, args []string) (options, error) {
	var o options
	fs.StringVar(&o.role, "role", "", "one of "+roleNames())
	fs.StringVar(&o.addr, "addr", "127.0.0.1:9009", "parent address (the coordinator in a star; this node's parent in a tree)")
	fs.StringVar(&o.listen, "listen", "", "listen address for the aggregator role's children")
	fs.IntVar(&o.servers, "servers", 2, "number of servers s")
	fs.IntVar(&o.id, "id", 0, "node id: servers 0..s-1, aggregators s.. (tree topology)")
	fs.StringVar(&o.topology, "topology", "star", "aggregation topology: star or tree")
	fs.IntVar(&o.fanout, "fanout", 2, "tree fan-out (children per interior node; tree topology)")
	fs.StringVar(&o.protocol, "protocol", "fd", "one of "+protocolNames())
	fs.StringVar(&o.sampling, "sampling", "quadratic", "SVS sampling function: quadratic or linear")
	fs.Float64Var(&o.alpha, "alpha", 1, "FD shrink rule α in (0,1] for -protocol fd: the bottom ⌈αℓ⌉ retained directions absorb each shrink (1 = classic FD)")
	fs.StringVar(&o.wirePrec, "wire-precision", "", "matrix payload wire width: float64 (default, exact) or float32 (half the metered words; every role must agree)")
	fs.StringVar(&o.input, "input", "", "matrix file, .dskm or .csv (server role)")
	fs.StringVar(&o.inputB, "input-b", "", "row-aligned second matrix file for -protocol coord-product (server role)")
	fs.BoolVar(&o.part, "part", false, "input file is already this server's partition")
	fs.IntVar(&o.offset, "offset", -1, "global index of this server's first row (-part mode, coord-product; derived from the contiguous partition otherwise)")
	fs.IntVar(&o.d, "d", 0, "column dimension (coordinator role)")
	fs.IntVar(&o.dB, "d-b", 0, "column dimension of B (coordinator role, coord-product; defaults to -d)")
	fs.IntVar(&o.sample, "sample-size", 64, "coordinated-sampling target sample size s (coord-product)")
	fs.Float64Var(&o.eps, "eps", 0.1, "accuracy epsilon")
	fs.IntVar(&o.k, "k", 5, "rank parameter")
	fs.Int64Var(&o.seed, "seed", 1, "random seed")
	fs.DurationVar(&o.timeout, "timeout", 0, "overall run deadline and per-server straggler timeout (0 = none)")
	fs.StringVar(&o.verify, "verify", "", "optional: matrix file to verify the sketch against (coordinator)")
	fs.IntVar(&o.parallel, "parallel", 0, "compute worker pool width for local kernels (0 = GOMAXPROCS)")
	fs.StringVar(&o.trace, "trace", "", "write a JSONL protocol trace to this file (check-trace: file to validate)")
	fs.StringVar(&o.metrics, "metrics", "", "write a metrics registry snapshot (JSON) to this file on exit, - for stdout")
	fs.StringVar(&o.debug, "debug", "", "serve expvar and pprof on this address (e.g. 127.0.0.1:0)")
	fs.BoolVar(&o.serve, "serve", false, "long-lived service mode: daemon servers + HTTP query coordinator")
	fs.StringVar(&o.policy, "policy", "fd-delta", "service tracking policy: full-sketch, fd-delta, or svs-delta")
	fs.IntVar(&o.window, "window", 0, "sliding-window size W in rows (0 = windowing off; service mode)")
	fs.IntVar(&o.windowBuckets, "window-buckets", 0, "sub-sketch buckets per window (service mode; 0 = the window sketch's default)")
	fs.StringVar(&o.checkpoint, "checkpoint", "", "checkpoint file (.dskm) for the server's sketch state (service mode)")
	fs.DurationVar(&o.checkpointEvery, "checkpoint-every", 0, "checkpoint on this timer (service mode; 0 = off)")
	fs.IntVar(&o.checkpointRows, "checkpoint-rows", 0, "checkpoint every N ingested rows (service mode; 0 = off)")
	fs.IntVar(&o.maxRows, "max-rows", 0, "stop ingesting after N rows total (service mode; 0 = unbounded)")
	fs.BoolVar(&o.loop, "loop", false, "loop the input stream when it drains (service mode)")
	fs.IntVar(&o.gen, "gen", 0, "generate an N-row synthetic low-rank stream instead of -input (service mode)")
	fs.DurationVar(&o.throttle, "throttle", 0, "pause between ingested rows (service mode; 0 = full speed)")
	fs.BoolVar(&o.drainExit, "exit-when-drained", false, "exit once the input drains instead of idling (service mode)")
	err := fs.Parse(args)
	return o, err
}

const roleCheckTrace = "check-trace"

// roles is the -role table: main dispatches on it, and the flag's help text
// and the unknown-role error list its names, so the three cannot drift.
var roles = []struct {
	name  string
	run   func(context.Context, options) error // one protocol run
	serve func(context.Context, options) error // the -serve daemon; nil where the role has none
}{
	{"coordinator", runCoordinator, runServeCoordinator},
	{"server", runServer, runServeServer},
	{"aggregator", runAggregator, nil},
	{roleCheckTrace, runCheckTrace, nil},
}

func roleNames() string {
	names := make([]string, len(roles))
	for i, r := range roles {
		names[i] = r.name
	}
	return strings.Join(names, ", ")
}

// roleFunc resolves -role (and -serve) to the function that runs it.
func (o options) roleFunc() (func(context.Context, options) error, error) {
	for _, r := range roles {
		if r.name != o.role {
			continue
		}
		if !o.serve {
			return r.run, nil
		}
		if r.serve == nil {
			return nil, fmt.Errorf("-serve supports -role coordinator or server, not %q", o.role)
		}
		return r.serve, nil
	}
	return nil, fmt.Errorf("missing or unknown -role %q (want one of %s)", o.role, roleNames())
}

// runCheckTrace validates the JSONL trace named by -trace.
func runCheckTrace(_ context.Context, o options) error {
	if o.trace == "" {
		return fmt.Errorf("check-trace needs -trace <file>")
	}
	n, err := distsketch.ValidateTraceFile(o.trace)
	if err != nil {
		return fmt.Errorf("trace %s invalid: %v", o.trace, err)
	}
	fmt.Printf("trace %s OK: %d events\n", o.trace, n)
	return nil
}

// plan materializes the -topology/-fanout flags for -servers servers. Every
// role derives the same plan from the same flags, so the processes agree on
// node IDs, parents, and children without any coordination.
func (o options) plan() (*distsketch.Plan, error) {
	var topo distsketch.Topology
	switch o.topology {
	case "star", "":
	case "tree":
		topo = distsketch.Tree(o.fanout)
	default:
		return nil, fmt.Errorf("unknown -topology %q (want star or tree)", o.topology)
	}
	return topo.Plan(o.servers)
}

// buildProtocol turns the flags into a Protocol value with its Env filled
// in; the same value serves every role. It validates the value, so every
// role fails on a bad parameter before it opens a socket.
func (o options) buildProtocol(plan *distsketch.Plan) (distsketch.Protocol, error) {
	cfg := distsketch.Config{Seed: o.seed, Alpha: o.alpha}
	if o.wirePrec != "" {
		p, err := distsketch.ParseWirePrecision(o.wirePrec)
		if err != nil {
			return nil, err
		}
		cfg.WirePrecision = p
	}
	if o.timeout > 0 {
		cfg.Stragglers.Timeout = o.timeout
	}
	if o.protocol == "pca" && !(o.eps > 0 && o.eps < 1) {
		// -eps is pca's target; its inner sketch runs at ε/2 and would
		// accept any ε below 2.
		return nil, fmt.Errorf("protocol pca: eps %v out of (0,1)", o.eps)
	}
	dB := o.dB
	if dB <= 0 {
		dB = o.d
	}
	env := distsketch.Env{Servers: o.servers, Dim: o.d, DimB: dB, Config: cfg, Topology: plan}
	sampling, err := distsketch.ParseSamplingFn(o.sampling)
	if err != nil {
		return nil, err
	}
	for _, p := range protocols {
		if p.name == o.protocol {
			proto := p.build(o, env, sampling)
			if err := distsketch.Validate(proto); err != nil {
				return nil, err
			}
			return proto, nil
		}
	}
	return nil, fmt.Errorf("unknown protocol %q (want one of %s)", o.protocol, protocolNames())
}

// protocols is the -protocol table: buildProtocol dispatches on it, and the
// flag's help text and the unknown-protocol error list its names, so the
// three cannot drift.
var protocols = []struct {
	name  string
	build func(o options, env distsketch.Env, sampling distsketch.SamplingFn) distsketch.Protocol
}{
	{"fd", func(o options, env distsketch.Env, _ distsketch.SamplingFn) distsketch.Protocol {
		return distsketch.FDMerge{Eps: o.eps, K: o.k, Env: env}
	}},
	{"svs", func(o options, env distsketch.Env, sampling distsketch.SamplingFn) distsketch.Protocol {
		return distsketch.SVS{Alpha: o.eps, Delta: 0.1, Sampling: sampling, Env: env}
	}},
	{"adaptive", func(o options, env distsketch.Env, sampling distsketch.SamplingFn) distsketch.Protocol {
		return distsketch.Adaptive{
			AdaptiveParams: distsketch.AdaptiveParams{Eps: o.eps, K: o.k, Sampling: sampling},
			Env:            env,
		}
	}},
	{"sampling", func(o options, env distsketch.Env, _ distsketch.SamplingFn) distsketch.Protocol {
		return distsketch.RowSampling{Eps: o.eps, Env: env}
	}},
	{"lowrank", func(o options, env distsketch.Env, _ distsketch.SamplingFn) distsketch.Protocol {
		return distsketch.LowRankExact{KBound: o.k, Env: env}
	}},
	{"pca", func(o options, env distsketch.Env, _ distsketch.SamplingFn) distsketch.Protocol {
		// Theorem 9's plain form: the adaptive sketch at half the PCA target.
		return distsketch.SketchPCA{
			Sketch: distsketch.Adaptive{AdaptiveParams: distsketch.AdaptiveParams{Eps: o.eps / 2, K: o.k}},
			K:      o.k,
			Env:    env,
		}
	}},
	{"coord-product", func(o options, env distsketch.Env, _ distsketch.SamplingFn) distsketch.Protocol {
		return distsketch.CoordinatedProduct{SampleSize: o.sample, Env: env}
	}},
}

func protocolNames() string {
	names := make([]string, len(protocols))
	for i, p := range protocols {
		names[i] = p.name
	}
	return strings.Join(names, ", ")
}

func runCoordinator(ctx context.Context, o options) error {
	if o.d <= 0 {
		return fmt.Errorf("coordinator needs -d (column dimension)")
	}
	plan, err := o.plan()
	if err != nil {
		return err
	}
	proto, err := o.buildProtocol(plan)
	if err != nil {
		return err
	}
	coord, err := distsketch.NewTCPRoot(o.addr, plan, nil, distsketch.TCPOptions{DebugAddr: o.debug})
	if err != nil {
		return err
	}
	defer coord.Close()
	fmt.Printf("coordinator listening on %s for %d children of %s (protocol %s)\n",
		coord.Addr(), len(plan.Children(distsketch.CoordinatorID)), plan, proto.Name())
	if err := coord.Accept(ctx); err != nil {
		return err
	}
	// The CLI drives the protocol role directly (not through Run), so it
	// brackets the trace itself.
	ob := distsketch.DefaultObserver()
	ob.RunStart(proto.Name(), o.servers)
	res, err := proto.Coordinator(ctx, coord.Node())
	ob.RunEnd(proto.Name(), coord.Meter().Words(), err)
	if err != nil {
		return err
	}
	sketch := res.Sketch
	if res.PCs != nil {
		fmt.Printf("top-%d principal components (d×k = %d×%d) computed\n", o.k, res.PCs.Rows(), res.PCs.Cols())
	}
	if sketch != nil {
		// %.17g round-trips float64 exactly, so CI can diff a tree run's
		// sketch line against a star run's bit for bit.
		fmt.Printf("sketch: %d×%d rows·cols, ‖B‖F² = %.17g\n", sketch.Rows(), sketch.Cols(), sketch.Frob2())
	}
	if res.Product != nil {
		// Same exact formatting contract: two shard-set runs of the same
		// seeded input must print identical estimate lines.
		fmt.Printf("product estimate: %d×%d, ‖Est‖F² = %.17g, certified ‖Est−AᵀB‖F ≤ %.6g (w.p. ≥ 3/4)\n",
			res.Product.Rows(), res.Product.Cols(), res.Product.Frob2(), res.Certificate)
	}
	if len(res.Missing) > 0 {
		fmt.Printf("proceeded without stragglers: servers %v\n", res.Missing)
	}
	fmt.Printf("coordinator sent %.1f words; received words are counted by the servers\n", coord.Meter().Words())
	if o.verify != "" && sketch != nil {
		a, err := distsketch.LoadMatrix(o.verify)
		if err != nil {
			return fmt.Errorf("verify: %w", err)
		}
		ce, err := distsketch.CovErr(a, sketch)
		if err != nil {
			return fmt.Errorf("verify: %w", err)
		}
		fmt.Printf("verify: coverr = %.6g, ε‖A‖F² = %.6g\n", ce, o.eps*a.Frob2())
	}
	return nil
}

func runServer(ctx context.Context, o options) error {
	if o.input == "" {
		return fmt.Errorf("server needs -input")
	}
	plan, err := o.plan()
	if err != nil {
		return err
	}
	if o.id < 0 || o.id >= o.servers {
		return fmt.Errorf("server -id %d out of range 0..%d", o.id, o.servers-1)
	}
	proto, err := o.buildProtocol(plan)
	if err != nil {
		return err
	}
	// Open the input as a streaming source (.dskm or .csv by extension); the
	// matrix is never materialized here, so the server's memory stays bounded
	// by the protocol's working space even for out-of-core inputs. Without
	// -part, the server streams only its contiguous row shard of the shared
	// file — the same rows Split(…, Contiguous, nil) would assign it.
	src, err := distsketch.OpenSource(o.input)
	if err != nil {
		return err
	}
	defer src.Close()
	var local distsketch.RowSource = src
	n, d := src.Dims()
	lo, hi := 0, n
	if !o.part {
		lo, hi = distsketch.ContiguousRange(n, o.servers, o.id)
		local = distsketch.NewSectionSource(src, lo, hi)
		n = hi - lo
	}
	in := distsketch.CovarianceInput(local)
	if proto.Estimand() == distsketch.EstimandProduct {
		if o.inputB == "" {
			return fmt.Errorf("protocol %s needs -input-b (the row-aligned B matrix)", proto.Name())
		}
		srcB, err := distsketch.OpenSource(o.inputB)
		if err != nil {
			return err
		}
		defer srcB.Close()
		var localB distsketch.RowSource = srcB
		offset := o.offset
		if !o.part {
			// Both files are sharded by the same contiguous partition, so the
			// shard's global offset is the section's lower bound.
			localB = distsketch.NewSectionSource(srcB, lo, hi)
			offset = lo
		} else if offset < 0 {
			return fmt.Errorf("coord-product with -part needs -offset (the global index of this shard's first row)")
		}
		in = distsketch.ProductInput(local, localB, offset)
	}
	if o.debug != "" {
		addr, closeDebug, err := distsketch.ServeDebug(o.debug)
		if err != nil {
			return err
		}
		defer closeDebug()
		fmt.Printf("server %d: debug endpoint on %s\n", o.id, addr)
	}
	// In a tree, -addr is the parent aggregator's listen address; the plan
	// supplies the parent's endpoint ID so metering names the right link.
	srv, err := distsketch.DialTCPUplink(ctx, o.addr, o.id, plan.Parent(o.id), nil, distsketch.TCPOptions{})
	if err != nil {
		return err
	}
	defer srv.Close()
	ob := distsketch.DefaultObserver()
	ob.RunStart(proto.Name(), o.servers)
	err = proto.Server(ctx, srv.Node(), in)
	ob.RunEnd(proto.Name(), srv.Meter().Words(), err)
	if err != nil {
		return err
	}
	fmt.Printf("server %d: streamed %d×%d rows, sent %.1f words\n", o.id, n, d, srv.Meter().Words())
	return nil
}

func runAggregator(ctx context.Context, o options) error {
	if o.listen == "" {
		return fmt.Errorf("aggregator needs -listen (address for its children)")
	}
	if o.d <= 0 {
		return fmt.Errorf("aggregator needs -d (column dimension)")
	}
	plan, err := o.plan()
	if err != nil {
		return err
	}
	if r := plan.Role(o.id); r != distsketch.RoleAggregator {
		return fmt.Errorf("-id %d is a %s in %s, not an aggregator (aggregator ids are %v)",
			o.id, r, plan, plan.Aggregators())
	}
	proto, err := o.buildProtocol(plan)
	if err != nil {
		return err
	}
	agg, err := distsketch.NewTCPAggregator(o.listen, o.id, plan, nil, distsketch.TCPOptions{DebugAddr: o.debug})
	if err != nil {
		return err
	}
	defer agg.Close()
	fmt.Printf("aggregator %d listening on %s for children %v (parent %d at %s)\n",
		o.id, agg.Addr(), plan.Children(o.id), plan.Parent(o.id), o.addr)
	// Reach up before waiting on the subtree: parents are started first, so
	// this ordering brings the whole tree up with dial retries alone.
	if err := agg.DialParent(ctx, o.addr); err != nil {
		return err
	}
	if err := agg.Accept(ctx); err != nil {
		return err
	}
	ob := distsketch.DefaultObserver()
	ob.RunStart(proto.Name(), o.servers)
	err = distsketch.AggregateTree(ctx, proto, agg.Node(), plan)
	ob.RunEnd(proto.Name(), agg.Meter().Words(), err)
	if err != nil {
		return err
	}
	fmt.Printf("aggregator %d: merged %d children, sent %.1f words upward\n",
		o.id, len(plan.Children(o.id)), agg.Meter().Words())
	return nil
}
