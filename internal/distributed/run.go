package distributed

import (
	"context"
	"fmt"
	"time"

	"repro/internal/comm"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/workload"
)

// runOpts collects the cross-cutting options of a Run invocation.
type runOpts struct {
	cfg      Config
	deadline time.Duration
	faults   *FaultPlan
	mailbox  int
	meter    *comm.Meter
	topo     Topology
}

// RunOption configures a Run invocation.
type RunOption func(*runOpts)

// WithDeadline bounds the whole protocol run: when it expires, every
// party's pending Send/Recv unblocks and Run returns the deadline error.
func WithDeadline(d time.Duration) RunOption {
	return func(o *runOpts) { o.deadline = d }
}

// WithSeed seeds each server's private randomness (server i uses seed+i).
func WithSeed(seed int64) RunOption {
	return func(o *runOpts) { o.cfg.Seed = seed }
}

// WithQuantization turns on §3.3 quantization with the given additive step
// (use comm.StepFor).
func WithQuantization(step float64) RunOption {
	return func(o *runOpts) { o.cfg.Quantize, o.cfg.QuantStep = true, step }
}

// WithWirePrecision sets the wire width of matrix payloads (see
// Config.WirePrecision). comm.Float32 halves every sketch's metered words
// at an additive error bounded by comm.Float32RoundTripError; it cannot be
// combined with WithQuantization.
func WithWirePrecision(p comm.Precision) RunOption {
	return func(o *runOpts) { o.cfg.WirePrecision = p }
}

// WithAlpha sets the FD shrink rule's α ∈ (0,1] for fd-merge runs (see
// Config.Alpha; 0 keeps the default α = 1). An α outside (0,1] fails the
// run before any party starts. The choice never changes metered
// communication.
func WithAlpha(alpha float64) RunOption {
	return func(o *runOpts) { o.cfg.Alpha = alpha }
}

// WithStragglers installs the coordinator's straggler policy: a per-server
// receive timeout, and optionally a quorum for the protocols whose
// guarantee permits proceeding without the stragglers.
func WithStragglers(pol StragglerPolicy) RunOption {
	return func(o *runOpts) { o.cfg.Stragglers = pol }
}

// WithTopology selects the run's aggregation topology: Star() (the default,
// every server reports straight to the coordinator) or Tree(fanout), which
// interposes aggregator nodes that each merge their subtree's summaries and
// forward one summary upward. Trees require a protocol whose summaries
// merge at interior nodes (FDMerge); other protocols reject the option with
// a descriptive error. Straggler quorums apply per subtree
// (Plan.SubtreeQuorum), and each aggregation level adds one communication
// round.
func WithTopology(t Topology) RunOption {
	return func(o *runOpts) { o.topo = t }
}

// WithFaults runs the protocol over a FaultNetwork injecting the plan —
// the in-process way to rehearse drops, delays, duplicates, reorderings,
// and partitions. Combine with WithDeadline (or WithStragglers) so a lost
// message surfaces as a timely error rather than a hang.
func WithFaults(plan FaultPlan) RunOption {
	return func(o *runOpts) { o.faults = &plan }
}

// WithMailboxCapacity sets the per-server mailbox capacity of the run's
// MemNetwork (the coordinator's mailbox is capacity×s). See Mailbox for the
// backpressure semantics.
func WithMailboxCapacity(capacity int) RunOption {
	return func(o *runOpts) { o.mailbox = capacity }
}

// WithMeter records the run's communication on the given meter (sharing one
// meter across runs accumulates their totals).
func WithMeter(meter *comm.Meter) RunOption {
	return func(o *runOpts) { o.meter = meter }
}

// WithObserver records the run's protocol events — messages, rounds,
// broadcasts, stragglers, faults, FD shrinks, SVS sampling — on the given
// observer (see the obs package). Without this option the run falls back to
// the Config's Obs field, then to the process-wide obs.Default(). Word
// counts and protocol transcripts are identical with and without an
// observer; the observer's message totals are taken at the metering point,
// so they always equal the run's Result totals exactly.
func WithObserver(ob *obs.Observer) RunOption {
	return func(o *runOpts) { o.cfg.Obs = ob }
}

// WithParallelism sets the process-wide compute worker pool to n before the
// run (n <= 0 leaves the pool at its current width, GOMAXPROCS by default).
// The pool accelerates local kernels only — FD shrinks, SVDs, matrix
// products — and never changes metered communication: word counts are
// identical at every width. The setting is process-global and persists
// after the run.
func WithParallelism(n int) RunOption {
	return func(o *runOpts) { o.cfg.Parallelism = n }
}

// Run executes proto in-process over len(parts) simulated servers (server i
// holding parts[i]) plus a coordinator, and returns the coordinator's
// result with exact communication accounting. It is the thin dense adapter
// over RunSources — each partition is wrapped in a workload.DenseSource —
// kept so existing callers and examples work unchanged.
func Run(ctx context.Context, proto Protocol, parts []*matrix.Dense, opts ...RunOption) (*Result, error) {
	return RunSources(ctx, proto, workload.DenseSources(parts), opts...)
}

// RunSources executes proto in-process over len(sources) simulated servers
// (server i streaming sources[i]) plus a coordinator. It is the
// single-matrix adapter over RunWorkload — each source becomes one
// covariance Input — kept as the entry point for every covariance protocol;
// handing it file-backed sources runs the whole protocol out of core.
func RunSources(ctx context.Context, proto Protocol, sources []RowSource, opts ...RunOption) (*Result, error) {
	return RunWorkload(ctx, proto, CovarianceInputs(sources), opts...)
}

// RunWorkload executes proto in-process over len(inputs) simulated servers
// (server i consuming inputs[i]) plus a coordinator, and returns the
// coordinator's result with exact communication accounting. It is the
// single driver every Run entry point delegates to, generalized over the
// protocol's estimand: covariance protocols take one-source inputs, product
// protocols take aligned (A, B) shard pairs, and the inputs are validated
// against the protocol's declared Estimand before any goroutine spawns.
//
// RunWorkload derives the protocol's Env from the inputs and the options,
// spawns one goroutine per server, runs the coordinator on the calling
// goroutine, and guarantees that any single party failure — or cancellation
// of ctx, or an expired WithDeadline — unblocks every other party promptly.
func RunWorkload(ctx context.Context, proto Protocol, inputs []Input, opts ...RunOption) (*Result, error) {
	if len(inputs) == 0 {
		return nil, fmt.Errorf("distributed: Run(%s) with no inputs", proto.Name())
	}
	var o runOpts
	for _, opt := range opts {
		opt(&o)
	}
	if o.cfg.Quantize && o.cfg.WirePrecision == comm.Float32 {
		return nil, fmt.Errorf("distributed: Run(%s): quantization and float32 wire precision are mutually exclusive (the quantizer's step accounting already covers the payload)", proto.Name())
	}
	s := len(inputs)
	d, dB, err := checkInputs(proto, inputs)
	if err != nil {
		return nil, err
	}
	plan, err := o.topo.Plan(s)
	if err != nil {
		return nil, err
	}
	ob := o.cfg.observer()
	o.cfg.Obs = ob // resolve the fallback once so protocol code reads cfg.Obs directly
	proto = proto.withEnv(Env{Servers: s, Dim: d, DimB: dB, Config: o.cfg, Topology: plan})
	if err := Validate(proto); err != nil {
		return nil, err
	}
	if o.cfg.Parallelism > 0 {
		parallel.SetWorkers(o.cfg.Parallelism)
	}
	if o.deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.deadline)
		defer cancel()
	}
	var memOpts []MemOption
	if o.mailbox > 0 {
		memOpts = append(memOpts, Mailbox(o.mailbox))
	}
	if aggs := plan.Aggregators(); len(aggs) > 0 {
		fanin := make(map[int]int, len(aggs))
		for _, id := range aggs {
			fanin[id] = len(plan.Children(id))
		}
		memOpts = append(memOpts, ExtraEndpoints(fanin))
	}
	mem := NewMemNetwork(s, o.meter, memOpts...)
	defer mem.Close()
	if ob != nil {
		// Mirror the meter's accounting into the observer for this run (and
		// clear the hook on exit so a meter shared via WithMeter does not
		// keep feeding a stale observer in later runs).
		mem.Meter().SetRecorder(ob)
		defer mem.Meter().SetRecorder(nil)
	}
	var net Network = mem
	if o.faults != nil && !o.faults.zero() {
		fn := NewFaultNetwork(mem, *o.faults)
		fn.SetObserver(ob)
		net = fn
	}
	serverFns := make([]func() error, s, s+len(plan.Aggregators()))
	for i := range inputs {
		i := i
		serverFns[i] = func() error {
			return proto.Server(ctx, net.Node(i), inputs[i])
		}
	}
	if !plan.IsStar() {
		// The type assertion runs after withEnv: withEnv returns a fresh
		// protocol value and the aggregator must read the installed Env.
		ta, ok := proto.(treeAggregator)
		if !ok {
			return nil, fmt.Errorf("distributed: protocol %s does not support tree aggregation (it is star-only); drop WithTopology or use fd-merge", proto.Name())
		}
		for _, id := range plan.Aggregators() {
			id := id
			serverFns = append(serverFns, func() error {
				return ta.Aggregate(ctx, net.Node(id), plan)
			})
		}
	}
	res := &Result{}
	ob.RunStart(proto.Name(), s)
	err = runParties(ctx, net, serverFns, func() error {
		// Each aggregation level below the root is one more lockstep wave.
		nRounds := proto.rounds() + plan.Depth() - 1
		for r := 0; r < nRounds; r++ {
			net.Meter().AddRound()
		}
		out, err := proto.Coordinator(ctx, net.Coordinator())
		if err != nil {
			return err
		}
		*res = *out
		res.Estimand = proto.Estimand()
		return nil
	})
	if err != nil {
		ob.RunEnd(proto.Name(), net.Meter().Words(), err)
		return nil, fmt.Errorf("%s: %w", proto.Name(), err)
	}
	out := finish(res, net.Meter())
	ob.RunEnd(proto.Name(), out.Words, nil)
	return out, nil
}
