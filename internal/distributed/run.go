package distributed

import (
	"context"
	"fmt"

	"repro/internal/comm"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/workload"
)

// runOpts collects the cross-cutting options of a Run invocation.
type runOpts struct {
	cfg    Config
	faults *FaultPlan
	meter  *comm.Meter
	topo   Topology
	err    error // an option's own argument check; fails the run in the caller
}

// RunOption configures a Run invocation.
type RunOption func(*runOpts)

// WithSeed seeds each server's private randomness (server i uses seed+i).
func WithSeed(seed int64) RunOption {
	return func(o *runOpts) { o.cfg.Seed = seed }
}

// WithQuantization turns on §3.3 quantization with the given additive step
// (use comm.StepFor). A step that is not positive and finite fails the run
// before any party starts.
func WithQuantization(step float64) RunOption {
	return func(o *runOpts) {
		if !(step > 0) {
			o.err = fmt.Errorf("distributed: WithQuantization(%v): the step must be positive and finite", step)
		}
		o.cfg.QuantStep = step
	}
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
// merge at interior nodes (FDMerge); other protocols fail Validate with a
// descriptive error. Straggler quorums apply per subtree
// (Plan.SubtreeQuorum), and each aggregation level adds one communication
// round.
func WithTopology(t Topology) RunOption {
	return func(o *runOpts) { o.topo = t }
}

// WithFaults runs the protocol over a FaultNetwork injecting the plan —
// the in-process way to rehearse drops, delays, duplicates, reorderings,
// and partitions. Give the run's ctx a deadline (or use WithStragglers) so
// a lost message surfaces as a timely error rather than a hang.
func WithFaults(plan FaultPlan) RunOption {
	return func(o *runOpts) { o.faults = &plan }
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

// Run executes proto in-process over len(parts) simulated servers (server i
// holding parts[i]) plus a coordinator, and returns the coordinator's
// result with exact communication accounting. It is the dense adapter over
// RunWorkload: each partition becomes one covariance Input over a
// workload.DenseSource. Streaming or file-backed sources go to RunWorkload
// as CovarianceInputs(sources), which runs the whole protocol out of core.
func Run(ctx context.Context, proto Protocol, parts []*matrix.Dense, opts ...RunOption) (*Result, error) {
	return RunWorkload(ctx, proto, CovarianceInputs(workload.DenseSources(parts)), opts...)
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
// or expiry of ctx — unblocks every other party promptly.
func RunWorkload(ctx context.Context, proto Protocol, inputs []Input, opts ...RunOption) (*Result, error) {
	if len(inputs) == 0 {
		return nil, fmt.Errorf("distributed: Run(%s) with no inputs", proto.Name())
	}
	var o runOpts
	for _, opt := range opts {
		opt(&o)
	}
	if o.err != nil {
		return nil, o.err
	}
	if o.cfg.QuantStep > 0 && o.cfg.WirePrecision == comm.Float32 {
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
	var memOpts []MemOption
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
		// Validate admitted the tree plan, so proto aggregates. The
		// assertion runs after withEnv: withEnv returns a fresh protocol
		// value and the aggregator must read the installed Env.
		ta := proto.(treeAggregator)
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
