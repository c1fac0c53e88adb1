package distributed

import (
	"context"
	"fmt"

	"repro/internal/comm"
	"repro/internal/core"
)

// CoordinatorID is the conventional endpoint ID of the coordinator
// (re-exported from the comm package for protocol code and the facade).
const CoordinatorID = comm.CoordinatorID

// Protocol is one distributed sketching protocol, split into its two party
// roles. A Protocol value is a plain config struct (FDMerge, SVS, Adaptive,
// …), so the same value drives an in-process run (Run), a TCP server
// process (Server against a TCPServer node), and a TCP coordinator process
// (Coordinator against a TCPCoordinator node).
//
// Implementations read cluster shape and cross-cutting options from their
// Env field; the Run driver fills it in automatically, direct TCP callers
// set it explicitly (Servers and, on the coordinator, Dim).
type Protocol interface {
	// Name identifies the protocol (stable, flag-friendly).
	Name() string
	// Estimand declares what the protocol estimates — AᵀA of one matrix
	// (EstimandCovariance) or AᵀB of an aligned pair (EstimandProduct).
	// The Run driver validates the per-server inputs against it, so a
	// workload/protocol mismatch fails loudly before any goroutine spawns.
	Estimand() Estimand
	// Server runs the server role over node, streaming the local workload
	// input — one row shard for covariance protocols (unwrap it with
	// in.Covariance), an aligned (A, B) shard pair for product protocols
	// (in.Product). Streaming protocols (FD merge, SVS, adaptive, low-rank
	// exact, coordinated product) read their sources in one or two
	// bounded-memory passes; BWZ materializes its shard (documented
	// O(n_i·d) memory). Wrap an in-memory partition with
	// workload.NewDenseSource — or use the []*matrix.Dense Run entry point,
	// which does it for you.
	Server(ctx context.Context, node Node, in Input) error
	// Coordinator runs the coordinator role over node and returns the
	// protocol's output; communication totals are filled in by the driver.
	Coordinator(ctx context.Context, node Node) (*Result, error)

	// The driver's hooks. They are unexported, so every Protocol is one of
	// this package's built-in structs and a protocol missing a hook does not
	// compile (instead of running with an empty Env, metering one round, or
	// crashing a spawned goroutine on a bad parameter).

	// withEnv returns a copy of the protocol with the driver-derived Env
	// installed.
	withEnv(Env) Protocol
	// env returns the protocol's installed Env.
	env() Env
	// rounds is the protocol's synchronous round count on a star, which the
	// driver adds to the meter.
	rounds() int
	// validate rejects out-of-range parameters, including the Env.Config
	// fields the protocol reads. The driver calls it in the caller's
	// goroutine before any party goroutine is spawned: a panic inside a
	// spawned server would crash the process instead of reaching the
	// caller.
	validate() error
}

// Validate returns the first out-of-range parameter of p — its own fields,
// the Env.Config options it reads, and a tree Env.Topology under a
// star-only protocol — as an error. RunWorkload calls it before any party
// goroutine exists; a caller that drives the roles directly over TCP calls
// it before opening a socket, so a bad parameter is one error line instead
// of a panic in a half-connected process.
func Validate(p Protocol) error {
	env := p.env()
	if err := env.Config.checkQuantStep(p.Name()); err != nil {
		return err
	}
	if _, ok := p.(treeAggregator); !ok && env.Topology != nil && !env.Topology.IsStar() {
		return errStarOnly(p)
	}
	return p.validate()
}

// Env is the runtime environment a protocol executes in: the cluster shape
// plus the cross-cutting Config every protocol shares. The Run driver
// derives it from the partition and its options; over TCP the caller sets
// it on the protocol value directly.
type Env struct {
	// Servers is the number of servers s.
	Servers int
	// Dim is the column dimension d of A (needed by some coordinators).
	Dim int
	// DimB is the column dimension of B for product workloads (0 for
	// covariance protocols, which have no second matrix).
	DimB int
	// Config carries the wire, seeding, straggler and observer options.
	Config Config
	// Topology is the run's aggregation plan; nil means the star (the
	// compatible default for direct TCP callers that build Env by hand).
	Topology *Plan
}

// plan resolves the run's aggregation plan, materializing the degenerate
// star when none was installed.
func (e Env) plan() *Plan {
	if e.Topology != nil {
		return e.Topology
	}
	p, err := Star().Plan(e.Servers)
	if err != nil {
		panic(fmt.Sprintf("distributed: Env with %d servers: %v", e.Servers, err))
	}
	return p
}

// parent returns where node id forwards its summary: its plan parent, or
// the coordinator under the star.
func (e Env) parent(id int) int {
	if e.Topology == nil {
		return comm.CoordinatorID
	}
	return e.Topology.Parent(id)
}

// checkUnit rejects an accuracy or probability parameter outside the open
// interval (0,1), NaN included.
func checkUnit(proto, name string, v float64) error {
	if !(v > 0 && v < 1) {
		return fmt.Errorf("distributed: %s: %s %v out of (0,1)", proto, name, v)
	}
	return nil
}

// checkEpsK is the (ε,k) check most protocols share: ε in (0,1) and k at
// least minK (0 where k = 0 selects the (ε,0) sketch, 1 where k divides).
func checkEpsK(proto string, eps float64, k, minK int) error {
	if err := checkUnit(proto, "eps", eps); err != nil {
		return err
	}
	if k < minK {
		return fmt.Errorf("distributed: %s needs k ≥ %d, got %d", proto, minK, k)
	}
	return nil
}

// SamplingFn selects the SVS sampling function g — the typed replacement
// for the old positional `useLinear bool` argument. It is shared with the
// core package (the alias keeps one enum across every layer).
type SamplingFn = core.SamplingFn

const (
	// SampleQuadratic is the Theorem 6 quadratic sampling function
	// (the default; O(√s·d·√log(d/δ)/α) expected words).
	SampleQuadratic = core.SampleQuadratic
	// SampleLinear is the Theorem 5 linear sampling function.
	SampleLinear = core.SampleLinear
)

// ParseSamplingFn converts a flag string to a SamplingFn.
func ParseSamplingFn(s string) (SamplingFn, error) { return core.ParseSamplingFn(s) }
