package distsketch

import (
	"repro/internal/distributed"
)

// Runtime surface: the transport abstractions a protocol executes over, the
// failure-injection machinery, and the real-TCP transport. Everything here
// is context-aware — cancelling the context passed to Send/Recv (or to a
// protocol role) unblocks the operation promptly on every transport.

// Node is one protocol endpoint (server or coordinator).
type Node = distributed.Node

// Network is a star network of s server nodes plus a coordinator.
type Network = distributed.Network

// MemNetwork is the in-process channel-backed Network used by Run.
type MemNetwork = distributed.MemNetwork

// MemOption configures a MemNetwork; Mailbox sets the per-server mailbox
// capacity (senders to a full mailbox block — backpressure — until the
// receiver drains it, the context is cancelled, or the network closes).
type MemOption = distributed.MemOption

var (
	NewMemNetwork = distributed.NewMemNetwork
	Mailbox       = distributed.Mailbox
)

// ErrNetworkClosed is returned by operations on a closed network;
// ErrStraggler by a coordinator whose per-server receive timeout expired.
var (
	ErrNetworkClosed = distributed.ErrNetworkClosed
	ErrStraggler     = distributed.ErrStraggler
)

// StragglerPolicy bounds how long the coordinator waits for each server
// (Timeout) and, for protocols whose guarantee permits it, lets it proceed
// once Quorum servers responded, reporting absentees in Result.Missing.
type StragglerPolicy = distributed.StragglerPolicy

// FaultPlan describes deterministic fault injection (drop/delay/duplicate/
// reorder probabilities and a partition set, derived from Seed); wrap any
// Network in a FaultNetwork — or pass the plan to Run via WithFaults — to
// rehearse failures.
type (
	FaultPlan    = distributed.FaultPlan
	FaultNetwork = distributed.FaultNetwork
)

// NewFaultNetwork wraps inner so every endpoint misbehaves per plan.
var NewFaultNetwork = distributed.NewFaultNetwork

// TCP transport: a TCPCoordinator listens for s servers; each server
// process dials in with DialTCPServerContext, which retries with
// exponential backoff; every socket read and write carries the context's
// deadline. TCPOptions attaches an observer and a debug endpoint.
// Tree deployments use NewTCPRoot (the root's hub under a Plan),
// TCPAggregator (interior node: child-facing hub plus parent uplink), and
// DialTCPUplink (leaf dialing its aggregator).
type (
	TCPCoordinator = distributed.TCPCoordinator
	TCPServer      = distributed.TCPServer
	TCPAggregator  = distributed.TCPAggregator
	TCPOptions     = distributed.TCPOptions
)

var (
	NewTCPCoordinatorOpts = distributed.NewTCPCoordinatorOpts
	NewTCPRoot            = distributed.NewTCPRoot
	NewTCPAggregator      = distributed.NewTCPAggregator
	DialTCPServerContext  = distributed.DialTCPServerContext
	DialTCPUplink         = distributed.DialTCPUplink
)

// AggregateTree runs one interior tree node's role: gather the subtree's
// summaries, merge, forward one summary to the parent. The protocol must be
// tree-capable (FDMerge); cmd/distsketch's aggregator role drives it over a
// TCPAggregator node.
var AggregateTree = distributed.AggregateTree
