// Package service turns the one-shot distributed sketching runtime into a
// long-lived daemon: servers ingest from their RowSource indefinitely under
// the monitoring-model tracking protocol (internal/monitoring), the
// coordinator answers queries over HTTP on the -debug endpoint, and sketch
// state checkpoints atomically to disk so a killed server restores and
// resumes its shard without replaying the whole stream.
//
// The wire protocol is six comm.Message kinds (Kind*) over the existing
// TCP star transport; comm.Schema declares their payloads.
//
// Crash recovery is rebase-based, so it is exact under any message timing.
// A restored server bumps its incarnation epoch and, before resuming
// ingestion, ships its full cumulative sketch as an svc-replace block: the
// coordinator keeps per-server state (see monitoring.Coordinator), so the
// block atomically supersedes every pre-crash delta from that server —
// whether a given in-flight upload landed before the kill no longer
// matters. The epoch rides in the message's Ints so stragglers from a dead
// incarnation, delivered after the rebase, are recognised and dropped
// (absorbing one would double-count rows the rebase already covers). The
// epoch is control overhead, not model cost: the coordinator charges the
// paper's rows·d+2 words per absorbed upload and nothing for a dropped
// straggler.
package service

import (
	"fmt"
	"time"

	"repro/internal/monitoring"
	"repro/internal/obs"
)

// Wire kinds of the service protocol.
const (
	KindAnnounce  = "svc-announce"  // server→coord: a first mass report (1 word)
	KindDelta     = "svc-delta"     // server→coord: an upload block
	KindReplace   = "svc-replace"   // server→coord: a block superseding the prior ones
	KindThreshold = "svc-threshold" // coord→server: the new threshold (1 word)
	KindWinQuery  = "win-query"     // coord→server: a window query's ID
	KindWinSketch = "win-sketch"    // server→coord: the window sketch and its coverage
)

// Config parameterizes a service deployment (one coordinator daemon plus
// cfg.Monitoring.S server daemons).
type Config struct {
	// Monitoring is the tracking protocol's configuration: ε, s, d, the
	// upload policy, and the observability sink.
	Monitoring monitoring.Config

	// Window, when positive, maintains a sliding-window FD sketch of each
	// server's last Window rows (sequence-based, bucketed sub-sketches
	// merged at query time; see fd.WindowSketch). Queried via the
	// coordinator's /window endpoint, which pulls a snapshot round from
	// the servers. Zero disables windowing.
	Window int
	// WindowBuckets is the number of sub-sketch buckets (0 = fd.NewWindow's
	// default).
	// More buckets mean finer expiry granularity at more merge work.
	WindowBuckets int

	// CheckpointPath, when non-empty, is where a server persists its state
	// (the .dskm matrix plus a JSON sidecar; see workload.SaveCheckpoint).
	// Each server needs its own path.
	CheckpointPath string
	// CheckpointEvery checkpoints on a wall-clock timer (0 = no timer).
	CheckpointEvery time.Duration
	// CheckpointEveryRows checkpoints every N ingested rows (0 = never) —
	// the deterministic trigger tests and row-paced deployments use.
	CheckpointEveryRows int
	// CheckpointOnExit writes a final checkpoint when Run exits gracefully
	// (context cancelled or stream drained with ExitWhenDrained). Leaving
	// it false emulates a hard kill: only timer/row checkpoints survive.
	CheckpointOnExit bool

	// Loop rewinds the source at end of data and keeps ingesting — how a
	// finite file or generator stands in for an unbounded stream.
	Loop bool
	// MaxRows stops ingestion after this many rows (0 = unbounded). The
	// daemon stays alive to answer thresholds and window queries.
	MaxRows int
	// ExitWhenDrained makes Server.Run return once ingestion stops instead
	// of idling — the batch/test mode.
	ExitWhenDrained bool
	// Throttle pauses between rows, pacing a finite file as a live stream.
	Throttle time.Duration

	// QueryTimeout bounds coordinator query handling, including the window
	// pull round (default 5s).
	QueryTimeout time.Duration
}

func (c Config) observer() *obs.Observer {
	if c.Monitoring.Obs != nil {
		return c.Monitoring.Obs
	}
	return obs.Default()
}

func (c Config) queryTimeout() time.Duration {
	if c.QueryTimeout > 0 {
		return c.QueryTimeout
	}
	return 5 * time.Second
}

func (c Config) validate() error {
	if err := c.Monitoring.Validate(); err != nil {
		return err
	}
	if c.Window < 0 || c.WindowBuckets < 0 || c.MaxRows < 0 {
		return fmt.Errorf("service: negative window/buckets/max-rows")
	}
	if c.CheckpointEveryRows < 0 {
		return fmt.Errorf("service: negative checkpoint row interval")
	}
	if (c.CheckpointEvery > 0 || c.CheckpointEveryRows > 0 || c.CheckpointOnExit) && c.CheckpointPath == "" {
		return fmt.Errorf("service: checkpointing enabled without a checkpoint path")
	}
	return nil
}
