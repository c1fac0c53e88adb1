package distsketch

import (
	"os"

	"repro/internal/distributed"
	"repro/internal/obs"
)

// Observability surface: a metrics registry (counters, gauges, histograms
// with JSON export and an expvar mount), a structured JSONL trace of
// protocol events, and the Observer handle that threads both through every
// runtime layer.
//
// An Observer reaches a run three ways, in priority order: per-run via the
// WithObserver run option (or Config.Obs / TCPOptions.Obs), or process-wide
// via SetDefaultObserver. A nil Observer is the no-op observer — with none
// installed the instrumented hot paths pay a nil check and nothing else.
//
// The observer's communication totals are recorded by the word meter's own
// hook, so comm.bits_total always equals the metered Result totals exactly.
type (
	// Observer is the nil-safe handle every instrumentation point calls.
	Observer = obs.Observer
	// Registry is a named collection of metrics.
	Registry = obs.Registry
	// RegistrySnapshot is a point-in-time copy of every metric.
	RegistrySnapshot = obs.Snapshot
	// Tracer appends structured protocol events to a JSONL stream.
	Tracer = obs.Tracer
	// TraceEvent is one JSONL trace record.
	TraceEvent = obs.Event
)

var (
	// NewObserver builds an observer over a registry and optional tracer.
	NewObserver = obs.NewObserver
	// NewRegistry returns an empty metrics registry.
	NewRegistry = obs.NewRegistry
	// NewTracer returns a tracer writing JSONL to an io.Writer.
	NewTracer = obs.NewTracer
	// NewTracerFile returns a tracer writing JSONL to the named file.
	NewTracerFile = obs.NewTracerFile
	// SetDefaultObserver installs the process-wide fallback observer.
	SetDefaultObserver = obs.SetDefault
	// DefaultObserver returns the installed fallback observer (nil = none).
	DefaultObserver = obs.Default
	// ValidateTrace checks a JSONL stream against the trace schema.
	ValidateTrace = obs.ValidateTrace
	// ValidateTraceFile checks the named JSONL file against the schema.
	ValidateTraceFile = obs.ValidateTraceFile
	// ServeDebug serves /debug/vars and /debug/pprof on the given address.
	ServeDebug = obs.ServeDebug
	// WithObserver attaches an observer to one Run call.
	WithObserver = distributed.WithObserver
)

// InstallObserver installs a process-wide observer over a fresh metrics
// registry, published under the expvar name "distsketch" so a debug
// endpoint shows it. A non-empty trace names the JSONL trace file. The
// returned finish closes the trace and, for a non-empty metrics, writes the
// registry snapshot as JSON to that file ("-" for stdout).
func InstallObserver(trace, metrics string) (finish func() error, err error) {
	reg := obs.NewRegistry()
	reg.PublishExpvar("distsketch")
	var tr *obs.Tracer
	if trace != "" {
		if tr, err = obs.NewTracerFile(trace); err != nil {
			return nil, err
		}
	}
	obs.SetDefault(obs.NewObserver(reg, tr))
	return func() error {
		var first error
		if tr != nil {
			first = tr.Close()
		}
		if metrics == "" {
			return first
		}
		out := os.Stdout
		if metrics != "-" {
			f, err := os.Create(metrics)
			if err != nil {
				if first == nil {
					first = err
				}
				return first
			}
			defer f.Close()
			out = f
		}
		if err := reg.WriteJSON(out); err != nil && first == nil {
			first = err
		}
		return first
	}, nil
}
