// Package monitoring implements continuous covariance-sketch tracking in
// the distributed monitoring model of Ghashami–Phillips–Li (VLDB'14),
// reference [17] of the paper: each server receives rows over time and the
// coordinator must know a valid covariance sketch of the union of all
// streams at every moment, not just at query time.
//
// The paper's §1.5 poses as an open question whether its SVS technique can
// improve the communication of such monitoring protocols. This package
// provides the machinery to study that question empirically:
//
//   - PolicyFullSketch — the classic scheme: a server re-ships its entire
//     local FD sketch whenever its unreported Frobenius mass exceeds its
//     share of the global error budget.
//   - PolicyDelta — ships only an FD sketch of the rows received since the
//     last upload (a mergeable delta, same guarantee, cheaper per upload
//     for incremental growth).
//   - PolicySVSDelta — the experimental answer to the open question: the
//     delta is further compressed with SVS before shipping, so uploads cost
//     the sampled rows only. The per-upload guarantee becomes probabilistic;
//     the harness measures the realized tracking error directly.
//
// Communication is counted in words exactly as in the one-shot protocols.
package monitoring

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/core"
	"repro/internal/fd"
	"repro/internal/matrix"
	"repro/internal/obs"
)

// Policy selects the upload compression scheme.
type Policy int

const (
	// PolicyFullSketch re-sends the full local sketch on every trigger.
	PolicyFullSketch Policy = iota
	// PolicyDelta sends an FD sketch of only the unreported rows.
	PolicyDelta
	// PolicySVSDelta sends an SVS sample of the unreported rows' sketch.
	PolicySVSDelta
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case PolicyFullSketch:
		return "full-sketch"
	case PolicyDelta:
		return "fd-delta"
	case PolicySVSDelta:
		return "svs-delta"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// ParsePolicy converts a flag string to a Policy: "full-sketch" (or
// "full"), "fd-delta" (or "delta"), "svs-delta" (or "svs"); "" defaults to
// fd-delta.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "", "fd-delta", "delta":
		return PolicyDelta, nil
	case "full-sketch", "full":
		return PolicyFullSketch, nil
	case "svs-delta", "svs":
		return PolicySVSDelta, nil
	default:
		return 0, fmt.Errorf("monitoring: unknown policy %q (want full-sketch, fd-delta, or svs-delta)", s)
	}
}

// Config parameterizes a tracking run.
type Config struct {
	// Eps is the continuous guarantee target: at all times the
	// coordinator's sketch must satisfy coverr ≤ ε·‖A(t)‖F².
	Eps float64
	// S is the number of servers, D the row dimension.
	S, D int
	// Policy selects the upload scheme.
	Policy Policy
	// Seed drives the randomized policy.
	Seed int64
	// Obs receives upload/announce/broadcast events and counters. Nil falls
	// back to the process default observer (obs.Default()); observation
	// never changes the protocol's communication.
	Obs *obs.Observer
}

func (c Config) observer() *obs.Observer {
	if c.Obs != nil {
		return c.Obs
	}
	return obs.Default()
}

// Validate returns an error when c cannot run: ε outside (0,1) (NaN
// included) or a non-positive server count or dimension.
func (c Config) Validate() error {
	if !(c.Eps > 0 && c.Eps < 1) {
		return fmt.Errorf("monitoring: eps %v out of (0,1)", c.Eps)
	}
	if c.S <= 0 || c.D <= 0 {
		return fmt.Errorf("monitoring: invalid s=%d d=%d", c.S, c.D)
	}
	return nil
}

// validate panics with Validate's error: the constructors that call it
// return no error, so a bad Config is a programming error there.
func (c Config) validate() {
	if err := c.Validate(); err != nil {
		panic(err.Error())
	}
}

// Server is the per-site state of the tracking protocol.
type Server struct {
	cfg Config
	id  int

	// pending sketches the rows received since the last upload.
	pending *fd.Sketch
	// full sketches everything ever received (used by PolicyFullSketch so a
	// re-send supersedes all prior uploads).
	full *fd.Sketch

	localMass      float64 // ‖A_i(t)‖F²
	unreportedMass float64
	threshold      float64 // current per-server unreported-mass budget
	announced      bool    // one-time mass announcement sent (bootstrap)
	rng            *rand.Rand
}

// Upload is one server→coordinator message in the tracking protocol.
type Upload struct {
	From int
	// Rows is the shipped sketch block.
	Rows *matrix.Dense
	// Replace indicates the block supersedes all previous blocks from this
	// server (PolicyFullSketch); otherwise it is additive (delta policies).
	Replace bool
	// Announce marks the one-word bootstrap message a server sends the first
	// time it holds unreported mass while no threshold is installed yet. It
	// carries Mass only (Rows is nil); the rows stay pending locally until a
	// real threshold-triggered upload.
	Announce bool
	// Mass is the server's exact local mass at upload time (one word).
	Mass float64
	// Shrinkage is the accumulated FD shrink charge of the shipped block
	// (one word): the full sketch's Σδ under PolicyFullSketch and in a
	// restored server's replace block, the delta sketch's Σδ under the
	// delta policies, each including the shrink that produced the rows. Shipping it lets the
	// coordinator maintain a live covariance-error certificate
	// (Coordinator.ErrorBound) instead of only an empirical audit.
	Shrinkage float64
	// Words is the message cost.
	Words float64
}

func sketchSize(eps float64) int { return fd.SketchSize(eps/4, 0) }

// SketchRows returns the FD sketch size the tracking protocol uses at
// accuracy eps — exported so the service layer can build compatible
// sketches (e.g. to merge window snapshots shipped by the servers).
func SketchRows(eps float64) int { return sketchSize(eps) }

func newServer(cfg Config, id int) *Server {
	return &Server{
		cfg:     cfg,
		id:      id,
		pending: fd.New(cfg.D, sketchSize(cfg.Eps), fd.Options{}),
		full:    fd.New(cfg.D, sketchSize(cfg.Eps), fd.Options{}),
		rng:     rand.New(rand.NewSource(cfg.Seed + int64(id))),
	}
}

// NewServer creates the per-site state for tracking server id — the
// entry point for long-lived deployments that drive Offer directly
// (Simulate constructs its servers internally).
func NewServer(cfg Config, id int) *Server {
	cfg.validate()
	return newServer(cfg, id)
}

// Offer feeds one row; it returns a non-nil Upload when the server's
// unreported mass crosses its budget and a message must be sent.
//
// Before the coordinator has broadcast any threshold the budget is zero; a
// naive "mass > threshold" trigger would then ship a full sketch block on
// every single row until the first broadcast arrives (an upload storm at
// stream start, s blocks for s first rows). Instead the server sends a
// one-time one-word Announce carrying its mass; the rows stay pending until
// a real threshold is installed and crossed.
func (s *Server) Offer(row []float64) (*Upload, error) {
	if err := s.pending.Update(row); err != nil {
		return nil, err
	}
	if err := s.full.Update(row); err != nil {
		return nil, err
	}
	m := matrix.Norm2(row)
	s.localMass += m
	s.unreportedMass += m
	if s.unreportedMass == 0 {
		return nil, nil
	}
	if s.threshold == 0 {
		if s.announced {
			return nil, nil
		}
		s.announced = true
		return &Upload{From: s.id, Announce: true, Mass: s.localMass, Words: 1}, nil
	}
	if s.unreportedMass <= s.threshold {
		return nil, nil
	}
	return s.flush()
}

// flush builds the upload message according to the policy and resets the
// unreported state.
func (s *Server) flush() (*Upload, error) {
	up := &Upload{From: s.id, Mass: s.localMass}
	switch s.cfg.Policy {
	case PolicyFullSketch:
		b, err := s.full.Matrix()
		if err != nil {
			return nil, err
		}
		up.Rows, up.Replace = b, true
		up.Shrinkage = s.full.TotalShrinkage()
	case PolicyDelta:
		b, err := s.pending.Matrix()
		if err != nil {
			return nil, err
		}
		up.Rows = b
		up.Shrinkage = s.pending.TotalShrinkage()
	case PolicySVSDelta:
		b, err := s.pending.Matrix()
		if err != nil {
			return nil, err
		}
		// Compress the delta with the quadratic SVS function calibrated to
		// the delta's own mass at the tracking accuracy. s is taken as 1:
		// the delta is a single-site matrix.
		g := core.NewQuadraticSampling(1, s.cfg.D, s.cfg.Eps/4, 0.1, b.Frob2())
		w, err := core.SVS(b, g, s.rng)
		if err != nil {
			return nil, err
		}
		up.Rows = w
		up.Shrinkage = s.pending.TotalShrinkage()
	default:
		return nil, fmt.Errorf("monitoring: unknown policy %v", s.cfg.Policy)
	}
	up.Words = float64(up.Rows.Rows()*s.cfg.D) + 2 // + mass and shrinkage words
	s.pending = fd.New(s.cfg.D, sketchSize(s.cfg.Eps), fd.Options{})
	s.unreportedMass = 0
	return up, nil
}

// FlushPending ships the unreported state regardless of threshold — the
// final report a draining or stopping server sends so the coordinator
// converges to the exact union even when the remaining mass never crosses
// the budget (or no threshold was ever installed, e.g. a stream that
// drains before the bootstrap broadcast arrives). Returns nil when nothing
// is unreported.
func (s *Server) FlushPending() (*Upload, error) {
	if s.unreportedMass == 0 {
		return nil, nil
	}
	return s.flush()
}

// ResumeUpload builds the replace-everything block a restored server sends
// before resuming ingestion: its full cumulative sketch, covering every
// row ever ingested including rows that were pending at the crash. The
// coordinator substitutes it for all of this server's prior contributions
// (Upload.Replace), which makes recovery exact without replaying or
// deduplicating the pre-crash upload schedule. The pending delta resets —
// post-resume uploads cover new rows only.
func (s *Server) ResumeUpload() (*Upload, error) {
	b, shrinkage, err := s.full.Snapshot()
	if err != nil {
		return nil, err
	}
	s.pending = fd.New(s.cfg.D, sketchSize(s.cfg.Eps), fd.Options{})
	s.unreportedMass = 0
	s.announced = true
	return &Upload{
		From:      s.id,
		Rows:      b,
		Replace:   true,
		Mass:      s.localMass,
		Shrinkage: shrinkage,
		Words:     float64(b.Rows()*s.cfg.D) + 2,
	}, nil
}

// SetThreshold installs a new unreported-mass budget (coordinator
// broadcast).
func (s *Server) SetThreshold(t float64) { s.threshold = t }

// LocalMass returns ‖A_i(t)‖F².
func (s *Server) LocalMass() float64 { return s.localMass }

// UnreportedMass returns the Frobenius mass received since the last upload.
func (s *Server) UnreportedMass() float64 { return s.unreportedMass }

// Threshold returns the currently installed unreported-mass budget (0
// before the first broadcast reaches this server).
func (s *Server) Threshold() float64 { return s.threshold }

// Full returns the server's cumulative local sketch — everything ever
// received, the state behind PolicyFullSketch re-sends and the server's
// local ErrorBound certificate. Callers must not mutate it.
func (s *Server) Full() *fd.Sketch { return s.full }

// Coordinator tracks the union continuously from the servers' uploads.
//
// Every policy keeps the coordinator's state per server: a running FD
// sketch of what that server shipped — its latest replace-block under
// PolicyFullSketch, the absorbed deltas under the delta policies. A
// replace-block has at most ℓ rows, so in a fresh sketch (2ℓ-row buffer) it
// never shrinks: the sketch holds the block bit for bit and adds no charge.
// Per-server state is what makes a Replace upload meaningful under any
// policy — it discards exactly one server's prior contributions and
// substitutes the shipped block. A restored server uses that to rebase
// after a crash: its full cumulative sketch covers every row it ever
// ingested, so one replace upload makes the coordinator's view of that
// server exact regardless of which pre-crash deltas were or were not
// absorbed.
type Coordinator struct {
	cfg Config

	perServer map[int]*fd.Sketch // per-server shipped blocks

	reportedMass  map[int]float64
	shrinkage     map[int]float64 // Σδ shipped inside absorbed blocks, per server
	lastBroadcast float64
	threshold     float64 // currently installed per-server budget
	words         float64
	uploads       int
	announces     int
	broadcasts    int
	catchups      int
}

// NewCoordinator creates the tracking coordinator.
func NewCoordinator(cfg Config) *Coordinator {
	cfg.validate()
	return &Coordinator{
		cfg:          cfg,
		perServer:    make(map[int]*fd.Sketch),
		reportedMass: make(map[int]float64),
		shrinkage:    make(map[int]float64),
	}
}

// Broadcast is the coordinator's reply to an absorbed upload: install
// Threshold on exactly the servers listed in To. Either a full broadcast
// to every server the coordinator has heard from (the reported mass
// doubled), or a one-recipient catch-up delivering the current threshold
// to a server that just announced after the last broadcast — without it,
// a late joiner would sit at threshold zero, silently accumulating
// unreported mass until the next doubling.
type Broadcast struct {
	Threshold float64
	To        []int
}

// Absorb ingests one upload. A non-nil Broadcast instructs the caller to
// install the threshold on the listed servers.
//
// Communication accounting: a broadcast costs one word per actual
// recipient — the servers the coordinator has heard from — not a flat S
// words. (The historical S-word charge over-billed the early stream, when
// only a few servers had announced; the regression test pins the totals.)
func (c *Coordinator) Absorb(up *Upload) (*Broadcast, error) {
	c.words += up.Words
	ob := c.cfg.observer()
	_, heardBefore := c.reportedMass[up.From]
	switch {
	case up.Announce:
		// Bootstrap mass report: no rows, just makes the server's mass
		// visible so the first threshold broadcast covers it.
		c.announces++
		ob.MonitoringUpload(up.From, 0, up.Words, true)
	case up.Replace:
		c.uploads++
		// The block supersedes everything absorbed from this server so far:
		// a full-sketch re-send, or a restored server's rebase.
		sk := fd.New(c.cfg.D, sketchSize(c.cfg.Eps), fd.Options{})
		if err := sk.UpdateMatrix(up.Rows); err != nil {
			return nil, err
		}
		c.perServer[up.From] = sk
		c.shrinkage[up.From] = up.Shrinkage
		ob.MonitoringUpload(up.From, up.Rows.Rows(), up.Words, false)
	default:
		c.uploads++
		sk := c.perServer[up.From]
		if sk == nil {
			sk = fd.New(c.cfg.D, sketchSize(c.cfg.Eps), fd.Options{})
			c.perServer[up.From] = sk
		}
		if err := sk.UpdateMatrix(up.Rows); err != nil {
			return nil, err
		}
		c.shrinkage[up.From] += up.Shrinkage
		ob.MonitoringUpload(up.From, up.Rows.Rows(), up.Words, false)
	}
	c.reportedMass[up.From] = up.Mass
	total := 0.0
	for _, m := range c.reportedMass {
		total += m
	}
	if total > 2*c.lastBroadcast || c.lastBroadcast == 0 {
		c.lastBroadcast = total
		c.broadcasts++
		// Budget split: each server may hold ε/2 · T/s unreported mass, so
		// the total unreported (hence untracked) mass stays ≤ ε/2·T even as
		// T doubles before the next broadcast.
		c.threshold = c.cfg.Eps / 2 * total / float64(c.cfg.S)
		to := c.heard()
		c.words += float64(len(to)) // one word per actual recipient
		ob.MonitoringBroadcast(c.threshold, len(to))
		return &Broadcast{Threshold: c.threshold, To: to}, nil
	}
	if !heardBefore && c.broadcasts > 0 {
		// Catch-up: a newly announced server must learn the standing
		// threshold now, not at the next doubling.
		c.catchups++
		c.words++
		ob.MonitoringBroadcast(c.threshold, 1)
		return &Broadcast{Threshold: c.threshold, To: []int{up.From}}, nil
	}
	return nil, nil
}

// heard returns the sorted IDs of every server the coordinator has heard
// from — the recipient set of a full threshold broadcast.
func (c *Coordinator) heard() []int {
	to := make([]int, 0, len(c.reportedMass))
	for id := range c.reportedMass {
		to = append(to, id)
	}
	sort.Ints(to)
	return to
}

// Sketch returns the coordinator's current covariance sketch of the union:
// the per-server blocks stacked. Stacking is itself a valid covariance
// sketch of the union — coverr is sub-additive over a row partition — and
// keeps Sketch non-mutating, so queries never perturb the tracked state.
func (c *Coordinator) Sketch() (*matrix.Dense, error) {
	parts := make([]*matrix.Dense, 0, c.cfg.S)
	for i := 0; i < c.cfg.S; i++ {
		if sk, ok := c.perServer[i]; ok {
			b, _, err := sk.Snapshot()
			if err != nil {
				return nil, err
			}
			parts = append(parts, b)
		}
	}
	if len(parts) == 0 {
		return matrix.New(0, c.cfg.D), nil
	}
	return matrix.Stack(parts...), nil
}

// Words returns the total communication so far.
func (c *Coordinator) Words() float64 { return c.words }

// Uploads returns the number of sketch-carrying server uploads so far
// (announces are counted separately).
func (c *Coordinator) Uploads() int { return c.uploads }

// Announces returns the number of one-word bootstrap mass announcements.
func (c *Coordinator) Announces() int { return c.announces }

// Broadcasts returns the number of full threshold broadcasts (catch-up
// deliveries to late announcers are counted separately).
func (c *Coordinator) Broadcasts() int { return c.broadcasts }

// Catchups returns the number of one-recipient threshold catch-ups sent to
// servers that announced between broadcasts.
func (c *Coordinator) Catchups() int { return c.catchups }

// Threshold returns the currently installed per-server unreported-mass
// budget (0 before the first broadcast).
func (c *Coordinator) Threshold() float64 { return c.threshold }

// Heard returns how many servers the coordinator has heard from.
func (c *Coordinator) Heard() int { return len(c.reportedMass) }

// ReportedMass returns the total mass the servers have reported so far.
func (c *Coordinator) ReportedMass() float64 {
	total := 0.0
	for _, m := range c.reportedMass {
		total += m
	}
	return total
}

// ErrorBound returns the coordinator's live covariance-error certificate
// with respect to the union of the streams, assuming every site honours
// its threshold: the shrink charges of the coordinator's own merging, plus
// the shrink charges the servers reported for their shipped blocks, plus
// the unreported-mass allowance S·threshold the protocol grants the sites
// between uploads. Under PolicySVSDelta the shipped-block term is the
// delta sketches' charge only — the SVS compression adds a probabilistic
// error the certificate does not see, so the bound holds in expectation.
func (c *Coordinator) ErrorBound() float64 {
	bound := float64(c.cfg.S) * c.threshold
	for _, d := range c.shrinkage {
		bound += d
	}
	for _, sk := range c.perServer {
		bound += sk.TotalShrinkage()
	}
	return bound
}
