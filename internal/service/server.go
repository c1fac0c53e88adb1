package service

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/comm"
	"repro/internal/distributed"
	"repro/internal/fd"
	"repro/internal/monitoring"
	"repro/internal/workload"
)

// Server is a long-lived sketch server: it ingests rows from its RowSource
// under the monitoring-model tracking protocol, ships threshold-triggered
// uploads to the coordinator, optionally maintains a sliding-window FD
// sketch of its recent rows, and checkpoints its state so a restart
// resumes the shard without replaying the stream.
type Server struct {
	cfg   Config
	id    int
	src   workload.RowSource
	track *monitoring.Server
	win   *fd.WindowSketch

	consumed      int   // rows ingested from the source (across incarnations)
	epoch         int64 // incarnation counter; stamps sketch uploads
	words         float64
	rowsSinceCkpt int
	restored      bool
}

// NewServer builds server id over src. If a committed checkpoint exists at
// cfg.CheckpointPath the server restores from it — tracking state, stream
// position, incarnation epoch, and words meter all resume — and the source
// is fast-forwarded to the checkpointed row (O(1) for file sources). The
// window sketch is deliberately not checkpointed: it re-fills within
// Window rows of the restart, trading a brief post-restart warm-up for a
// checkpoint that stays O(sketch) instead of O(sketch·buckets).
func NewServer(cfg Config, id int, src workload.RowSource) (*Server, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if n, d := src.Dims(); d != cfg.Monitoring.D {
		return nil, fmt.Errorf("service: server %d source is %dx%d, config wants d=%d", id, n, d, cfg.Monitoring.D)
	}
	s := &Server{cfg: cfg, id: id, src: src}
	if cfg.Window > 0 {
		win, err := fd.NewWindow(cfg.Monitoring.D, monitoring.SketchRows(cfg.Monitoring.Eps),
			cfg.Window, cfg.WindowBuckets, fd.Options{})
		if err != nil {
			return nil, err
		}
		s.win = win
	}
	if cfg.CheckpointPath != "" && workload.CheckpointExists(cfg.CheckpointPath) {
		st, consumed, epoch, words, err := loadServerCheckpoint(cfg, id)
		if err != nil {
			return nil, err
		}
		track, err := monitoring.RestoreServer(cfg.Monitoring, st)
		if err != nil {
			return nil, err
		}
		// A new incarnation: its uploads carry epoch+1 so the coordinator can
		// drop stragglers the dead incarnation left in flight.
		s.track, s.consumed, s.epoch, s.words = track, consumed, epoch+1, words
		s.restored = true
		// Fast-forward the source. A looping source wraps: only the offset
		// within the current pass needs skipping.
		skip := consumed
		if n, _ := src.Dims(); cfg.Loop && n > 0 {
			skip = consumed % n
		}
		if err := workload.SkipRows(src, skip); err != nil {
			return nil, fmt.Errorf("service: server %d: fast-forward to row %d: %w", id, skip, err)
		}
		cfg.observer().Note(fmt.Sprintf("server %d restored from %s at row %d", id, cfg.CheckpointPath, consumed))
	} else {
		s.track = monitoring.NewServer(cfg.Monitoring, id)
	}
	return s, nil
}

// Restored reports whether this incarnation resumed from a checkpoint.
func (s *Server) Restored() bool { return s.restored }

// Consumed returns the total rows ingested, including rows counted by a
// restored checkpoint. Read it only after Run returns.
func (s *Server) Consumed() int { return s.consumed }

// Words returns the cumulative upload words this server has charged,
// resuming from the checkpointed value after a restore. Read it only after
// Run returns.
func (s *Server) Words() float64 { return s.words }

// Tracker exposes the underlying monitoring state for inspection. Read it
// only after Run returns.
func (s *Server) Tracker() *monitoring.Server { return s.track }

// Run drives the daemon until ctx is cancelled (graceful stop), the source
// errors, the uplink dies, or — with ExitWhenDrained — ingestion finishes.
// Uploads are sent only from this goroutine (the TCP connection is not
// safe for concurrent writers); incoming thresholds and window queries are
// received on a background goroutine and handled here between rows.
//
// A restored incarnation first rebases: it ships its full cumulative
// sketch as a replace block, which supersedes everything the coordinator
// absorbed from this server before the crash. Recovery is thereby exact
// without replaying the pre-crash upload schedule — no matter which
// in-flight uploads did or did not land before the kill.
func (s *Server) Run(ctx context.Context, uplink *distributed.TCPServer) error {
	rctx, cancelRecv := context.WithCancel(ctx)
	defer cancelRecv()
	ctrl := make(chan *comm.Message, 16)
	recvErr := make(chan error, 1)
	go func() {
		for {
			msg, err := uplink.Recv(rctx)
			if err != nil {
				if rctx.Err() == nil {
					recvErr <- fmt.Errorf("service: server %d uplink: %w", s.id, err)
				}
				return
			}
			select {
			case ctrl <- msg:
			case <-rctx.Done():
				msg.Release()
				return
			}
		}
	}()

	var tick <-chan time.Time
	if s.cfg.CheckpointEvery > 0 {
		ticker := time.NewTicker(s.cfg.CheckpointEvery)
		defer ticker.Stop()
		tick = ticker.C
	}

	if s.restored {
		up, err := s.track.ResumeUpload()
		if err != nil {
			return err
		}
		if err := s.sendUpload(ctx, uplink, up); err != nil {
			return err
		}
	}

	drained := false
	for {
		// Lifecycle and control first, so a busy ingest loop cannot starve
		// threshold installs or a pending shutdown.
		select {
		case <-ctx.Done():
			return s.exit()
		case err := <-recvErr:
			return err
		case msg := <-ctrl:
			if err := s.handleCtrl(ctx, uplink, msg); err != nil {
				return err
			}
			continue
		case <-tick:
			if err := s.checkpoint(); err != nil {
				return err
			}
			continue
		default:
		}

		if drained {
			if s.cfg.ExitWhenDrained {
				return s.exit()
			}
			// Idle: stay alive for thresholds and window queries.
			select {
			case <-ctx.Done():
				return s.exit()
			case err := <-recvErr:
				return err
			case msg := <-ctrl:
				if err := s.handleCtrl(ctx, uplink, msg); err != nil {
					return err
				}
			case <-tick:
				if err := s.checkpoint(); err != nil {
					return err
				}
			}
			continue
		}

		row, ok := s.src.Next()
		if !ok {
			if err := s.src.Err(); err != nil {
				return err
			}
			if n, _ := s.src.Dims(); s.cfg.Loop && n > 0 {
				if err := s.src.Reset(); err != nil {
					return err
				}
			} else {
				drained = true
				if err := s.drainFlush(ctx, uplink); err != nil {
					return err
				}
			}
			continue
		}
		s.consumed++
		s.rowsSinceCkpt++
		up, err := s.track.Offer(row)
		if err != nil {
			return err
		}
		if s.win != nil {
			if err := s.win.Update(row); err != nil {
				return err
			}
		}
		if up != nil {
			if err := s.sendUpload(ctx, uplink, up); err != nil {
				return err
			}
		}
		if s.cfg.CheckpointEveryRows > 0 && s.rowsSinceCkpt >= s.cfg.CheckpointEveryRows {
			if err := s.checkpoint(); err != nil {
				return err
			}
		}
		if s.cfg.MaxRows > 0 && s.consumed >= s.cfg.MaxRows {
			drained = true
			if err := s.drainFlush(ctx, uplink); err != nil {
				return err
			}
		}
		if s.cfg.Throttle > 0 {
			t := time.NewTimer(s.cfg.Throttle)
			select {
			case <-ctx.Done():
				t.Stop()
				return s.exit()
			case <-t.C:
			}
		}
		// Ingest never blocks. When servers share a process with the
		// coordinator, a yield per row keeps the coordinator's loop and its
		// HTTP queries from waiting out whole time slices behind them;
		// without it the coordinator falls behind the uploads.
		runtime.Gosched()
	}
}

// exit is the graceful-stop path: an optional final checkpoint, then nil
// (a cancelled daemon is a normal stop, not an error).
func (s *Server) exit() error {
	if s.cfg.CheckpointOnExit {
		if err := s.checkpoint(); err != nil {
			return err
		}
	}
	return nil
}

// checkpoint persists the current tracking state and stream position.
func (s *Server) checkpoint() error {
	if s.cfg.CheckpointPath == "" {
		return nil
	}
	st, err := s.track.State()
	if err != nil {
		return err
	}
	if err := saveServerCheckpoint(s.cfg, s.id, st, s.consumed, s.epoch, s.words); err != nil {
		return err
	}
	s.rowsSinceCkpt = 0
	rows := st.Pending.Buffer.Rows() + st.Full.Buffer.Rows()
	s.cfg.observer().CheckpointSaved(s.id, rows, s.cfg.CheckpointPath)
	return nil
}

// drainFlush ships the unreported tail when ingestion stops, so the
// coordinator converges to the exact union even if the remaining mass
// never crosses the threshold (or the stream drained before the bootstrap
// threshold arrived).
func (s *Server) drainFlush(ctx context.Context, uplink *distributed.TCPServer) error {
	up, err := s.track.FlushPending()
	if err != nil || up == nil {
		return err
	}
	return s.sendUpload(ctx, uplink, up)
}

// sendUpload serializes a tracking upload onto the wire. Sketch-carrying
// uploads are stamped with the incarnation epoch so the coordinator can
// drop stragglers a dead incarnation left in flight after the restored
// one rebases.
func (s *Server) sendUpload(ctx context.Context, uplink *distributed.TCPServer, up *monitoring.Upload) error {
	var msg *comm.Message
	if up.Announce {
		msg = &comm.Message{Kind: KindAnnounce, Scalars: []float64{up.Mass}}
	} else {
		kind := KindDelta
		if up.Replace {
			kind = KindReplace
		}
		msg = &comm.Message{
			Kind:    kind,
			Scalars: []float64{up.Mass, up.Shrinkage},
			Ints:    []int64{s.epoch},
			Matrix:  up.Rows,
		}
	}
	s.words += up.Words
	return uplink.Send(ctx, comm.CoordinatorID, msg)
}

// handleCtrl processes one coordinator message: a threshold install or a
// window-snapshot request.
func (s *Server) handleCtrl(ctx context.Context, uplink *distributed.TCPServer, msg *comm.Message) error {
	switch msg.Kind {
	case KindThreshold:
		if len(msg.Scalars) >= 1 {
			s.track.SetThreshold(msg.Scalars[0])
		}
		msg.Release()
		return nil
	case KindWinQuery:
		if len(msg.Ints) < 1 {
			msg.Release()
			return nil
		}
		qid := msg.Ints[0]
		msg.Release()
		reply := &comm.Message{Kind: KindWinSketch, Ints: []int64{qid, 0}, Scalars: []float64{0}}
		if s.win != nil {
			q, err := s.win.Query()
			if err != nil {
				return err
			}
			m, err := q.Matrix()
			if err != nil {
				return err
			}
			reply.Matrix = m
			reply.Ints[1] = int64(s.win.Covered())
			reply.Scalars[0] = q.ErrorBound()
		}
		return uplink.Send(ctx, comm.CoordinatorID, reply)
	default:
		kind := msg.Kind
		msg.Release()
		s.cfg.observer().Note(fmt.Sprintf("server %d: unexpected message kind %q", s.id, kind))
		return nil
	}
}
