package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/distributed"
	"repro/internal/matrix"
	"repro/internal/monitoring"
	"repro/internal/obs"
	"repro/internal/workload"
)

// daemonKinds are the kinds this package sends and receives.
var daemonKinds = []string{KindAnnounce, KindDelta, KindReplace, KindThreshold, KindWinQuery, KindWinSketch}

// traced returns cfg with an observer tracing into a buffer, and a reader
// of the events traced so far.
func traced(cfg Config) (Config, func(t *testing.T) []obs.Event) {
	var buf bytes.Buffer
	tr := obs.NewTracer(&buf)
	cfg.Monitoring.Obs = obs.NewObserver(nil, tr)
	return cfg, func(t *testing.T) []obs.Event {
		t.Helper()
		if err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
		var events []obs.Event
		sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
		for sc.Scan() {
			var e obs.Event
			if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
				t.Fatal(err)
			}
			events = append(events, e)
		}
		return events
	}
}

// notes returns the details of the traced note events.
func notes(events []obs.Event) []string {
	var out []string
	for _, e := range events {
		if e.Type == "note" {
			out = append(out, e.Detail)
		}
	}
	return out
}

// TestServiceKindsFollowSchema runs two small deployments over TCP — the
// delta policy with a window query, and the full-sketch policy, whose
// uploads replace — and checks that every kind sent has a comm.Schema entry
// and that no receiver dropped a message for its shape. Between them they
// send every daemon kind.
func TestServiceKindsFollowSchema(t *testing.T) {
	const n, d = 200, 8
	seen := map[string]bool{}
	for _, policy := range []monitoring.Policy{monitoring.PolicyDelta, monitoring.PolicyFullSketch} {
		cfg, events := traced(testConfig(2, d))
		cfg.Monitoring.Policy = policy
		cfg.Window = 64
		rng := rand.New(rand.NewSource(12))
		ms := []*matrix.Dense{
			workload.LowRankPlusNoise(rng, n, d, 3, 15, 0.8, 0.3),
			workload.LowRankPlusNoise(rng, n, d, 3, 15, 0.8, 0.3),
		}
		coord, err := NewCoordinator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		opts := distributed.TCPOptions{Obs: cfg.Monitoring.Obs}
		hub, err := distributed.NewTCPCoordinatorOpts("127.0.0.1:0", 2, nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		go coord.Run(ctx, hub)
		done := make(chan error, 2)
		for id, m := range ms {
			srv, err := NewServer(cfg, id, workload.NewDenseSource(m))
			if err != nil {
				t.Fatal(err)
			}
			go func() {
				up, err := distributed.DialTCPServerContext(ctx, hub.Addr(), id, nil, opts)
				if err != nil {
					done <- err
					return
				}
				defer up.Close()
				done <- srv.Run(ctx, up)
			}()
		}
		waitMass(t, ctx, coord, streamMass(ms[0])+streamMass(ms[1]))
		if _, err := coord.WindowQuery(ctx); err != nil {
			t.Fatal(err)
		}
		cancel()
		for range ms {
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		}
		hub.Close()
		all := events(t)
		for _, e := range all {
			if e.Type == "msg" {
				seen[e.Kind] = true
			}
		}
		for _, note := range notes(all) {
			if strings.Contains(note, "dropped") {
				t.Errorf("%v: %s", policy, note)
			}
		}
	}
	var kinds []string
	for kind := range seen {
		if _, ok := comm.Schema[kind]; !ok {
			t.Errorf("%q has no comm.Schema entry", kind)
		}
		kinds = append(kinds, kind)
	}
	sort.Strings(kinds)
	for _, kind := range daemonKinds {
		if !seen[kind] {
			t.Errorf("no deployment sent %q (sent %v)", kind, kinds)
		}
	}
}

// offByOne returns a message of kind that fits its comm.Schema entry under
// dims, and, keyed by the dimension, one copy for each dimension the entry
// pins (scalars, ints, columns) with that dimension one too large.
func offByOne(kind string, dims comm.Dims) (valid *comm.Message, bad map[string]*comm.Message) {
	sh := comm.Schema[kind]
	cols := 2
	if sh.Cols == comm.DimD {
		cols = dims.D
	}
	build := func(scalars, ints, cols int) *comm.Message {
		msg := &comm.Message{Kind: kind, Scalars: make([]float64, scalars), Ints: make([]int64, ints)}
		if sh.Forms&comm.FormDense != 0 {
			msg.Matrix = matrix.New(2, cols)
		}
		return msg
	}
	valid = build(sh.Scalars, sh.Ints, cols)
	bad = map[string]*comm.Message{
		"scalars": build(sh.Scalars+1, sh.Ints, cols),
		"ints":    build(sh.Scalars, sh.Ints+1, cols),
	}
	if sh.Forms&comm.FormDense != 0 {
		bad["columns"] = build(sh.Scalars, sh.Ints, cols+1)
	}
	return valid, bad
}

// TestDaemonDropsOffByOnePayloads delivers, for every daemon kind in
// comm.Schema, a message off by one in each dimension its entry pins, to
// the coordinator's or the server's handler. The daemon must drop it with
// a note and absorb nothing; nothing may panic.
func TestDaemonDropsOffByOnePayloads(t *testing.T) {
	const d = 6
	var inSchema []string
	for kind := range comm.Schema {
		if strings.HasPrefix(kind, "svc-") || strings.HasPrefix(kind, "win-") {
			inSchema = append(inSchema, kind)
		}
	}
	sort.Strings(inSchema)
	want := append([]string(nil), daemonKinds...)
	sort.Strings(want)
	if fmt.Sprint(inSchema) != fmt.Sprint(want) {
		t.Fatalf("comm.Schema's daemon kinds are %v, want %v", inSchema, want)
	}
	dims := comm.Dims{D: d}
	for _, kind := range daemonKinds {
		valid, bad := offByOne(kind, dims)
		if err := comm.CheckShape(valid, dims); err != nil {
			t.Fatalf("the valid %q message does not fit: %v", kind, err)
		}
		for dim, msg := range bad {
			t.Run(kind+"/"+dim, func(t *testing.T) {
				cfg, events := traced(testConfig(1, d))
				switch kind {
				case KindThreshold, KindWinQuery:
					srv, err := NewServer(cfg, 0, workload.NewDenseSource(matrix.New(1, d)))
					if err != nil {
						t.Fatal(err)
					}
					before := srv.Tracker().Threshold()
					// A nil uplink: a win-query that got through would panic
					// sending its reply.
					if err := srv.handleCtrl(context.Background(), nil, msg); err != nil {
						t.Fatal(err)
					}
					if after := srv.Tracker().Threshold(); after != before {
						t.Fatalf("threshold moved %v → %v", before, after)
					}
				default:
					coord, err := NewCoordinator(cfg)
					if err != nil {
						t.Fatal(err)
					}
					known := map[int]bool{}
					before := *coord.status(known)
					reply := make(chan queryResult, 1)
					pending := map[int64]*winPend{0: {want: 1, got: map[int]bool{}, reply: reply}}
					coord.handleMessage(context.Background(), nil, msg, map[int]int64{}, known, pending)
					after := *coord.status(known)
					before.UptimeSec, after.UptimeSec = 0, 0
					if after != before || len(known) != 0 || len(pending[0].got) != 0 {
						t.Fatalf("absorbed: status %+v → %+v, known %v, window replies %v", before, after, known, pending[0].got)
					}
				}
				if got := notes(events(t)); len(got) != 1 || !strings.Contains(got[0], fmt.Sprintf("dropped comm: %q message from 0", kind)) {
					t.Fatalf("notes %q, want one naming the dropped %q", got, kind)
				}
			})
		}
	}
}

// TestUploadWithoutDenseRowsIsDropped: an upload's rows travel as a dense
// matrix or not at all. A delta or replace block whose rows arrive
// quantized or as sample rows is dropped with a note, not absorbed as zero
// rows with its mass counted.
func TestUploadWithoutDenseRowsIsDropped(t *testing.T) {
	const d = 4
	rows := matrix.New(2, d)
	q, err := comm.NewQuantizer(0.5).Quantize(rows)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{KindDelta, KindReplace} {
		for name, msg := range map[string]*comm.Message{
			"quantized": {Quantized: q},
			"samples":   {Samples: comm.NewSampleRows(d)},
		} {
			cfg, events := traced(testConfig(1, d))
			coord, err := NewCoordinator(cfg)
			if err != nil {
				t.Fatal(err)
			}
			msg.Kind, msg.Scalars, msg.Ints = kind, []float64{5, 0}, []int64{0}
			known := map[int]bool{}
			net := distributed.NewMemNetwork(1, nil) // takes an absorbed upload's threshold broadcast
			coord.handleMessage(context.Background(), net.Coordinator(), msg, map[int]int64{}, known, nil)
			net.Close()
			if mass := coord.track.ReportedMass(); mass != 0 || len(known) != 0 {
				t.Errorf("%s %s: absorbed (reported mass %v, known %v)", kind, name, mass, known)
			}
			if got := notes(events(t)); len(got) != 1 || !strings.Contains(got[0], "dropped") {
				t.Errorf("%s %s: notes %q, want one drop", kind, name, got)
			}
		}
	}
}
