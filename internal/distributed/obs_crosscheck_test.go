package distributed

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestObserverMatchesMeter is the cross-check the observability layer is
// built around: the observer's communication totals are recorded by the
// comm.Meter's Recorder hook at exactly the metering point, so for every
// protocol they must EQUAL the metered Result totals — not approximately,
// exactly. Any drift means a send path escaped instrumentation.
func TestObserverMatchesMeter(t *testing.T) {
	protos := []Protocol{
		FDMerge{Eps: 0.25, K: 3},
		SVS{Alpha: 0.2, Delta: 0.1},
		RowSampling{Eps: 0.3},
		Adaptive{AdaptiveParams: AdaptiveParams{Eps: 0.25, K: 3}},
	}
	for _, proto := range protos {
		t.Run(proto.Name(), func(t *testing.T) {
			_, parts := split(t, 21, 200, 12, 4)
			reg := obs.NewRegistry()
			var buf bytes.Buffer
			tr := obs.NewTracer(&buf)
			ob := obs.NewObserver(reg, tr)

			res, err := Run(context.Background(), proto, parts, WithSeed(7), WithObserver(ob))
			if err != nil {
				t.Fatal(err)
			}
			s := reg.Snapshot()

			if got := s.Counters["comm.bits_total"]; got != res.Bits {
				t.Errorf("comm.bits_total = %d, meter says %d", got, res.Bits)
			}
			if got := s.Counters["comm.messages_total"]; got != int64(res.Messages) {
				t.Errorf("comm.messages_total = %d, meter says %d", got, res.Messages)
			}
			if got := s.Counters["comm.rounds_total"]; got != int64(res.Rounds) {
				t.Errorf("comm.rounds_total = %d, meter says %d", got, res.Rounds)
			}
			// The per-endpoint and per-kind breakdowns each partition the
			// total exactly.
			var byFrom, byKind int64
			for name, v := range s.Counters {
				switch {
				case strings.HasPrefix(name, "comm.bits.from."):
					byFrom += v
				case strings.HasPrefix(name, "comm.bits.kind."):
					byKind += v
				}
			}
			if byFrom != res.Bits {
				t.Errorf("Σ comm.bits.from.* = %d, meter says %d", byFrom, res.Bits)
			}
			if byKind != res.Bits {
				t.Errorf("Σ comm.bits.kind.* = %d, meter says %d", byKind, res.Bits)
			}
			if got := s.Counters["runs.started"]; got != 1 {
				t.Errorf("runs.started = %d", got)
			}
			if got := s.Counters["runs.ok"]; got != 1 {
				t.Errorf("runs.ok = %d", got)
			}
			if got := s.Histograms["comm.message_bits"].Count; got != int64(res.Messages) {
				t.Errorf("message_bits histogram count = %d, want %d", got, res.Messages)
			}

			// The trace must validate against the schema and bracket the run.
			if err := tr.Flush(); err != nil {
				t.Fatal(err)
			}
			n, err := obs.ValidateTrace(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("trace invalid: %v", err)
			}
			if n == 0 {
				t.Fatal("empty trace")
			}
			out := buf.String()
			if !strings.Contains(out, `"type":"run_start"`) || !strings.Contains(out, `"type":"run_end"`) {
				t.Fatal("trace missing run_start/run_end bracket")
			}
			if int64(strings.Count(out, `"type":"msg"`)) != res.Messages {
				t.Fatalf("trace msg events = %d, want %d", strings.Count(out, `"type":"msg"`), res.Messages)
			}
		})
	}
}

// TestObserverDoesNotChangeCost: observation must be free in protocol terms —
// identical seeds with and without an observer produce identical metered
// communication.
func TestObserverDoesNotChangeCost(t *testing.T) {
	_, parts := split(t, 22, 200, 12, 4)
	plain, err := Run(context.Background(), SVS{Alpha: 0.2, Delta: 0.1}, parts, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	observed, err := Run(context.Background(), SVS{Alpha: 0.2, Delta: 0.1}, parts, WithSeed(3), WithObserver(obs.NewObserver(obs.NewRegistry(), nil)))
	if err != nil {
		t.Fatal(err)
	}
	if plain.Words != observed.Words || plain.Messages != observed.Messages || plain.Rounds != observed.Rounds {
		t.Fatalf("observation changed the protocol: %+v vs %+v", plain, observed)
	}
}

// TestWithObserverOption exercises the RunOption route (rather than
// Config.Obs) and the default-observer fallback.
func TestWithObserverOption(t *testing.T) {
	_, parts := split(t, 23, 120, 10, 3)
	reg := obs.NewRegistry()
	ob := obs.NewObserver(reg, nil)
	res, err := Run(context.Background(), FDMerge{Eps: 0.25, K: 3}, parts, WithObserver(ob))
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Counters["comm.bits_total"]; got != res.Bits {
		t.Fatalf("WithObserver bits = %d, meter says %d", got, res.Bits)
	}

	// Default-observer fallback: no per-run observer, process default set.
	reg2 := obs.NewRegistry()
	obs.SetDefault(obs.NewObserver(reg2, nil))
	defer obs.SetDefault(nil)
	res2, err := Run(context.Background(), FDMerge{Eps: 0.25, K: 3}, parts)
	if err != nil {
		t.Fatal(err)
	}
	if got := reg2.Snapshot().Counters["comm.bits_total"]; got != res2.Bits {
		t.Fatalf("default observer bits = %d, meter says %d", got, res2.Bits)
	}
}
