package comm

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Recorder mirrors the meter's accounting into an external sink (the
// observability layer). Hooking here — rather than wrapping the network —
// guarantees the sink sees exactly the messages the ledger charges, in the
// same units, so the two can never drift apart. Implementations must be safe
// for concurrent use; calls are made outside the meter's lock.
type Recorder interface {
	RecordMessage(from, to int, kind string, bits int64)
	RecordRound()
}

// Meter accumulates communication cost per directed link and in total.
// It is safe for concurrent use (protocol goroutines share one meter).
type Meter struct {
	mu       sync.Mutex
	rec      Recorder
	linkBits map[[2]int]int64
	linkMsgs map[[2]int]int64
	bits     int64
	messages int64
	rounds   int64
}

// SetRecorder installs (or, with nil, removes) a recorder mirroring every
// subsequent Record/AddRound call.
func (m *Meter) SetRecorder(r Recorder) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.rec = r
}

// NewMeter returns an empty meter.
func NewMeter() *Meter {
	return &Meter{linkBits: make(map[[2]int]int64), linkMsgs: make(map[[2]int]int64)}
}

// Record charges one message to the meter.
func (m *Meter) Record(msg *Message) {
	b := msg.Bits()
	m.mu.Lock()
	m.linkBits[[2]int{msg.From, msg.To}] += b
	m.linkMsgs[[2]int{msg.From, msg.To}]++
	m.bits += b
	m.messages++
	rec := m.rec
	m.mu.Unlock()
	if rec != nil {
		rec.RecordMessage(msg.From, msg.To, msg.Kind, b)
	}
}

// AddRound increments the round counter; protocols call it once per
// synchronous communication round.
func (m *Meter) AddRound() {
	m.mu.Lock()
	m.rounds++
	rec := m.rec
	m.mu.Unlock()
	if rec != nil {
		rec.RecordRound()
	}
}

// Bits returns the total bits sent.
func (m *Meter) Bits() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.bits
}

// Words returns the total cost in (fractional) machine words.
func (m *Meter) Words() float64 {
	return float64(m.Bits()) / WordBits
}

// Messages returns the number of messages recorded.
func (m *Meter) Messages() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.messages
}

// Rounds returns the number of rounds recorded.
func (m *Meter) Rounds() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.rounds
}

// LinkWords returns the words sent from endpoint `from` to endpoint `to`.
func (m *Meter) LinkWords(from, to int) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return float64(m.linkBits[[2]int{from, to}]) / WordBits
}

// InboundMessages returns the number of messages addressed to endpoint `to`
// over all senders — the fan-in figure of a tree node (O(fan-out) at the
// root of a tree plan versus s in the star).
func (m *Meter) InboundMessages(to int) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var n int64
	for k, v := range m.linkMsgs {
		if k[1] == to {
			n += v
		}
	}
	return n
}

// Reset zeroes all counters.
func (m *Meter) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.linkBits = make(map[[2]int]int64)
	m.linkMsgs = make(map[[2]int]int64)
	m.bits, m.messages, m.rounds = 0, 0, 0
}

// Summary renders the per-link breakdown for diagnostics.
func (m *Meter) Summary() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	type link struct {
		from, to int
		bits     int64
	}
	links := make([]link, 0, len(m.linkBits))
	for k, v := range m.linkBits {
		links = append(links, link{k[0], k[1], v})
	}
	sort.Slice(links, func(i, j int) bool {
		if links[i].from != links[j].from {
			return links[i].from < links[j].from
		}
		return links[i].to < links[j].to
	})
	var b strings.Builder
	fmt.Fprintf(&b, "total: %.1f words in %d messages, %d rounds\n",
		float64(m.bits)/WordBits, m.messages, m.rounds)
	for _, l := range links {
		fmt.Fprintf(&b, "  %s -> %s: %.1f words\n", endpointName(l.from), endpointName(l.to), float64(l.bits)/WordBits)
	}
	return b.String()
}

func endpointName(id int) string {
	if id == CoordinatorID {
		return "coord"
	}
	return fmt.Sprintf("s%d", id)
}
