// Package trace is a lightweight structured event log for simulator
// debugging: a fixed-capacity ring of typed events (packet lifecycle, link
// transitions, policy decisions) that costs nothing when disabled and never
// allocates per event once warm.
package trace

import (
	"fmt"
	"io"

	"repro/internal/sim"
)

// Kind classifies a traced event.
type Kind uint8

const (
	// PacketInjected: a packet entered a source queue. A = src, B = dst.
	PacketInjected Kind = iota
	// PacketDelivered: a tail flit ejected. A = src, B = dst, C = latency
	// in picoseconds.
	PacketDelivered
	// LinkTransition: a DVS link started a level step. A = node, B = port,
	// C = target level.
	LinkTransition
	// PolicyDecision: a history window closed with a non-hold decision.
	// A = node, B = port, C = +1 raise / -1 lower.
	PolicyDecision
)

func (k Kind) String() string {
	switch k {
	case PacketInjected:
		return "inject"
	case PacketDelivered:
		return "deliver"
	case LinkTransition:
		return "transition"
	case PolicyDecision:
		return "policy"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Event is one trace record. Fields A, B, C carry kind-specific values so
// events stay fixed-size and allocation-free.
type Event struct {
	At   sim.Time
	Kind Kind
	ID   int64 // packet or task id when applicable
	A, B int
	C    int64
}

// Buffer is a fixed-capacity ring of events. A nil *Buffer is valid and
// records nothing, so call sites need no conditionals.
type Buffer struct {
	events []Event
	next   int
	total  int64
	kind   int // the one kind recorded, or -1 for every kind
}

// NewBuffer returns a ring holding the most recent capacity events of one
// kind, or of every kind when kind is -1. Events of other kinds are not
// recorded, so the ring's capacity counts only the kind asked for.
func NewBuffer(capacity, kind int) *Buffer {
	if capacity < 1 {
		panic("trace: capacity must be positive")
	}
	return &Buffer{events: make([]Event, 0, capacity), kind: kind}
}

// Log records one event. Logging to a nil buffer, or an event of a kind
// the buffer does not record, is a no-op.
func (b *Buffer) Log(e Event) {
	if b == nil || (b.kind >= 0 && Kind(b.kind) != e.Kind) {
		return
	}
	b.total++
	if len(b.events) < cap(b.events) {
		b.events = append(b.events, e)
		return
	}
	b.events[b.next] = e
	b.next = (b.next + 1) % cap(b.events)
}

// Total reports how many events were ever recorded (including evicted ones).
func (b *Buffer) Total() int64 {
	if b == nil {
		return 0
	}
	return b.total
}

// Len reports how many events are retained.
func (b *Buffer) Len() int {
	if b == nil {
		return 0
	}
	return len(b.events)
}

// Events returns the retained events oldest-first.
func (b *Buffer) Events() []Event {
	if b == nil {
		return nil
	}
	out := make([]Event, 0, len(b.events))
	out = append(out, b.events[b.next:]...)
	out = append(out, b.events[:b.next]...)
	return out
}

// Dump writes the retained events to w, one line each.
func (b *Buffer) Dump(w io.Writer) error {
	for _, e := range b.Events() {
		var err error
		switch e.Kind {
		case PacketInjected:
			_, err = fmt.Fprintf(w, "%12v %-10s pkt=%d %d->%d\n", e.At, e.Kind, e.ID, e.A, e.B)
		case PacketDelivered:
			_, err = fmt.Fprintf(w, "%12v %-10s pkt=%d %d->%d latency=%v\n",
				e.At, e.Kind, e.ID, e.A, e.B, sim.Time(e.C))
		case LinkTransition:
			_, err = fmt.Fprintf(w, "%12v %-10s node=%d port=%d -> level %d\n",
				e.At, e.Kind, e.A, e.B, e.C)
		case PolicyDecision:
			dir := "lower"
			if e.C > 0 {
				dir = "raise"
			}
			_, err = fmt.Fprintf(w, "%12v %-10s node=%d port=%d %s\n", e.At, e.Kind, e.A, e.B, dir)
		default:
			_, err = fmt.Fprintf(w, "%12v %-10s %+v\n", e.At, e.Kind, e)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
