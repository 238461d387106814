package trace

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestNilBufferSafe(t *testing.T) {
	var b *Buffer
	b.Log(Event{Kind: PacketInjected}) // must not panic
	if b.Len() != 0 || b.Total() != 0 || b.Events() != nil {
		t.Error("nil buffer should report empty")
	}
}

func TestRingEviction(t *testing.T) {
	b := NewBuffer(3, -1)
	for i := 0; i < 5; i++ {
		b.Log(Event{At: sim.Time(i), Kind: PacketInjected, ID: int64(i)})
	}
	if b.Total() != 5 || b.Len() != 3 {
		t.Fatalf("total=%d len=%d, want 5/3", b.Total(), b.Len())
	}
	got := b.Events()
	for i, e := range got {
		if e.ID != int64(i+2) {
			t.Errorf("event %d has ID %d, want %d (oldest-first)", i, e.ID, i+2)
		}
	}
}

func TestOrderBeforeWrap(t *testing.T) {
	b := NewBuffer(10, -1)
	for i := 0; i < 4; i++ {
		b.Log(Event{ID: int64(i)})
	}
	for i, e := range b.Events() {
		if e.ID != int64(i) {
			t.Fatalf("order broken before wrap: %v", b.Events())
		}
	}
}

func TestDumpFormatsAndFilters(t *testing.T) {
	logAll := func(b *Buffer) {
		b.Log(Event{At: 1000, Kind: PacketInjected, ID: 7, A: 0, B: 5})
		b.Log(Event{At: 2000, Kind: PacketDelivered, ID: 7, A: 0, B: 5, C: 1000})
		b.Log(Event{At: 3000, Kind: LinkTransition, A: 3, B: 1, C: 4})
		b.Log(Event{At: 4000, Kind: PolicyDecision, A: 3, B: 1, C: -1})
	}
	b := NewBuffer(10, -1)
	logAll(b)

	var buf bytes.Buffer
	if err := b.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"inject", "deliver", "latency=1.000ns... ", "transition", "level 4", "policy", "lower"} {
		want = strings.TrimSuffix(want, "... ")
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q:\n%s", want, out)
		}
	}
	// A ring filtered to transitions dumps only transitions.
	buf.Reset()
	b = NewBuffer(10, int(LinkTransition))
	logAll(b)
	if err := b.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "inject") || !strings.Contains(buf.String(), "transition") {
		t.Errorf("filter failed:\n%s", buf.String())
	}
}

// TestKindBufferCountsOnlyItsKind: a ring filtered to one kind keeps the
// last capacity events of that kind, however many of other kinds follow.
func TestKindBufferCountsOnlyItsKind(t *testing.T) {
	b := NewBuffer(2, int(PacketDelivered))
	for i := 0; i < 5; i++ {
		b.Log(Event{Kind: PacketDelivered, ID: int64(i)})
		b.Log(Event{Kind: PacketInjected, ID: int64(100 + i)})
		b.Log(Event{Kind: LinkTransition, ID: int64(200 + i)})
	}
	if b.Total() != 5 || b.Len() != 2 {
		t.Fatalf("total=%d len=%d, want 5/2", b.Total(), b.Len())
	}
	for i, e := range b.Events() {
		if e.Kind != PacketDelivered || e.ID != int64(i+3) {
			t.Errorf("event %d = %+v, want delivery %d", i, e, i+3)
		}
	}
}

func TestNewBufferPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewBuffer(0, -1)
}

func TestKindStrings(t *testing.T) {
	if PacketInjected.String() != "inject" || Kind(99).String() == "" {
		t.Error("Kind.String broken")
	}
}
