package sim

import "testing"

func TestSchedulerOrdersByTime(t *testing.T) {
	var s Scheduler
	var got []int
	s.At(300, func() { got = append(got, 3) })
	s.At(100, func() { got = append(got, 1) })
	s.At(200, func() { got = append(got, 2) })
	s.RunUntil(1000)
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != 1000 {
		t.Errorf("Now = %d, want 1000", s.Now())
	}
}

func TestSchedulerFIFOWithinInstant(t *testing.T) {
	var s Scheduler
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(500, func() { got = append(got, i) })
	}
	s.RunUntil(500)
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-instant order not FIFO: %v", got)
		}
	}
}

func TestSchedulerRunUntilStopsAtDeadline(t *testing.T) {
	var s Scheduler
	ran := false
	s.At(1000, func() { ran = true })
	n := s.RunUntil(999)
	if n != 0 || ran {
		t.Fatalf("event beyond deadline ran (n=%d, ran=%v)", n, ran)
	}
	if s.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", s.Pending())
	}
	s.RunUntil(1000)
	if !ran {
		t.Error("event at deadline did not run")
	}
}

func TestSchedulerEventsCanScheduleEvents(t *testing.T) {
	var s Scheduler
	count := 0
	var chain func()
	chain = func() {
		count++
		if count < 5 {
			s.At(s.Now()+10, chain)
		}
	}
	s.At(0, chain)
	s.RunUntil(100)
	if count != 5 {
		t.Errorf("chain ran %d times, want 5", count)
	}
}

func TestSchedulerPastPanics(t *testing.T) {
	var s Scheduler
	s.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		s.At(50, func() {})
	})
	s.RunUntil(200)
}

func TestSchedulerPeekAndStep(t *testing.T) {
	var s Scheduler
	if s.PeekTime() != Infinity {
		t.Error("empty PeekTime should be Infinity")
	}
	s.At(42, func() {})
	if s.PeekTime() != 42 {
		t.Errorf("PeekTime = %d, want 42", s.PeekTime())
	}
	if !s.Step() {
		t.Error("Step should run the event")
	}
	if s.Step() {
		t.Error("Step on empty queue should report false")
	}
}

// TestSchedulerHeapStress drives the 4-ary heap through adversarial
// push/pop interleavings — duplicate timestamps, descending inserts, bulk
// drains — and checks the dequeue order is the fully sorted (At, seq)
// order.
func TestSchedulerHeapStress(t *testing.T) {
	rng := NewRNG(7)
	var s Scheduler
	type rec struct {
		at  Time
		seq int
	}
	var got []rec
	pending := 0
	seq := 0
	for round := 0; round < 200; round++ {
		// A burst of inserts, many sharing instants.
		burst := 1 + rng.Intn(8)
		for b := 0; b < burst; b++ {
			at := s.Now() + Time(rng.Intn(5)) // heavy timestamp collisions
			seq++
			mySeq := seq
			s.At(at, func() { got = append(got, rec{at, mySeq}) })
			pending++
		}
		// Drain a random prefix one Step at a time.
		drain := rng.Intn(pending + 1)
		for d := 0; d < drain; d++ {
			if !s.Step() {
				t.Fatal("Step reported empty with events pending")
			}
			pending--
		}
	}
	s.RunUntil(s.Now() + Infinity/2)
	if len(got) != seq {
		t.Fatalf("executed %d events, scheduled %d", len(got), seq)
	}
	for i := 1; i < len(got); i++ {
		if got[i].at < got[i-1].at ||
			(got[i].at == got[i-1].at && got[i].seq < got[i-1].seq) {
			t.Fatalf("order violated at %d: %v after %v", i, got[i], got[i-1])
		}
	}
}

// BenchmarkSchedulerPushPop measures the steady-state cost of one
// schedule+dispatch pair with ~1k events pending: this is the simulation
// kernel's hot path. The inline 4-ary heap must not allocate per event.
func BenchmarkSchedulerPushPop(b *testing.B) {
	var s Scheduler
	fn := func() {}
	for i := 0; i < 1024; i++ {
		s.At(Time(i), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.At(s.Now()+Time(i%64)+1, fn)
		s.Step()
	}
}

// TestSchedulerOrderProperty: random interleaved schedules always execute
// in nondecreasing time order, FIFO within an instant.
func TestSchedulerOrderProperty(t *testing.T) {
	rng := NewRNG(31)
	var s Scheduler
	type rec struct {
		at  Time
		seq int
	}
	var got []rec
	seq := 0
	for i := 0; i < 500; i++ {
		at := s.Now() + Time(rng.Intn(100))
		seq++
		mySeq := seq
		s.At(at, func() { got = append(got, rec{at, mySeq}) })
		if rng.Intn(3) == 0 {
			s.RunUntil(s.Now() + Time(rng.Intn(50)))
		}
	}
	s.RunUntil(s.Now() + 1000)
	for i := 1; i < len(got); i++ {
		if got[i].at < got[i-1].at {
			t.Fatalf("time order violated at %d: %v after %v", i, got[i], got[i-1])
		}
		if got[i].at == got[i-1].at && got[i].seq < got[i-1].seq {
			t.Fatalf("FIFO violated at %d", i)
		}
	}
	if len(got) != 500 {
		t.Errorf("executed %d events, want 500", len(got))
	}
}
