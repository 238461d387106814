package sim

import "sort"

// Event is a closure scheduled to run at a fixed instant. Events scheduled
// for the same instant run in the order they were scheduled (FIFO within a
// timestamp), which keeps runs deterministic regardless of heap internals.
type Event struct {
	At  Time
	Run func()

	seq int64 // tie-breaker for same-instant events
}

// Scheduler is a discrete-event executive. The zero value is ready to use.
//
// The network advances mostly cycle-by-cycle (the routers are synchronous),
// but link arrivals, DVS transitions and task-session boundaries land at
// arbitrary picosecond instants; those are what the event queue carries.
//
// The queue is a 4-ary min-heap ordered by (At, seq) with events stored
// inline in the slice: steady-state push/pop moves Event values only — no
// per-event heap allocation, no pointer boxing (the slice grows amortized
// when the pending count reaches a new high-water mark).
type Scheduler struct {
	now    Time
	queue  []Event
	nextID int64
}

// eventLess orders events by (At, seq): time order, FIFO within an instant.
func eventLess(a, b *Event) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	return a.seq < b.seq
}

// heapArity balances sift depth against per-level comparisons. A 4-ary heap
// halves the tree depth of a binary heap, and discrete-event queues pop far
// more than they reorder, so fewer levels win.
const heapArity = 4

// push appends e and restores the heap invariant bottom-up.
func (s *Scheduler) push(e Event) {
	s.queue = append(s.queue, e)
	i := len(s.queue) - 1
	for i > 0 {
		p := (i - 1) / heapArity
		if !eventLess(&s.queue[i], &s.queue[p]) {
			break
		}
		s.queue[i], s.queue[p] = s.queue[p], s.queue[i]
		i = p
	}
}

// pop removes and returns the minimum event.
func (s *Scheduler) pop() Event {
	top := s.queue[0]
	n := len(s.queue) - 1
	s.queue[0] = s.queue[n]
	s.queue[n] = Event{} // release the closure for the collector
	s.queue = s.queue[:n]
	i := 0
	for {
		min := i
		first := heapArity*i + 1
		last := first + heapArity
		if last > n {
			last = n
		}
		for c := first; c < last; c++ {
			if eventLess(&s.queue[c], &s.queue[min]) {
				min = c
			}
		}
		if min == i {
			break
		}
		s.queue[i], s.queue[min] = s.queue[min], s.queue[i]
		i = min
	}
	return top
}

// Now reports the current simulation instant.
func (s *Scheduler) Now() Time { return s.now }

// At schedules fn to run at instant t and returns the event's sequence
// number (the FIFO tie-breaker within an instant). Subsystems that need to
// re-create their pending events after a checkpoint restore record the
// returned value; everyone else ignores it. Scheduling in the past is a
// programming error and panics, because silently reordering causality makes
// simulation bugs unfindable.
func (s *Scheduler) At(t Time, fn func()) int64 {
	if t < s.now {
		panic("sim: event scheduled in the past")
	}
	s.nextID++
	s.push(Event{At: t, Run: fn, seq: s.nextID})
	return s.nextID
}

// AtSeq schedules fn at instant t under an explicit, previously issued
// sequence number. It exists solely for checkpoint restore: re-arming a
// captured pending event with its original (At, seq) key reproduces the
// exact dispatch order of the uninterrupted run. The sequence counter must
// already cover seq (see SetSeqCounter); handing out a fresh number here
// would desynchronize future At calls from the captured run.
func (s *Scheduler) AtSeq(t Time, seq int64, fn func()) {
	if t < s.now {
		panic("sim: event scheduled in the past")
	}
	if seq <= 0 || seq > s.nextID {
		panic("sim: AtSeq with a sequence number the counter never issued")
	}
	s.push(Event{At: t, Run: fn, seq: seq})
}

// SeqCounter reports the last sequence number issued by At/After.
func (s *Scheduler) SeqCounter() int64 { return s.nextID }

// SetSeqCounter restores the sequence counter on a fresh scheduler so a
// forked run issues the same sequence numbers the uninterrupted run would.
func (s *Scheduler) SetSeqCounter(v int64) {
	if v < s.nextID {
		panic("sim: sequence counter may not move backward")
	}
	s.nextID = v
}

// SetNow moves the clock of an idle scheduler (no queued events) to t, so a
// checkpoint restore can place a fresh scheduler at the capture instant
// before re-arming pending events via AtSeq.
func (s *Scheduler) SetNow(t Time) {
	if len(s.queue) != 0 {
		panic("sim: SetNow with events pending")
	}
	if t < s.now {
		panic("sim: clock may not move backward")
	}
	s.now = t
}

// PendingEvent identifies one queued event by its dispatch key. The closure
// itself is deliberately absent: checkpointing re-creates closures from
// their owning subsystem's state and uses these keys only to verify that
// every queued event is accounted for.
type PendingEvent struct {
	At  Time
	Seq int64
}

// PendingEvents reports the dispatch keys of all queued events in dispatch
// order.
func (s *Scheduler) PendingEvents() []PendingEvent {
	out := make([]PendingEvent, len(s.queue))
	for i, e := range s.queue {
		out[i] = PendingEvent{At: e.At, Seq: e.seq}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// Pending reports the number of queued events.
func (s *Scheduler) Pending() int { return len(s.queue) }

// PeekTime reports the instant of the earliest queued event, or Infinity if
// the queue is empty.
func (s *Scheduler) PeekTime() Time {
	if len(s.queue) == 0 {
		return Infinity
	}
	return s.queue[0].At
}

// RunUntil executes events in timestamp order until the queue is empty or
// the next event lies strictly beyond deadline. It returns the number of
// events executed and leaves Now at max(Now, deadline).
func (s *Scheduler) RunUntil(deadline Time) int {
	n := 0
	for len(s.queue) > 0 && s.queue[0].At <= deadline {
		ev := s.pop()
		s.now = ev.At
		ev.Run()
		n++
	}
	if s.now < deadline {
		s.now = deadline
	}
	return n
}

// Step executes the single earliest event, if any, and reports whether one
// ran.
func (s *Scheduler) Step() bool {
	if len(s.queue) == 0 {
		return false
	}
	ev := s.pop()
	s.now = ev.At
	ev.Run()
	return true
}
