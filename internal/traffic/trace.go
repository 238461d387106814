// Memoized traffic traces. Generating two-level self-similar traffic costs
// Pareto draws for every ON/OFF period of every session and heap work for
// every spawn and emission, and every policy-ablation point at one (seed,
// rate, horizon) regenerates the identical arrival sequence — the model's
// randomness is independent of the network it drives. Capture runs the model once and encodes the arrivals
// directly into the tracestore wire form (delta varints, ~5 bytes per
// arrival instead of a 24-byte struct); the resulting Trace is an
// immutable Model that replays them with zero steady-state allocation,
// shared read-only across concurrent sweeps.
//
// Replay streams: each Replay walks the encoded blocks through a private
// cursor holding one decoded block (tracestore.DefaultBlockLen records) at
// a time, so replay memory is independent of trace length. That is what
// lets the per-trace budget sit at tens of millions of arrivals — enough
// for every -full figure point — where the materialized-slice design
// before it capped out at 1.5M.
package traffic

import (
	"fmt"
	"sync"

	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic/tracestore"
)

// Arrival is one recorded packet injection — an alias of the tracestore
// record so captures encode without conversion.
type Arrival = tracestore.Record

// Trace is a recorded injection schedule. It implements Model: Launch
// replays the arrivals through a chained batch-event walk (one scheduler
// event per distinct timestamp), preserving the pre-scheduled-chain
// contract that quiescent fast-forward depends on. A Trace is immutable
// after Capture and safe to share across concurrently running simulations:
// all mutable decode state lives in per-Replay cursors.
type Trace struct {
	enc *tracestore.Encoded

	// atMu guards atCur, the lazily-seeded cursor backing the random-access
	// At. Replays never touch it.
	atMu  sync.Mutex
	atCur cursor
}

// FromEncoded wraps a decoded trace.
func FromEncoded(enc *tracestore.Encoded) *Trace { return &Trace{enc: enc} }

// Encoded exposes the wire-form trace.
func (t *Trace) Encoded() *tracestore.Encoded { return t.enc }

// Name implements Model; it reports the captured model's name so
// experiment output is identical whether a point ran live or from a trace.
func (t *Trace) Name() string { return t.enc.Name() }

// Len reports the number of recorded arrivals.
func (t *Trace) Len() int { return t.enc.Len() }

// Horizon reports the horizon the trace was captured with.
func (t *Trace) Horizon() sim.Time { return t.enc.Horizon() }

// At returns the i-th recorded arrival. Random access costs at most one
// block decode (amortized nothing for sequential i); it exists for
// checkpoint validation and tests — replays stream through their own
// cursors.
func (t *Trace) At(i int) Arrival {
	t.atMu.Lock()
	defer t.atMu.Unlock()
	if t.atCur.enc == nil {
		t.atCur.enc = t.enc
	}
	return t.atCur.at(i)
}

// cursor is a streaming window over an encoded trace: one decoded block,
// re-loaded on demand as the index moves. A private cursor decodes into
// its own reused buffer; a shared cursor borrows read-only blocks from the
// trace's shared decoded-block cache, so N concurrent replays of one trace
// decode each block once between them instead of once each. Sequential
// walks load each block exactly once; a seek (checkpoint resume) costs one
// block load.
type cursor struct {
	enc    *tracestore.Encoded
	shared bool // borrow blocks from the shared cache instead of decoding
	base   int  // index of buf[0]
	buf    []Arrival
}

func (c *cursor) at(i int) Arrival {
	if i < c.base || i >= c.base+len(c.buf) {
		c.load(i / c.enc.BlockLen())
	}
	return c.buf[i-c.base]
}

func (c *cursor) load(block int) {
	var buf []Arrival
	var err error
	if c.shared {
		// The shared slice is read-only and must never be handed back to
		// DecodeBlock as scratch; at() only ever reads it.
		buf, err = c.enc.SharedBlock(block)
	} else {
		buf, err = c.enc.DecodeBlock(block, c.buf)
	}
	if err != nil {
		// Unreachable for decoded traces (Decode verified the checksum)
		// and for captures (we encoded them); reaching it means
		// memory corruption, not bad input.
		panic(fmt.Sprintf("traffic: trace block %d undecodable: %v", block, err))
	}
	c.buf = buf
	c.base = block * c.enc.BlockLen()
}

// Capture records every injection m makes up to horizon, encoding
// incrementally (a two-level model drains straight into the encoder, any
// other runs against a private scheduler). The recorded sequence is exactly
// the sequence the model would deliver to a live network: models consume
// only their own RNG state and their own event times, never network state.
func Capture(m Model, horizon sim.Time) *Trace {
	e := tracestore.NewEncoder(m.Name(), horizon)
	if tl, ok := m.(*TwoLevel); ok {
		g := tl.start(0, horizon)
		for a, ok := g.next(); ok; a, ok = g.next() {
			e.Append(a)
		}
		return &Trace{enc: e.Finish()}
	}
	var sched sim.Scheduler
	m.Launch(&sched, horizon, func(src, dst int, now sim.Time, task int64) {
		e.Append(Arrival{At: now, Task: task, Src: int32(src), Dst: int32(dst)})
	})
	sched.RunUntil(horizon)
	return &Trace{enc: e.Finish()}
}

// Replay walks a trace's arrivals as a chained scheduler event: each firing
// injects every arrival sharing the current timestamp, then arms itself for
// the next distinct timestamp. One closure and one block cursor are
// allocated per Launch; the steady state allocates nothing beyond block
// re-decodes into the cursor's reused buffer. The handle exposes the walk's
// progress so a checkpoint can capture it: the chain's full state is the
// next arrival index plus the pending event's dispatch key (the pending
// instant is always the next arrival's timestamp).
type Replay struct {
	tr      *Trace
	sched   *sim.Scheduler
	inject  Injector
	cur     cursor
	i       int
	step    func()
	pendSeq int64
}

// Progress reports the index of the next arrival to inject and, when the
// chain is still live (index < Len), the dispatch key of its pending
// scheduler event.
func (r *Replay) Progress() (index int, pendAt sim.Time, pendSeq int64) {
	if r.i < r.tr.Len() {
		return r.i, r.cur.at(r.i).At, r.pendSeq
	}
	return r.i, 0, 0
}

// Done reports whether every arrival has been injected.
func (r *Replay) Done() bool { return r.i >= r.tr.Len() }

// Trace reports the trace the replay walks.
func (r *Replay) Trace() *Trace { return r.tr }

func (t *Trace) newReplay(sched *sim.Scheduler, inject Injector) *Replay {
	// A plain replay has exactly one cursor streaming the trace, so it keeps
	// the private reused decode buffer (zero steady-state allocations). Only
	// the filtered walk goes through the shared cache: that is the path N
	// tile cursors use to stream one trace concurrently.
	r := &Replay{tr: t, sched: sched, inject: inject, cur: cursor{enc: t.enc}}
	n := t.Len()
	r.step = func() {
		i := r.i
		at := r.cur.at(i).At
		for i < n {
			a := r.cur.at(i)
			if a.At != at {
				break
			}
			r.inject(int(a.Src), int(a.Dst), at, a.Task)
			i++
		}
		r.i = i
		if i < n {
			r.pendSeq = r.sched.At(r.cur.at(i).At, r.step)
		}
	}
	return r
}

// Launch implements Model. The horizon must equal the capture horizon:
// models consult the horizon when arming their chains, so replaying a
// trace against a different horizon would not match a live run.
func (t *Trace) Launch(sched *sim.Scheduler, horizon sim.Time, inject Injector) {
	t.LaunchReplay(sched, horizon, inject)
}

// LaunchReplay is Launch returning the replay handle, so the network can
// checkpoint the walk's progress. The handle is non-nil even for an empty
// trace (the chain is born done).
func (t *Trace) LaunchReplay(sched *sim.Scheduler, horizon sim.Time, inject Injector) *Replay {
	if horizon != t.Horizon() {
		panic(fmt.Sprintf("traffic: trace captured for horizon %v replayed with %v", t.Horizon(), horizon))
	}
	r := t.newReplay(sched, inject)
	if t.Len() > 0 {
		r.pendSeq = sched.At(r.cur.at(0).At, r.step)
	}
	return r
}

// LaunchReplayFiltered replays only the arrivals whose source node
// satisfies keep, as a chained batch-event walk on sched. The chain skips
// timestamps with no kept arrivals entirely, so a tile's scheduler sees
// events only at the instants its own sources inject — the per-tile
// projection of the recorded schedule, in recorded order. Kept arrivals are
// injected with exactly the timestamps and relative order of LaunchReplay;
// the horizon contract is the same.
func (t *Trace) LaunchReplayFiltered(sched *sim.Scheduler, horizon sim.Time, inject Injector, keep func(src int) bool) *Replay {
	if horizon != t.Horizon() {
		panic(fmt.Sprintf("traffic: trace captured for horizon %v replayed with %v", t.Horizon(), horizon))
	}
	r := &Replay{tr: t, sched: sched, inject: inject, cur: cursor{enc: t.enc, shared: true}}
	n := t.Len()
	next := func(i int) int {
		for i < n && !keep(int(r.cur.at(i).Src)) {
			i++
		}
		return i
	}
	r.step = func() {
		i := r.i
		at := r.cur.at(i).At
		for i < n {
			a := r.cur.at(i)
			if a.At != at {
				break
			}
			if keep(int(a.Src)) {
				r.inject(int(a.Src), int(a.Dst), at, a.Task)
			}
			i++
		}
		r.i = next(i)
		if r.i < n {
			r.pendSeq = r.sched.At(r.cur.at(r.i).At, r.step)
		}
	}
	r.i = next(0)
	if r.i < n {
		r.pendSeq = sched.At(r.cur.at(r.i).At, r.step)
	}
	return r
}

// Resume rebuilds a replay chain mid-walk from checkpointed progress:
// arrivals before index are considered injected, and when index < Len the
// chain's event is re-armed under the captured dispatch key pendSeq (via
// sim.Scheduler.AtSeq) at the next arrival's timestamp.
func (t *Trace) Resume(sched *sim.Scheduler, inject Injector, index int, pendSeq int64) (*Replay, error) {
	if index < 0 || index > t.Len() {
		return nil, fmt.Errorf("traffic: resume index %d outside [0,%d]", index, t.Len())
	}
	r := t.newReplay(sched, inject)
	r.i = index
	if index < t.Len() {
		if pendSeq <= 0 {
			return nil, fmt.Errorf("traffic: resume at live index %d without a pending event seq", index)
		}
		r.pendSeq = pendSeq
		sched.AtSeq(r.cur.at(index).At, pendSeq, r.step)
	}
	return r, nil
}

// Trace cache: policy ablations sweep many (policy, threshold) variants
// over the same (seed, rate, pattern, horizon) workload; the cache lets
// them all share one captured trace. Budgets are in arrivals, but an
// arrival now costs ~5 encoded bytes, not a 24-byte struct, and replay
// streams block-by-block — so the budgets sit two orders of magnitude
// above the old materialized-slice limits and cover every -full figure
// point (rate 8.0 at the full measurement horizon is the one production
// workload left out; it falls back to the live model, with a stderr note
// from the harness). The cache evicts oldest-first once completed traces
// together exceed totalTraceArrivalBudget.
const (
	perTraceArrivalBudget   = 64_000_000
	totalTraceArrivalBudget = 192_000_000
)

// twoLevelTraceEligible reports whether a workload fits the per-trace
// budget and, when it does not, why.
func twoLevelTraceEligible(p TwoLevelParams, horizon sim.Time) (ok bool, reason string) {
	if p.CyclePeriod <= 0 {
		return false, "two-level cycle period is not positive"
	}
	cycles := float64(horizon) / float64(p.CyclePeriod)
	if est := p.TotalRate * cycles; est > perTraceArrivalBudget {
		return false, fmt.Sprintf("estimated %.0f arrivals exceed the %d-arrival per-trace budget", est, perTraceArrivalBudget)
	}
	return true, ""
}

// traceKey identifies one two-level workload: the full parameter set, the
// topology shape, and the horizon.
type traceKey struct {
	p       TwoLevelParams
	k, n    int
	torus   bool
	horizon sim.Time
}

// traceFlight is one singleflight slot: done closes when tr is ready.
// tr stays nil (and reason says why) when no trace could be produced.
type traceFlight struct {
	done   chan struct{}
	tr     *Trace
	reason string
}

var traceCache struct {
	mu      sync.Mutex
	entries map[traceKey]*traceFlight
	order   []traceKey // insertion order, for eviction
	total   int64      // arrivals across completed entries
}

// SharedTwoLevelTrace returns the memoized trace for a two-level workload,
// capturing it on first request. Concurrent callers asking for the same
// key share one capture (singleflight). It returns a nil trace — caller
// should run the live model — when the estimated trace size exceeds the
// per-trace budget or the model cannot be built; reason then says why, in
// terms fit for the harness's fallback note.
func SharedTwoLevelTrace(p TwoLevelParams, topo *topology.Cube, horizon sim.Time) (tr *Trace, reason string) {
	if ok, why := twoLevelTraceEligible(p, horizon); !ok {
		return nil, why
	}
	key := traceKey{p: p, k: topo.K(), n: topo.N(), torus: topo.Torus(), horizon: horizon}

	traceCache.mu.Lock()
	if f, ok := traceCache.entries[key]; ok {
		traceCache.mu.Unlock()
		<-f.done
		return f.tr, f.reason
	}
	if traceCache.entries == nil {
		traceCache.entries = make(map[traceKey]*traceFlight)
	}
	f := &traceFlight{done: make(chan struct{})}
	traceCache.entries[key] = f
	traceCache.order = append(traceCache.order, key)
	traceCache.mu.Unlock()

	if m, err := NewTwoLevel(p, topo); err == nil {
		f.tr = Capture(m, horizon)
	} else {
		f.reason = fmt.Sprintf("two-level model construction failed: %v", err)
	}
	traceCache.mu.Lock()
	if f.tr != nil {
		traceCache.total += int64(f.tr.Len())
	}
	evictTracesLocked(key)
	traceCache.mu.Unlock()
	close(f.done)
	return f.tr, f.reason
}

// evictTracesLocked drops the oldest completed traces (never the one just
// inserted) until the total arrival budget holds. Evicted traces stay valid
// for holders of the pointer; they are simply no longer shared.
func evictTracesLocked(keep traceKey) {
	if traceCache.total <= totalTraceArrivalBudget {
		return
	}
	kept := traceCache.order[:0]
	for i, key := range traceCache.order {
		f, ok := traceCache.entries[key]
		evict := ok && key != keep && traceCache.total > totalTraceArrivalBudget
		if evict {
			select {
			case <-f.done: // completed: safe to drop
			default:
				evict = false // in flight: its size is unknown
			}
		}
		if evict {
			delete(traceCache.entries, key)
			if f.tr != nil {
				traceCache.total -= int64(f.tr.Len())
			}
		} else if ok {
			kept = append(kept, key)
		}
		if traceCache.total <= totalTraceArrivalBudget {
			kept = append(kept, traceCache.order[i+1:]...)
			break
		}
	}
	traceCache.order = kept
}

// ResetTraceCache drops every memoized trace. Tests and benchmarks use it
// to measure real capture work or to force live-model runs.
func ResetTraceCache() {
	traceCache.mu.Lock()
	traceCache.entries = nil
	traceCache.order = nil
	traceCache.total = 0
	traceCache.mu.Unlock()
}
