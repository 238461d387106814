// Parallel experiment execution: the session's worker gate bounding
// concurrent simulations, the session's fan-out (fanOut), concurrent
// experiment execution (RunAll), and the singleflight memo type.
//
// Every simulation point is independent — each run builds its own network
// and its own seeded traffic model, so results do not depend on execution
// order. Parallel output is therefore bit-for-bit identical to sequential
// output: the runners fan the points out, wait for all of them, and
// assemble tables in the same fixed order as before. The cache layer
// deduplicates identical points across concurrent callers (singleflight):
// the first caller simulates, everyone else blocks on its completion.
//
// A fan-out runs its indices on the calling goroutine plus at most one
// helper per further worker slot, so a one-slot session starts no
// goroutine at all: a warm regeneration, which only reads the store, runs
// its whole sweep on the caller's stack.
package exp

import (
	"sync"
	"sync/atomic"

	"repro/internal/network"
)

// withSimSlot runs fn while holding one of the session's worker slots.
// Every simulation body in this package — cached or direct — funnels
// through it, and only the simulation bodies hold a slot: fan-outs
// (fanOut, RunAll) take none, so nesting them cannot exhaust the slots,
// and real concurrency is bounded by the session's worker count
// everywhere.
func (ses *Session) withSimSlot(fn func()) {
	if ses.walk != nil {
		// A prefetch walk must never simulate; count the leak so the walk
		// can fail loudly (and still run fn — a wrong result is worse than
		// a slow one if a caller ignores the error).
		ses.walk.sims.Add(1)
	}
	ses.slots <- struct{}{}
	defer func() { <-ses.slots }()
	fn()
}

// fanOut runs fn over n independent indices and returns when all have
// completed. The calling goroutine and at most min(n, workers)-1 helpers
// pull indices from a shared counter, so calls of fn in flight never
// exceed the session's worker count, and a one-slot session runs every
// index in order on the caller. fn must treat distinct indices as
// independent (no shared mutable state without synchronization); results
// keyed by index keep output order — and therefore rendered tables —
// identical to a sequential loop.
//
// Nested fan-outs cannot deadlock. Helpers hold no slot, and an index is
// only left unclaimed while the fan-out's own caller is still claiming, so
// every index runs unless one already running blocks for good. None does:
// a singleflight flight is computed by the goroutine that created it, and
// no slot holder waits on a flight whose owner still needs a slot — the
// flights awaited under a slot (warm snapshots, traces) take none to
// compute, and those whose computation takes one (results,
// characterization sets) are awaited only outside one.
func (ses *Session) fanOut(n int, fn func(i int)) {
	helpers := min(n, cap(ses.slots)) - 1
	if helpers <= 0 {
		for i := range n {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	claim := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i)
		}
	}
	var wg sync.WaitGroup
	wg.Add(helpers)
	// A panic on the caller stops the fan-out: helpers finish the index
	// they are running and claim no other, and the panic unwinds only once
	// they are done, so nothing touches the caller's state after it
	// recovers.
	defer func() {
		next.Store(int64(n))
		wg.Wait()
	}()
	for range helpers {
		go func() {
			defer wg.Done()
			claim()
		}()
	}
	claim()
}

// RunAll executes several experiments concurrently and returns each one's
// tables in input order. Unknown ids and exclusive budgets fail up front,
// before any simulation starts. Experiments share the session's memos, so
// points common to several artifacts (fig10 and headline, say) still
// simulate once.
func (ses *Session) RunAll(ids []string, o Options) ([][]Table, error) {
	rs, err := runners(ids, o)
	if err != nil {
		return nil, err
	}
	out := make([][]Table, len(ids))
	ses.fanOut(len(ids), func(i int) { out[i] = rs[i](ses, o) })
	return out, nil
}

// flight is one singleflight cache slot: done closes when val is ready,
// and cost is what the slot charges its cache from then on.
type flight[V any] struct {
	done chan struct{}
	val  V
	cost int64
}

// sfCache is a concurrency-safe, singleflight, size-capped memo table.
// Concurrent requests for one key run the compute function once; the
// others block until it finishes. Each completed entry costs cost(val), or
// 1 when cost is nil; once completed entries together cost more than cap,
// the oldest are evicted until they fit. In-flight entries cost nothing
// and are never evicted, nor is the entry that has just completed, so one
// entry larger than the cap is still shared until the next one completes.
type sfCache[K comparable, V any] struct {
	mu      sync.Mutex
	entries map[K]*flight[V]
	order   []K // insertion order, for eviction
	cap     int64
	cost    func(V) int64
	total   int64 // cost of the completed entries
}

func newSFCache[K comparable, V any](capacity int64) *sfCache[K, V] {
	return &sfCache[K, V]{entries: make(map[K]*flight[V]), cap: capacity}
}

// do returns the cached value for key, computing it via fn if absent. fn
// runs outside the cache lock; duplicate concurrent keys wait on the first.
func (c *sfCache[K, V]) do(key K, fn func() V) V {
	c.mu.Lock()
	if f, ok := c.entries[key]; ok {
		c.mu.Unlock()
		<-f.done
		return f.val
	}
	f := &flight[V]{done: make(chan struct{})}
	c.entries[key] = f
	c.order = append(c.order, key)
	c.mu.Unlock()

	f.val = fn()
	f.cost = 1
	if c.cost != nil {
		f.cost = c.cost(f.val)
	}
	c.mu.Lock()
	close(f.done)
	c.total += f.cost
	c.evictLocked(f)
	c.mu.Unlock()
	return f.val
}

// evictLocked drops the oldest completed entries other than keep until
// the cap holds.
func (c *sfCache[K, V]) evictLocked(keep *flight[V]) {
	if c.cap <= 0 || c.total <= c.cap {
		return
	}
	kept := c.order[:0]
	for i, key := range c.order {
		if c.total <= c.cap {
			kept = append(kept, c.order[i:]...)
			break
		}
		f := c.entries[key]
		select {
		case <-f.done:
			if f != keep {
				delete(c.entries, key)
				c.total -= f.cost
				continue
			}
		default: // in flight: its cost is not charged yet
		}
		kept = append(kept, key)
	}
	c.order = kept
}

// runCacheCap bounds the memoized simulation results. A full `-exp all`
// regeneration touches ~120 distinct points; the cap leaves generous
// headroom while bounding long-lived processes that sweep many seeds.
const runCacheCap = 1024

// sweep simulates every spec across the session's worker slots and
// returns results in spec order.
func (ses *Session) sweep(o Options, specs []spec) []network.Results {
	out := make([]network.Results, len(specs))
	ses.fanOut(len(specs), func(i int) { out[i] = ses.run(specs[i], o) })
	return out
}
