// Parallel experiment execution: a worker-pool gate bounding concurrent
// simulations, a goroutine fan-out helper (Sweep), concurrent experiment
// execution (RunAll), and singleflight-backed result caches.
//
// Every simulation point is independent — each run builds its own network
// and its own seeded traffic model, so results do not depend on execution
// order. Parallel output is therefore bit-for-bit identical to sequential
// output: the runners fan the points out, wait for all of them, and
// assemble tables in the same fixed order as before. The cache layer
// deduplicates identical points across concurrent callers (singleflight):
// the first caller simulates, everyone else blocks on its completion.
package exp

import (
	"runtime"
	"sync"

	"repro/internal/network"
	"repro/internal/traffic"
)

// pool gates the number of simulations actually executing at once. Fan-out
// layers (Sweep, RunAll) spawn goroutines freely; only the simulation
// bodies hold a slot, so nested fan-outs cannot deadlock and real
// concurrency is bounded by Parallelism() everywhere.
var pool = struct {
	mu    sync.Mutex
	cond  *sync.Cond
	limit int // 0 means GOMAXPROCS
	busy  int
}{}

func init() { pool.cond = sync.NewCond(&pool.mu) }

// SetParallelism bounds the number of concurrently executing simulations.
// j <= 0 restores the default, GOMAXPROCS. It is safe to call while runs
// are in flight; the new bound applies as slots free up.
func SetParallelism(j int) {
	pool.mu.Lock()
	if j < 0 {
		j = 0
	}
	pool.limit = j
	pool.mu.Unlock()
	pool.cond.Broadcast()
}

// Parallelism reports the current simulation concurrency bound.
func Parallelism() int {
	pool.mu.Lock()
	defer pool.mu.Unlock()
	if pool.limit == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return pool.limit
}

// withSimSlot runs fn while holding one worker slot. Every simulation body
// in this package — cached or direct — funnels through it.
func withSimSlot(fn func()) {
	if ps := prefetchRec.Load(); ps != nil {
		// A prefetch walk must never simulate; count the leak so the walk
		// can fail loudly (and still run fn — a wrong result is worse than
		// a slow one if a caller ignores the error).
		ps.sims.Add(1)
	}
	pool.mu.Lock()
	for {
		limit := pool.limit
		if limit == 0 {
			limit = runtime.GOMAXPROCS(0)
		}
		if pool.busy < limit {
			break
		}
		pool.cond.Wait()
	}
	pool.busy++
	pool.mu.Unlock()
	defer func() {
		pool.mu.Lock()
		pool.busy--
		pool.mu.Unlock()
		pool.cond.Broadcast()
	}()
	fn()
}

// Sweep fans fn over n independent indices, one goroutine each, and blocks
// until all complete. Concurrency of the underlying simulations is bounded
// by the worker pool, not by n, so callers may sweep whole cross-products.
// fn must treat distinct indices as independent (no shared mutable state
// without synchronization); results keyed by index keep output order — and
// therefore rendered tables — identical to a sequential loop.
func Sweep(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if n == 1 {
		fn(0)
		return
	}
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			fn(i)
		}(i)
	}
	wg.Wait()
}

// RunAll executes several experiments concurrently and returns each one's
// tables in input order. Unknown ids and exclusive budgets fail up front,
// before any simulation starts. Experiments share the process-wide run
// cache, so points common to several artifacts (fig10 and headline, say)
// still simulate once.
func RunAll(ids []string, o Options) ([][]Table, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	runners := make([]Runner, len(ids))
	for i, id := range ids {
		r, ok := registry[id]
		if !ok {
			return nil, unknownExperiment(id)
		}
		runners[i] = r
	}
	out := make([][]Table, len(ids))
	Sweep(len(ids), func(i int) { out[i] = runners[i](o) })
	return out, nil
}

// flight is one singleflight cache slot: done closes when val is ready.
type flight[V any] struct {
	done chan struct{}
	val  V
}

// sfCache is a concurrency-safe, singleflight, size-capped memo table.
// Concurrent requests for one key run the compute function once; the
// others block until it finishes. Completed entries beyond the cap are
// evicted oldest-first (in-flight entries are never evicted).
type sfCache[K comparable, V any] struct {
	mu      sync.Mutex
	entries map[K]*flight[V]
	order   []K // insertion order, for eviction
	cap     int
}

func newSFCache[K comparable, V any](capacity int) *sfCache[K, V] {
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
	c.evictLocked()
	c.mu.Unlock()

	f.val = fn()
	close(f.done)
	return f.val
}

// evictLocked drops the oldest completed entries until the cap holds.
func (c *sfCache[K, V]) evictLocked() {
	if c.cap <= 0 || len(c.entries) <= c.cap {
		return
	}
	kept := c.order[:0]
	for i, key := range c.order {
		f, ok := c.entries[key]
		if !ok {
			continue // already evicted
		}
		evictable := len(c.entries) > c.cap
		if evictable {
			select {
			case <-f.done: // completed: safe to drop
			default:
				evictable = false // in flight: keep
			}
		}
		if evictable {
			delete(c.entries, key)
		} else {
			kept = append(kept, key)
		}
		if len(c.entries) <= c.cap {
			kept = append(kept, c.order[i+1:]...)
			break
		}
	}
	c.order = kept
}

// reset drops every cached entry. Only for tests and benchmarks that need
// to re-simulate points deliberately; racing it against in-flight runs is
// safe (waiters keep their flight pointers) but wastes work.
func (c *sfCache[K, V]) reset() {
	c.mu.Lock()
	c.entries = make(map[K]*flight[V])
	c.order = nil
	c.mu.Unlock()
}

// runCacheCap bounds the memoized simulation results. A full `-exp all`
// regeneration touches ~120 distinct points; the cap leaves generous
// headroom while bounding long-lived processes that sweep many seeds.
const runCacheCap = 1024

// runCache memoizes simulation runs so experiments that share operating
// points — fig10 and headline, for example — simulate once per process.
var runCache = newSFCache[string, network.Results](runCacheCap)

// measureCache memoizes the Section 3.1 characterization runs so fig3,
// fig4 and fig5 share one simulation set per options value.
var measureCache = newSFCache[Options, *measureSet](16)

// ResetCaches drops all memoized simulation results, forcing subsequent
// runs to re-simulate. Benchmarks use it to measure real work per
// iteration; the determinism tests use it to exercise the parallel path.
func ResetCaches() {
	runCache.reset()
	measureCache.reset()
	warmSnaps.reset()
	traffic.ResetTraceCache()
}

// sweepSpecs simulates every spec across the worker pool and returns
// results in spec order.
func sweepSpecs(o Options, specs []spec) []network.Results {
	out := make([]network.Results, len(specs))
	Sweep(len(specs), func(i int) { out[i] = run(specs[i], o) })
	return out
}
