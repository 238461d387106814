package exp

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// renderIDs regenerates the given experiments from an empty cache and
// returns the concatenated rendered tables.
func renderIDs(t *testing.T, ids []string, o Options) string {
	t.Helper()
	ResetCaches()
	var buf bytes.Buffer
	tabs, err := RunAll(ids, o)
	if err != nil {
		t.Fatal(err)
	}
	for _, exp := range tabs {
		for _, tab := range exp {
			tab.Fprint(&buf)
		}
	}
	return buf.String()
}

// TestParallelDeterminism is the core guarantee of the parallel executor:
// regenerating fig10 and fig13 at three distinct parallelism levels, each
// from a cold cache, produces byte-identical tables. Every simulation
// point seeds its own RNG streams and builds its own network, so execution
// order cannot leak into results. Since the shared-trace path is on by
// default, this also proves concurrent sweeps racing on the trace cache
// (singleflight capture, shared read-only replay) stay deterministic.
func TestParallelDeterminism(t *testing.T) {
	tinyBudget = true
	defer func() { tinyBudget = false; ResetCaches() }()
	defer SetParallelism(0)

	ids := []string{"fig10", "fig13"}
	o := Options{Quick: true}

	SetParallelism(1)
	sequential := renderIDs(t, ids, o)
	if !strings.Contains(sequential, "Figure 10(a)") || !strings.Contains(sequential, "Figure 13") {
		t.Fatalf("reference output incomplete:\n%s", sequential)
	}
	for _, j := range []int{2, 8} {
		SetParallelism(j)
		if got := renderIDs(t, ids, o); got != sequential {
			t.Errorf("-j %d output differs from sequential output\n--- j=%d ---\n%s\n--- j=1 ---\n%s",
				j, j, got, sequential)
		}
	}
}

// TestTraceMemoEquivalence proves the memoized-trace fast path changes
// nothing observable: regenerating the same experiments with trace sharing
// disabled (every point regenerates its workload live) produces
// byte-identical tables. fig10/fig13 sweep several policies over shared
// operating points, so the memoized run exercises real trace reuse.
func TestTraceMemoEquivalence(t *testing.T) {
	tinyBudget = true
	defer func() { tinyBudget = false; noTraceMemo = false; ResetCaches() }()

	ids := []string{"fig10", "fig13"}
	o := Options{Quick: true}

	noTraceMemo = false
	memoized := renderIDs(t, ids, o)
	noTraceMemo = true
	live := renderIDs(t, ids, o)
	if memoized != live {
		t.Errorf("memoized traces change results\n--- memoized ---\n%s\n--- live ---\n%s",
			memoized, live)
	}
}

// TestRunAllMatchesRun: RunAll returns exactly what id-by-id Run returns,
// in input order.
func TestRunAllMatchesRun(t *testing.T) {
	ids := []string{"tab2", "tab1", "fig7"}
	all, err := RunAll(ids, quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(ids) {
		t.Fatalf("RunAll returned %d results for %d ids", len(all), len(ids))
	}
	for i, id := range ids {
		want, err := Run(id, quick)
		if err != nil {
			t.Fatal(err)
		}
		var a, b bytes.Buffer
		for _, tab := range all[i] {
			tab.Fprint(&a)
		}
		for _, tab := range want {
			tab.Fprint(&b)
		}
		if a.String() != b.String() {
			t.Errorf("RunAll[%d] (%s) differs from Run(%s)", i, id, id)
		}
	}
}

func TestRunAllUnknownID(t *testing.T) {
	if _, err := RunAll([]string{"tab1", "nope"}, quick); err == nil {
		t.Error("unknown id accepted")
	}
}

// TestPointConcurrent hammers the public Point entry from many goroutines:
// the old plain-map caches raced here; the singleflight cache must both
// survive the race detector and return identical results everywhere.
func TestPointConcurrent(t *testing.T) {
	tinyBudget = true
	defer func() { tinyBudget = false; ResetCaches() }()
	ResetCaches()

	reference := Point(1.0, network.PolicyHistory, quick)
	const goroutines = 16
	var wg sync.WaitGroup
	results := make([]network.Results, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g] = Point(1.0, network.PolicyHistory, quick)
		}(g)
	}
	wg.Wait()
	for g, r := range results {
		if r != reference {
			t.Errorf("goroutine %d saw different results: %+v vs %+v", g, r, reference)
		}
	}
}

// TestSweepRunsAllIndices: every index runs exactly once even when n far
// exceeds the worker bound.
func TestSweepRunsAllIndices(t *testing.T) {
	SetParallelism(3)
	defer SetParallelism(0)
	const n = 100
	hits := make([]int, n)
	var mu sync.Mutex
	Sweep(n, func(i int) {
		withSimSlot(func() {
			mu.Lock()
			hits[i]++
			mu.Unlock()
		})
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d ran %d times", i, h)
		}
	}
}

// TestSFCacheSingleflight: concurrent requests for one key compute once.
func TestSFCacheSingleflight(t *testing.T) {
	c := newSFCache[string, int](8)
	var computes int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v := c.do("k", func() int {
				mu.Lock()
				computes++
				mu.Unlock()
				return 42
			})
			if v != 42 {
				t.Errorf("got %d, want 42", v)
			}
		}()
	}
	wg.Wait()
	if computes != 1 {
		t.Errorf("computed %d times, want 1 (singleflight)", computes)
	}
}

// TestSFCacheEviction: the cache never exceeds its cap with completed
// entries, evicts oldest-first, and recomputes evicted keys.
func TestSFCacheEviction(t *testing.T) {
	c := newSFCache[int, int](4)
	computes := make(map[int]int)
	get := func(k int) int {
		return c.do(k, func() int {
			computes[k]++
			return k * 10
		})
	}
	for k := 0; k < 10; k++ {
		if got := get(k); got != k*10 {
			t.Fatalf("get(%d) = %d", k, got)
		}
	}
	if n := len(c.entries); n > 4 {
		t.Errorf("cache holds %d entries, cap 4", n)
	}
	// Key 0 was evicted long ago: fetching it recomputes.
	get(0)
	if computes[0] != 2 {
		t.Errorf("evicted key recomputed %d times, want 2", computes[0])
	}
	// A recent key is still cached.
	get(9)
	if computes[9] != 1 {
		t.Errorf("recent key computed %d times, want 1", computes[9])
	}
}

// checkTotal requires the cache's running total to equal the cost of its
// completed entries.
func checkTotal[K comparable, V any](t *testing.T, c *sfCache[K, V]) int64 {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	var sum int64
	for _, f := range c.entries {
		select {
		case <-f.done:
			sum += f.cost
		default:
		}
	}
	if sum != c.total {
		t.Errorf("total = %d, completed entries cost %d", c.total, sum)
	}
	return sum
}

// TestSFCacheWeighted: with a cost function the completed weight never
// exceeds the cap, except that the newest entry survives alone when it
// exceeds the cap by itself; and a reset racing a compute leaves the
// total consistent.
func TestSFCacheWeighted(t *testing.T) {
	c := newSFCache[string, int64](10)
	c.cost = func(v int64) int64 { return v }
	computes := make(map[string]int)
	get := func(k string, w int64) {
		c.do(k, func() int64 { computes[k]++; return w })
	}
	for i, w := range []int64{3, 4, 2, 5, 1} {
		get(string(rune('a'+i)), w)
		if got := checkTotal(t, c); got > 10 {
			t.Errorf("after weight %d: completed weight %d exceeds the cap 10", w, got)
		}
	}
	if _, ok := c.entries["a"]; ok {
		t.Error("oldest entry survived an over-cap insert")
	}

	get("big", 25)
	if n := len(c.entries); n != 1 || checkTotal(t, c) != 25 {
		t.Errorf("over-cap entry: %d entries weighing %d, want it alone at 25", n, c.total)
	}
	get("big", 25)
	if computes["big"] != 1 {
		t.Errorf("newest over-cap entry recomputed %d times, want 1", computes["big"])
	}
	get("z", 1)
	if _, ok := c.entries["big"]; ok || checkTotal(t, c) != 1 {
		t.Errorf("over-cap entry outlived the next insert (total %d)", c.total)
	}

	// A compute in flight is never evicted, and if a reset drops it, it
	// charges nothing when it ends.
	started, release := make(chan struct{}), make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.do("slow", func() int64 { close(started); <-release; return 7 })
	}()
	<-started
	get("y", 30)
	c.mu.Lock()
	_, inFlight := c.entries["slow"]
	c.mu.Unlock()
	if !inFlight {
		t.Error("an over-cap insert evicted an entry in flight")
	}
	c.reset()
	get("fast", 2)
	close(release)
	<-done
	if got := checkTotal(t, c); got != 2 {
		t.Errorf("after a racing reset: total %d, want 2", got)
	}
}

// TestTraceMemo: requests for one workload share one trace, distinct seeds
// do not, a workload over the per-trace budget runs live and is decided
// once, and ResetCaches drops the trace.
func TestTraceMemo(t *testing.T) {
	ResetCaches()
	defer ResetCaches()
	cfg := network.NewConfig()
	p := traffic.NewTwoLevelParams(1.0)
	p.Seed = 9
	horizon := 10 * sim.Microsecond

	_, a, err := workload(cfg, p, horizon)
	if err != nil || a == nil {
		t.Fatalf("trace under budget was not captured (err %v)", err)
	}
	if _, b, _ := workload(cfg, p, horizon); b != a {
		t.Error("second request did not share the memoized trace")
	}
	p2 := p
	p2.Seed = 10
	if _, c, _ := workload(cfg, p2, horizon); c == a {
		t.Error("distinct seed shared the same trace")
	}

	big := traffic.NewTwoLevelParams(4.0)
	bigHorizon := sim.Time(perTraceArrivals) * big.CyclePeriod
	m, tr, err := workload(cfg, big, bigHorizon)
	if err != nil || tr != nil {
		t.Fatalf("over-budget workload: trace %v, err %v; want a live model", tr, err)
	}
	if _, live := m.(*traffic.TwoLevel); !live {
		t.Errorf("over-budget workload runs %T, want the live two-level model", m)
	}
	key := traceKey{p: big, k: cfg.K, n: cfg.N, torus: cfg.Torus, horizon: bigHorizon}
	traceMemo.do(key, func() *traffic.Trace {
		t.Error("over-budget workload was decided twice")
		return nil
	})

	ResetCaches()
	if _, b, _ := workload(cfg, p, horizon); b == a {
		t.Error("ResetCaches did not drop the memoized trace")
	}
}

func TestParallelismBounds(t *testing.T) {
	SetParallelism(2)
	defer SetParallelism(0)
	if got := Parallelism(); got != 2 {
		t.Errorf("Parallelism() = %d, want 2", got)
	}
	var mu sync.Mutex
	active, peak := 0, 0
	Sweep(16, func(i int) {
		withSimSlot(func() {
			mu.Lock()
			active++
			if active > peak {
				peak = active
			}
			mu.Unlock()
			mu.Lock()
			active--
			mu.Unlock()
		})
	})
	if peak > 2 {
		t.Errorf("observed %d concurrent slots, bound 2", peak)
	}
}
