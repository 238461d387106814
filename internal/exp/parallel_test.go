package exp

import (
	"bytes"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// TestParallelDeterminism is the core guarantee of the parallel executor:
// regenerating fig10 and fig13 at three distinct parallelism levels, each
// from a cold cache, produces byte-identical tables. Every simulation
// point seeds its own RNG streams and builds its own network, so execution
// order cannot leak into results. Since the shared-trace path is on by
// default, this also proves concurrent sweeps racing on the trace cache
// (singleflight capture, shared read-only replay) stay deterministic.
func TestParallelDeterminism(t *testing.T) {
	t.Parallel()
	ids := []string{"fig10", "fig13"}
	o := Options{Quick: true}

	sequential := render(t, tinySession(nil, 1), o, ids...)
	if !strings.Contains(sequential, "Figure 10(a)") || !strings.Contains(sequential, "Figure 13") {
		t.Fatalf("reference output incomplete:\n%s", sequential)
	}
	for _, j := range []int{2, 8} {
		if got := render(t, tinySession(nil, j), o, ids...); got != sequential {
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
	t.Parallel()
	ids := []string{"fig10", "fig13"}
	o := Options{Quick: true}

	memoized := render(t, tinySession(nil, 0), o, ids...)
	liveSession := tinySession(nil, 0)
	liveSession.noTraceMemo = true
	live := render(t, liveSession, o, ids...)
	if memoized != live {
		t.Errorf("memoized traces change results\n--- memoized ---\n%s\n--- live ---\n%s",
			memoized, live)
	}
}

// TestSessionsAreIsolated: two sessions regenerating fig10 at once — one
// over a store at one worker, one without a store at two — render the same
// bytes, and neither sees the other's memos or warm-ups. It is also the
// one test of the default session's entry points: SetDiskCache and
// SetParallelism configure it, and ResetCaches replaces it with an empty
// session of the same configuration and drops nothing from any other.
func TestSessionsAreIsolated(t *testing.T) {
	t.Parallel()
	s, _ := testStore(t)
	a, b := tinySession(s, 1), tinySession(nil, 2)
	sessions := []*Session{a, b}
	outs := make([]string, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i, ses := range sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var all [][]Table
			all, errs[i] = ses.RunAll([]string{"fig10"}, quick)
			outs[i] = fprint(all)
		}()
	}
	wg.Wait()
	if errs[0] != nil || errs[1] != nil {
		t.Fatal(errs)
	}
	if outs[0] != outs[1] || !strings.Contains(outs[0], "Figure 10(a)") {
		t.Errorf("concurrent sessions rendered different bytes\n--- store, j1 ---\n%s--- no store, j2 ---\n%s", outs[0], outs[1])
	}
	// Each session warms up once per rate: a shared snapshot memo would
	// leave one of them short, a shared meter would count both sweeps.
	warm, _ := a.budget(quick)
	for i, ses := range sessions {
		if got := ses.WarmupCyclesExecuted(); got != int64(len(sweepRates))*warm {
			t.Errorf("session %d warmed up %d cycles; want %d, one warm-up per rate", i, got, int64(len(sweepRates))*warm)
		}
	}
	if len(a.runCache.entries) != 2*len(sweepRates) || len(b.runCache.entries) != 2*len(sweepRates) {
		t.Errorf("sessions memoized %d and %d points; want %d each", len(a.runCache.entries), len(b.runCache.entries), 2*len(sweepRates))
	}
	for key, f := range a.runCache.entries {
		if g := b.runCache.entries[key]; g == nil || g == f {
			t.Errorf("point %s is not memoized separately in each session", key)
		}
	}
	for key, f := range a.traceMemo.entries {
		if g := b.traceMemo.entries[key]; g == nil || g.val == f.val {
			t.Errorf("the sessions do not each hold their own trace for %+v", key.p)
		}
	}

	// The default session: configured, given work, then reset.
	SetDiskCache(s)
	SetParallelism(3)
	d := defaultSession.Load()
	if d.store != s || DiskCache() != s || cap(d.slots) != 3 {
		t.Fatalf("default session has store %p and %d slots; want %p and 3", d.store, cap(d.slots), s)
	}
	cfg := network.NewConfig()
	cfg.K = 4
	if _, err := Warmed(cfg, traffic.NewTwoLevelParams(0.5), 500, 500, false); err != nil {
		t.Fatal(err)
	}
	if WarmupCyclesExecuted() != 500 || len(d.traceMemo.entries) != 1 {
		t.Fatalf("default session warmed up %d cycles holding %d traces; want 500 and 1", WarmupCyclesExecuted(), len(d.traceMemo.entries))
	}
	before := s.Stats()
	ResetCaches()
	if r := defaultSession.Load(); r == d || r.store != s || cap(r.slots) != 3 ||
		len(r.traceMemo.entries) != 0 || WarmupCyclesExecuted() != 0 {
		t.Errorf("ResetCaches left store %p, %d slots, %d traces, %d warm-up cycles; want %p, 3, 0, 0",
			r.store, cap(r.slots), len(r.traceMemo.entries), WarmupCyclesExecuted(), s)
	}
	if got := render(t, a, quick, "fig10"); got != outs[0] || a.WarmupCyclesExecuted() != int64(len(sweepRates))*warm {
		t.Error("ResetCaches changed what an explicit session holds")
	}
	if st := s.Stats(); st.Hits != before.Hits || st.Misses != before.Misses {
		t.Errorf("a rerun on an explicit session after ResetCaches went to the store: %+v -> %+v", before, st)
	}
	SetDiskCache(nil)
	SetParallelism(0)
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
	t.Parallel()
	ses := tinySession(nil, 0)
	reference := ses.Point(1.0, network.PolicyHistory, quick)
	const goroutines = 16
	var wg sync.WaitGroup
	results := make([]network.Results, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g] = ses.Point(1.0, network.PolicyHistory, quick)
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
	ses := NewSession(nil, 3)
	const n = 100
	hits := make([]int, n)
	var mu sync.Mutex
	ses.fanOut(n, func(i int) {
		ses.withSimSlot(func() {
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

// TestFanOutBoundsCallsInFlight: calls of fn in flight at once — counted
// on entry into fn, not by slot holders — never exceed the session's
// workers and reach them when there is work enough, every index runs
// exactly once, and a one-slot session runs the indices in order on the
// caller.
func TestFanOutBoundsCallsInFlight(t *testing.T) {
	t.Parallel()
	for _, workers := range []int{1, 2, 3} {
		ses := NewSession(nil, workers)
		const n = 40
		var (
			mu           sync.Mutex
			active, peak int
			order        []int
		)
		full := make(chan struct{}) // closed once workers calls are in flight
		ses.fanOut(n, func(i int) {
			mu.Lock()
			active++
			if active > peak {
				peak = active
				if peak == workers {
					close(full)
				}
			}
			order = append(order, i)
			mu.Unlock()
			// The first calls wait until the fan-out has filled every
			// worker, so a fan-out that never does fails here, not by luck.
			select {
			case <-full:
			case <-time.After(10 * time.Second):
			}
			mu.Lock()
			active--
			mu.Unlock()
		})
		if peak != workers {
			t.Errorf("%d workers: %d calls of fn in flight at the peak; want %d", workers, peak, workers)
		}
		seen := make([]int, n)
		for _, i := range order {
			seen[i]++
		}
		for i, c := range seen {
			if c != 1 {
				t.Errorf("%d workers: index %d ran %d times", workers, i, c)
			}
		}
		if workers == 1 {
			for k, i := range order {
				if i != k {
					t.Fatalf("one slot ran the indices in the order %v; want 0..%d on the caller", order, n-1)
				}
			}
		}
	}
}

// TestNestedFanOutsFinish: every nested fan-out site — the fig3/fig4
// characterization set inside RunAll, fig16's four sub-tables, the
// router-power pair and the saturation bisections — completes at one and
// at two worker slots, where the nested fan-outs run on the same few
// goroutines as the outer one.
func TestNestedFanOutsFinish(t *testing.T) {
	t.Parallel()
	ids := []string{"fig3", "fig4", "fig16", "abl-routerpower", "saturation"}
	for _, j := range []int{1, 2} {
		done := make(chan error, 1)
		go func() {
			_, err := tinySession(nil, j).RunAll(ids, quick)
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(3 * time.Minute):
			t.Fatalf("RunAll(%v) at %d slots did not finish: a nested fan-out deadlocked", ids, j)
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
// exceeds the cap by itself; and an entry in flight is neither evicted
// nor charged until it completes.
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

	// A compute in flight is never evicted, and is charged when it ends.
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
	if got := checkTotal(t, c); got != 30 {
		t.Errorf("with an entry in flight: total %d, want 30 (the entry is not charged yet)", got)
	}
	close(release)
	<-done
	if _, ok := c.entries["slow"]; !ok || checkTotal(t, c) != 7 {
		t.Errorf("after the in-flight entry completed: total %d, want it alone at 7", c.total)
	}
}

// TestTraceMemo: requests for one workload share one trace, distinct seeds
// do not, a workload over the per-trace budget runs live and is decided
// once, and another session does not see the trace.
func TestTraceMemo(t *testing.T) {
	t.Parallel()
	ses := NewSession(nil, 0)
	cfg := network.NewConfig()
	p := traffic.NewTwoLevelParams(1.0)
	p.Seed = 9
	horizon := 10 * sim.Microsecond

	_, a, err := ses.workload(cfg, p, horizon)
	if err != nil || a == nil {
		t.Fatalf("trace under budget was not captured (err %v)", err)
	}
	if _, b, _ := ses.workload(cfg, p, horizon); b != a {
		t.Error("second request did not share the memoized trace")
	}
	p2 := p
	p2.Seed = 10
	if _, c, _ := ses.workload(cfg, p2, horizon); c == a {
		t.Error("distinct seed shared the same trace")
	}

	big := traffic.NewTwoLevelParams(4.0)
	bigHorizon := sim.Time(perTraceArrivals) * big.CyclePeriod
	m, tr, err := ses.workload(cfg, big, bigHorizon)
	if err != nil || tr != nil {
		t.Fatalf("over-budget workload: trace %v, err %v; want a live model", tr, err)
	}
	if _, live := m.(*traffic.TwoLevel); !live {
		t.Errorf("over-budget workload runs %T, want the live two-level model", m)
	}
	key := traceKey{p: big, k: cfg.K, n: cfg.N, torus: cfg.Torus, horizon: bigHorizon}
	ses.traceMemo.do(key, func() *traffic.Trace {
		t.Error("over-budget workload was decided twice")
		return nil
	})

	if _, b, _ := NewSession(nil, 0).workload(cfg, p, horizon); b == a {
		t.Error("a fresh session shared another session's memoized trace")
	}
}

// TestParallelismBounds: withSimSlot admits exactly the session's workers
// at once. Sixteen goroutines contend for two slots; the holders stay
// inside until both slots are taken and the rest have had time to push
// past a gate that let them, so a gate that takes no slot fails here.
func TestParallelismBounds(t *testing.T) {
	ses := NewSession(nil, 2)
	if got := cap(ses.slots); got != 2 {
		t.Errorf("session of 2 workers has %d slots", got)
	}
	if got, want := cap(NewSession(nil, -1).slots), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("session of -1 workers has %d slots, want GOMAXPROCS = %d", got, want)
	}
	const callers = 16
	var (
		mu                    sync.Mutex
		arrived, active, peak int
		wg                    sync.WaitGroup
	)
	release := make(chan struct{})
	wg.Add(callers)
	for range callers {
		go func() {
			defer wg.Done()
			mu.Lock()
			arrived++
			mu.Unlock()
			ses.withSimSlot(func() {
				mu.Lock()
				active++
				peak = max(peak, active)
				mu.Unlock()
				<-release
				mu.Lock()
				active--
				mu.Unlock()
			})
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		ready := arrived == callers && active >= 2
		mu.Unlock()
		if ready || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // room for a leaky gate to over-admit
	close(release)
	wg.Wait()
	if peak > 2 {
		t.Errorf("observed %d concurrent slots, bound 2", peak)
	}
	if peak != 2 {
		t.Errorf("observed %d concurrent slots; want the bound of 2 reached", peak)
	}
}

// TestFanOutCallerPanic: when fn panics on the caller, the fan-out stops
// handing out indices, waits only for the calls already running on its
// helpers, and re-raises the panic on the caller.
func TestFanOutCallerPanic(t *testing.T) {
	ses := NewSession(nil, 2)
	var caller bytes.Buffer
	caller.Write(goroutineHeader())
	const n = 100
	var ran atomic.Int64
	panicking := make(chan struct{})
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Fatalf("recovered %v; want the caller's panic", r)
			}
		}()
		ses.fanOut(n, func(i int) {
			ran.Add(1)
			if bytes.Equal(goroutineHeader(), caller.Bytes()) {
				close(panicking)
				panic("boom")
			}
			// A helper's call outlasts the caller's unwinding many times
			// over, so the remaining indices are still unclaimed when the
			// caller stops the fan-out.
			<-panicking
			time.Sleep(time.Millisecond)
		})
	}()
	after := ran.Load()
	if after >= n {
		t.Errorf("all %d indices ran after the caller panicked; want the fan-out stopped", after)
	}
	time.Sleep(10 * time.Millisecond)
	if got := ran.Load(); got != after {
		t.Errorf("fn ran %d more times after the fan-out returned", got-after)
	}
}

// goroutineHeader returns the first line of the running goroutine's stack
// ("goroutine N [running]:"), which names the goroutine.
func goroutineHeader() []byte {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	line, _, _ := bytes.Cut(buf, []byte("\n"))
	return line
}
