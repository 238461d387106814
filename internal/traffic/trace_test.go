package traffic

import (
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic/tracestore"
)

func testTwoLevel(t *testing.T, rate float64, seed uint64) *TwoLevel {
	t.Helper()
	p := NewTwoLevelParams(rate)
	p.Seed = seed
	m, err := NewTwoLevel(p, topology.NewMesh2D(8))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// Capturing the same workload twice must record the identical sequence: a
// model's randomness depends only on its own parameters, never on what the
// trace (or network) downstream does with the injections.
func TestCaptureDeterminism(t *testing.T) {
	horizon := 20 * sim.Microsecond
	a := Capture(testTwoLevel(t, 1.0, 7), horizon)
	b := Capture(testTwoLevel(t, 1.0, 7), horizon)
	if a.Len() == 0 {
		t.Fatal("capture recorded no arrivals")
	}
	if a.Len() != b.Len() {
		t.Fatalf("capture lengths differ: %d vs %d", a.Len(), b.Len())
	}
	for i := 0; i < a.Len(); i++ {
		if a.At(i) != b.At(i) {
			t.Fatalf("arrival %d differs: %+v vs %+v", i, a.At(i), b.At(i))
		}
	}
}

// Replaying a trace must deliver exactly the recorded sequence — same
// order, same timestamps — through the chained batch-event walk, and the
// replay's scheduler Now must match each arrival's recorded time (the
// injector contract a live network depends on).
func TestReplayMatchesCapture(t *testing.T) {
	horizon := 20 * sim.Microsecond
	tr := Capture(testTwoLevel(t, 1.0, 11), horizon)
	var sched sim.Scheduler
	i := 0
	tr.Launch(&sched, horizon, func(src, dst int, at sim.Time, task int64) {
		if i >= tr.Len() {
			t.Fatalf("replay injected more than the %d recorded arrivals", tr.Len())
		}
		want := tr.At(i)
		got := Arrival{At: at, Task: task, Src: int32(src), Dst: int32(dst)}
		if got != want {
			t.Fatalf("replay arrival %d = %+v, want %+v", i, got, want)
		}
		if sched.Now() != want.At {
			t.Fatalf("replay arrival %d fired at scheduler time %v, recorded %v", i, sched.Now(), want.At)
		}
		i++
	})
	sched.RunUntil(horizon)
	if i != tr.Len() {
		t.Fatalf("replay delivered %d of %d arrivals", i, tr.Len())
	}
}

// The replay chain must keep its next firing visible to PeekTime while
// arrivals remain — quiescent fast-forward bounds its jumps by it.
func TestReplayKeepsNextEventPending(t *testing.T) {
	horizon := 10 * sim.Microsecond
	tr := Capture(testTwoLevel(t, 0.5, 3), horizon)
	if tr.Len() < 2 {
		t.Skip("trace too short to observe chaining")
	}
	var sched sim.Scheduler
	n := 0
	tr.Launch(&sched, horizon, func(int, int, sim.Time, int64) { n++ })
	for sched.Step() {
		if n < tr.Len() && sched.PeekTime() == sim.Infinity {
			t.Fatal("no pending replay event while arrivals remain")
		}
	}
	if n != tr.Len() {
		t.Fatalf("delivered %d of %d arrivals", n, tr.Len())
	}
}

func TestReplayHorizonMismatchPanics(t *testing.T) {
	horizon := 5 * sim.Microsecond
	tr := Capture(testTwoLevel(t, 0.5, 3), horizon)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("replay with a different horizon did not panic")
		}
		if s, ok := r.(string); !ok || !strings.Contains(s, "horizon") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	var sched sim.Scheduler
	tr.Launch(&sched, horizon+1, func(int, int, sim.Time, int64) {})
}

// A decoded trace must replay event-for-event identically to the trace
// that captured it — the byte-identity contract the store rests on —
// across low, moderate, and saturating load.
func TestCaptureVsDecodeReplayIdentity(t *testing.T) {
	for _, rate := range []float64{0.05, 0.3, 4.0} {
		p := NewTwoLevelParams(rate)
		p.Seed = 5
		topo := topology.NewMesh2D(8)
		m, err := NewTwoLevel(p, topo)
		if err != nil {
			t.Fatal(err)
		}
		horizon := 10 * sim.Microsecond
		captured := Capture(m, horizon)

		enc, err := tracestore.Decode(append([]byte(nil), captured.Encoded().Bytes()...))
		if err != nil {
			t.Fatalf("rate %g: decode: %v", rate, err)
		}
		decoded := FromEncoded(enc)

		replaySeq := func(tr *Trace) []Arrival {
			var sched sim.Scheduler
			var got []Arrival
			tr.Launch(&sched, horizon, func(src, dst int, at sim.Time, task int64) {
				if sched.Now() != at {
					t.Fatalf("rate %g: injection at scheduler time %v claims %v", rate, sched.Now(), at)
				}
				got = append(got, Arrival{At: at, Task: task, Src: int32(src), Dst: int32(dst)})
			})
			sched.RunUntil(horizon)
			return got
		}
		a, b := replaySeq(captured), replaySeq(decoded)
		if len(a) == 0 {
			t.Fatalf("rate %g: empty capture", rate)
		}
		if len(a) != len(b) {
			t.Fatalf("rate %g: %d captured vs %d decoded injections", rate, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("rate %g: injection %d differs: %+v vs %+v", rate, i, a[i], b[i])
			}
		}
	}
}

// The filtered (per-tile) projection must also match between a captured
// trace and its decoded twin.
func TestCaptureVsDecodeFilteredIdentity(t *testing.T) {
	p := NewTwoLevelParams(0.3)
	p.Seed = 13
	topo := topology.NewMesh2D(8)
	m, err := NewTwoLevel(p, topo)
	if err != nil {
		t.Fatal(err)
	}
	horizon := 10 * sim.Microsecond
	captured := Capture(m, horizon)
	enc, err := tracestore.Decode(captured.Encoded().Bytes())
	if err != nil {
		t.Fatal(err)
	}
	decoded := FromEncoded(enc)
	keep := func(src int) bool { return src%2 == 0 }
	run := func(tr *Trace) []Arrival {
		var sched sim.Scheduler
		var got []Arrival
		tr.LaunchReplayFiltered(&sched, horizon, func(src, dst int, at sim.Time, task int64) {
			got = append(got, Arrival{At: at, Task: task, Src: int32(src), Dst: int32(dst)})
		}, keep)
		sched.RunUntil(horizon)
		return got
	}
	a, b := run(captured), run(decoded)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("filtered projections differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("filtered injection %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// The trace must keep the captured model's name: experiment output embeds
// it, and a point must render identically whether it ran live or replayed.
func TestTraceName(t *testing.T) {
	m := testTwoLevel(t, 0.5, 3)
	if tr := Capture(m, sim.Microsecond); tr.Name() != m.Name() {
		t.Fatalf("trace name %q, want %q", tr.Name(), m.Name())
	}
}

// N replays of one trace must decode each block once between them, not
// once each: replay cursors borrow read-only blocks from the trace's
// shared decoded-block cache, and decoding happens under the cache lock
// so even concurrent misses on one block cost a single decode.
func TestSharedBlockDecodeCount(t *testing.T) {
	const blocks = 3
	n := blocks * tracestore.DefaultBlockLen
	recs := make([]Arrival, n)
	for i := range recs {
		recs[i] = Arrival{At: sim.Time(i + 1), Task: int64(i), Src: int32(i % 64), Dst: int32((i + 7) % 64)}
	}
	horizon := sim.Time(n + 1)
	tr := FromEncoded(tracestore.EncodeRecords("synthetic", horizon, recs))
	if got := tr.Encoded().Blocks(); got != blocks {
		t.Fatalf("trace has %d blocks, want %d", got, blocks)
	}
	// Filtered replays are the shared-cache path (tiled runs stream one
	// trace through N per-tile cursors); each block must decode once no
	// matter how many cursors walk it.
	const replays = 4
	total := 0
	for k := 0; k < replays; k++ {
		var sched sim.Scheduler
		tr.LaunchReplayFiltered(&sched, horizon,
			func(int, int, sim.Time, int64) { total++ },
			func(int) bool { return true })
		sched.RunUntil(horizon)
	}
	if total != replays*n {
		t.Fatalf("replays injected %d arrivals, want %d", total, replays*n)
	}
	if got := tr.Encoded().DecodeCount(); got != blocks {
		t.Fatalf("DecodeCount = %d after %d replays of %d blocks, want %d (one decode per block)", got, replays, blocks, blocks)
	}
}
