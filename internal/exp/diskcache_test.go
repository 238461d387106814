package exp

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/network"
	"repro/internal/runcache"
)

// testStore opens a persistent store on a fresh directory with a fixed
// test fingerprint (test binaries carry no VCS stamp, so the real
// fingerprint would not isolate tests) and returns it with its directory.
func testStore(t *testing.T) (*runcache.Store, string) {
	t.Helper()
	dir := t.TempDir()
	s, err := runcache.Open(dir, runcache.Options{Fingerprint: "exp-test"})
	if err != nil {
		t.Fatal(err)
	}
	return s, dir
}

// corruptAllEntries flips one payload byte in every cache entry under dir.
func corruptAllEntries(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		p := filepath.Join(dir, e.Name())
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		b[len(b)-1] ^= 0xff
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n == 0 {
		t.Fatal("no cache entries to corrupt")
	}
}

// TestDiskCacheWarmRerunIdentity: a rerun served entirely from the
// persistent store must render byte-identically to the cold run that
// populated it, across every payload shape the harness stores — sweep
// points (fig10), characterization histograms (fig3), the spatial and
// temporal workload grids (fig8, fig9) and the router-power check.
func TestDiskCacheWarmRerunIdentity(t *testing.T) {
	t.Parallel()
	s, _ := testStore(t)

	ids := []string{"fig3", "fig8", "fig9", "fig10", "abl-routerpower"}
	o := Options{Quick: true}
	cold := render(t, tinySession(s, 0), o, ids...)
	afterCold := s.Stats()
	if afterCold.Puts == 0 {
		t.Fatalf("cold run stored nothing: %+v", afterCold)
	}

	// A fresh session has no memory layer, so the rerun must go to disk.
	warm := render(t, tinySession(s, 0), o, ids...)
	afterWarm := s.Stats()

	if warm != cold {
		t.Errorf("warm rerun drifted from cold run\n--- cold ---\n%s--- warm ---\n%s", cold, warm)
	}
	if d := afterWarm.Misses - afterCold.Misses; d != 0 {
		t.Errorf("warm rerun missed %d times; want 0", d)
	}
	if afterWarm.Hits == afterCold.Hits {
		t.Errorf("warm rerun never hit the disk store: %+v", afterWarm)
	}
	if d := afterWarm.Puts - afterCold.Puts; d != 0 {
		t.Errorf("warm rerun wrote %d new entries; want 0", d)
	}
}

// TestDiskCacheIncremental: changing one experiment's parameters must
// recompute exactly that experiment's points — everything untouched is
// served from the store. The parameter edit is modeled by a seed change,
// which reaches every cache key of the edited run.
func TestDiskCacheIncremental(t *testing.T) {
	t.Parallel()
	s, _ := testStore(t)

	o := Options{Quick: true}
	render(t, tinySession(s, 0), o, "fig10")
	base := s.Stats()

	// Unchanged rerun: all hits, no new work.
	render(t, tinySession(s, 0), o, "fig10")
	after := s.Stats()
	if d := after.Misses - base.Misses; d != 0 {
		t.Fatalf("unchanged rerun missed %d times; want 0", d)
	}

	// An "edited" run (new seed family): its points miss and store.
	render(t, tinySession(s, 0), Options{Quick: true, Seed: 2}, "fig10")
	edited := s.Stats()
	if edited.Misses == after.Misses {
		t.Fatalf("edited run recomputed nothing: %+v", edited)
	}
	if edited.Puts == after.Puts {
		t.Fatalf("edited run stored nothing: %+v", edited)
	}

	// The original, untouched run still replays without recomputation.
	render(t, tinySession(s, 0), o, "fig10")
	final := s.Stats()
	if d := final.Misses - edited.Misses; d != 0 {
		t.Errorf("untouched run recomputed %d points after an unrelated edit; want 0", d)
	}
}

// TestOpenDiskCacheRequiresVCSStamp: test binaries carry no VCS revision,
// exactly like `go run` binaries — the automatic fingerprint would be
// stable across code changes, so OpenDiskCache must refuse and install
// nothing rather than let stale results replay silently.
func TestOpenDiskCacheRequiresVCSStamp(t *testing.T) {
	before := defaultSession.Load()
	if err := OpenDiskCache(t.TempDir(), 0); err == nil {
		t.Fatal("OpenDiskCache succeeded in an unstamped binary; want a refusal")
	}
	if defaultSession.Load() != before || DiskCache() != nil {
		t.Error("a store was installed despite the refusal")
	}
}

// TestDiskCacheQuarantineRecovers: a corrupted store entry must be dropped
// and recomputed, and the recomputed render must match the original.
func TestDiskCacheQuarantineRecovers(t *testing.T) {
	t.Parallel()
	s, dir := testStore(t)

	o := Options{Quick: true}
	cold := render(t, tinySession(s, 0), o, "fig10")
	corruptAllEntries(t, dir)

	warm := render(t, tinySession(s, 0), o, "fig10")
	if warm != cold {
		t.Errorf("post-corruption recompute drifted\n--- cold ---\n%s--- recomputed ---\n%s", cold, warm)
	}
	if s.Stats().CorruptDropped == 0 {
		t.Errorf("corrupted entries were not quarantined: %+v", s.Stats())
	}
}

// TestLookupRejectCountsAsMiss: a checksum-valid payload that does not
// decode into the caller's type — not JSON, or a record of the wrong
// length for a fixed-size value — is quarantined and counted as a miss
// (delete + count + miss), so -cachestats never reports a hit that served
// nothing.
func TestLookupRejectCountsAsMiss(t *testing.T) {
	t.Parallel()
	jsonResults, err := json.Marshal(network.Results{Cycles: 1, MeanLatency: 2.5})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		payload []byte
		into    any
	}{
		{"not-json", []byte("not json"), new(map[string]int)},
		{"short-record", make([]byte, 79), new(network.Results)},
		{"long-record", make([]byte, 81), new(network.Results)},
		{"json-results", jsonResults, new(network.Results)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, _ := testStore(t)
			if err := s.Put("k", tc.payload); err != nil {
				t.Fatal(err)
			}
			if lookupPayload(s, "k", tc.into) {
				t.Fatal("a payload that does not decode was served")
			}
			if st := s.Stats(); st.Hits != 0 || st.Misses != 1 || st.CorruptDropped != 1 {
				t.Errorf("stats = %+v; want Hits:0 Misses:1 CorruptDropped:1", st)
			}
		})
	}
}

// TestPayloadRoundTripsBits: a stored network.Results comes back bit for
// bit, including the values JSON cannot carry (NaN, the infinities) and
// the ones it could blur (negative zero, the smallest subnormal).
func TestPayloadRoundTripsBits(t *testing.T) {
	t.Parallel()
	s, _ := testStore(t)
	in := network.Results{
		Cycles:         math.MaxInt64,
		InjectedPkts:   math.MinInt64,
		DeliveredPkts:  -1,
		MeanLatency:    math.Copysign(0, -1),
		P50Latency:     math.NaN(),
		P99Latency:     math.Inf(1),
		ThroughputPkts: math.Inf(-1),
		AvgPowerW:      math.SmallestNonzeroFloat64,
		NormalizedPwr:  math.MaxFloat64,
		SavingsX:       1.0 / 3,
	}
	storePayload(s, "k", in)
	var out network.Results
	if !lookupPayload(s, "k", &out) {
		t.Fatalf("stored result not served: %+v", s.Stats())
	}
	ints := func(r network.Results) []int64 { return []int64{r.Cycles, r.InjectedPkts, r.DeliveredPkts} }
	floats := func(r network.Results) []float64 {
		return []float64{r.MeanLatency, r.P50Latency, r.P99Latency, r.ThroughputPkts, r.AvgPowerW, r.NormalizedPwr, r.SavingsX}
	}
	for i, want := range ints(in) {
		if got := ints(out)[i]; got != want {
			t.Errorf("integer field %d = %d; want %d", i, got, want)
		}
	}
	for i, want := range floats(in) {
		if got := floats(out)[i]; math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("float field %d = %v (%#x); want %v (%#x)", i, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	if n := reflect.TypeOf(in).NumField(); n != 10 {
		t.Errorf("network.Results has %d fields; this test compares 10", n)
	}
}

// TestRecordCodecMatchesBinary: each record type's field list writes the
// bytes encoding/binary writes for the type, covers its whole size, and
// reads back every bit.
func TestRecordCodecMatchesBinary(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewPCG(3, 4))
	var fill func(rv reflect.Value)
	fill = func(rv reflect.Value) {
		for i := 0; i < rv.NumField(); i++ {
			f := rv.Field(i)
			switch f.Kind() {
			case reflect.Int64:
				f.SetInt(int64(rng.Uint64()))
			case reflect.Float64:
				f.SetFloat(math.Float64frombits(rng.Uint64()))
			case reflect.Struct:
				fill(f)
			default:
				t.Fatalf("%s.%s is a %s; the record codec has no field kind for it", rv.Type(), rv.Type().Field(i).Name, f.Kind())
			}
		}
	}
	for _, v := range []any{new(network.Results), new(routerPowerPayload), new(Summary)} {
		rv := reflect.ValueOf(v).Elem()
		fill(rv)
		size := recordSize(v)
		if want := binary.Size(v); size != want {
			t.Errorf("%s: record of %d bytes, encoding/binary's is %d", rv.Type(), size, want)
			continue
		}
		var want bytes.Buffer
		if err := binary.Write(&want, binary.LittleEndian, v); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, size)
		recordFields(&recordCodec{buf: got}, v)
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("%s: record %x, encoding/binary writes %x", rv.Type(), got, want.Bytes())
		}
		back := reflect.New(rv.Type())
		recordFields(&recordCodec{buf: got, decode: true}, back.Interface())
		var again bytes.Buffer
		binary.Write(&again, binary.LittleEndian, back.Interface())
		if !bytes.Equal(again.Bytes(), got) {
			t.Errorf("%s: decoded record re-encodes as %x, want %x", rv.Type(), again.Bytes(), got)
		}
	}
	if recordSize(new(measurePayload)) != 0 || recordSize(network.Results{}) != 0 {
		t.Error("a JSON payload type or a value (not a pointer) is taken for a record")
	}
}

// raceEnabled is set under the race detector (race_test.go).
var raceEnabled bool

// maxWarmAllocs bounds TestWarmRegenerationAllocs. Measured with go1.24.0
// when the hit path was last cut down: 55 (122 before). The bound leaves
// room for a later toolchain's escape analysis and runtime, well short of
// what one allocation per hit added back would cost.
const maxWarmAllocs = 60

// TestWarmRegenerationAllocs: one warm fig15 regeneration — a fresh
// session over a reopened store, six record hits, the table rendered —
// stays within the allocations it makes today. A memo map, a flight
// channel, a key concatenation, a reflective decode or a heap copy of an
// entry added back to the hit path each shows here.
func TestWarmRegenerationAllocs(t *testing.T) {
	if runtime.GOOS != "linux" || raceEnabled {
		t.Skip("the bound is the Linux read path's without the race detector; os.File and the detector allocate")
	}
	dir := t.TempDir()
	open := func() *runcache.Store {
		s, err := runcache.Open(dir, runcache.Options{Fingerprint: "exp-test"})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	cold := render(t, tinySession(open(), 1), quick, "fig15")
	var warm string
	var st runcache.Stats
	allocs := testing.AllocsPerRun(50, func() {
		ses := tinySession(open(), 1)
		all, err := ses.RunAll([]string{"fig15"}, quick)
		if err != nil {
			t.Fatal(err)
		}
		warm, st = fprint(all), ses.DiskCacheStats()
	})
	if warm != cold || st.Hits != 6 || st.Misses != 0 {
		t.Fatalf("warm regeneration rendered differently or missed (stats %+v)\n--- cold ---\n%s--- warm ---\n%s", st, cold, warm)
	}
	t.Logf("%.0f allocations per warm regeneration", allocs)
	if allocs > maxWarmAllocs {
		t.Errorf("a warm fig15 regeneration made %.0f allocations; at most %d expected", allocs, maxWarmAllocs)
	}
}
