package exp

import (
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/network"
	"repro/internal/runcache"
	"repro/internal/traffic"
)

// TestCheckpointReducesWarmupWork is the acceptance meter for the
// checkpoint path: a threshold sweep (fig13: 3 rates x 6 Table 2
// settings) shares one warm key per rate, so the checkpointed sweep must
// warm up exactly once per (seed, rate) — 3 warmups instead of 18, a 6x
// reduction in warmup cycles, far past the required 25% — while
// producing byte-identical tables.
func TestCheckpointReducesWarmupWork(t *testing.T) {
	t.Parallel()
	sweep := func(straight bool) (string, int64) {
		ses := tinySession(nil, 0)
		ses.noCheckpoint = straight
		out := render(t, ses, Options{Quick: true}, "fig13")
		return out, ses.WarmupCyclesExecuted()
	}
	straightOut, straight := sweep(true)
	forkedOut, forked := sweep(false)

	if straightOut != forkedOut {
		t.Errorf("checkpointing changed fig13 output:\n--- straight ---\n%s--- forked ---\n%s",
			straightOut, forkedOut)
	}
	if straight == 0 {
		t.Fatal("straight sweep executed no warmup cycles")
	}
	if forked > straight*3/4 {
		t.Errorf("checkpointed sweep warmed up %d cycles vs %d straight; want at least a 25%% reduction",
			forked, straight)
	}
	// Exactly once per (seed, rate): the 6 settings at each rate must share
	// one warmup, so a capture refusal or key drift that silently re-warms
	// fails here, not just the looser threshold above.
	if want := straight / 6; forked != want {
		t.Errorf("checkpointed sweep warmed up %d cycles; want exactly %d (one warmup per rate)",
			forked, want)
	}
}

// fig15Point is the operating point every fig15 variant shares: one
// lowered config, workload and warm key for the whole figure.
func fig15Point(ses *Session, o Options) (network.Config, traffic.TwoLevelParams, string) {
	s := defaultSpec(fig15Rate, network.PolicyHistory)
	warm, meas := ses.budget(o)
	cfg, w := s.config(o), s.twoLevelParams(o)
	return cfg, w, warmKey(cfg, w, warm, meas)
}

// TestMisshapedSnapshotIsQuarantined: a payload that passes the store's
// checksum and the codec's decode but does not restore into this platform
// — here a snapshot of a 4x4 mesh filed under the 8x8 point's warm key —
// must be dropped from the store on its first failed fork, not left for
// every later process to trip over; the sweep falls back to straight runs
// with identical bytes, and the next variant to miss re-captures.
func TestMisshapedSnapshotIsQuarantined(t *testing.T) {
	t.Parallel()
	o := Options{Quick: true}
	want := render(t, tinySession(nil, 0), o, "fig15") // no store: the reference bytes

	s, _ := testStore(t)
	ses := tinySession(s, 0)
	cfg, w, key := fig15Point(ses, o)
	small := cfg
	small.K = 4
	warm, meas := ses.budget(o)
	n, err := tinySession(nil, 0).Warmed(small, w, warm, meas, false)
	if err != nil {
		t.Fatal(err)
	}
	n.SetDVSHold(true) // capture wants the held state; no window has closed yet
	snap, err := checkpoint.Capture(n)
	if err != nil {
		t.Fatalf("Capture: %v", err)
	}
	b, err := checkpoint.Encode(snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(key, b); err != nil {
		t.Fatal(err)
	}

	if got := render(t, ses, o, "fig15"); got != want {
		t.Errorf("fig15 drifted over a mis-shaped snapshot\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	if st := s.Stats(); st.CorruptDropped != 1 {
		t.Errorf("CorruptDropped = %d after the failed fork; want 1", st.CorruptDropped)
	}
	if _, ok := s.Get(key); ok {
		t.Error("the mis-shaped snapshot is still in the store")
	}
	if got := ses.WarmupCyclesExecuted(); got != 6*warm {
		t.Errorf("fallback warmed up %d cycles; want %d (six straight runs)", got, 6*warm)
	}

	// A later process at the same operating point misses the snapshot and
	// captures a good one.
	tinySession(s, 0).run(defaultSpec(fig15Rate, network.PolicyNone), o)
	if _, ok := s.Get(key); !ok {
		t.Error("no snapshot was re-captured after the quarantine")
	}
	later := tinySession(s, 0)
	later.run(defaultSpec(fig15Rate, network.PolicyLinkUtilOnly), o)
	if got := later.WarmupCyclesExecuted(); got != 0 {
		t.Errorf("a variant after the re-capture warmed up %d cycles; want 0 (fork)", got)
	}
}

// TestFig3ForksSweepWarmups: the link-measure characterization warms up
// through the sweeps' stage, under their warm keys. On a session that has
// rendered fig10, fig3 forks fig10's warm-ups at the rates the two share
// and simulates one warm-up of its own, for rate 8.0, which fig10 does not
// sweep.
func TestFig3ForksSweepWarmups(t *testing.T) {
	t.Parallel()
	ses := tinySession(nil, 0)
	o := Options{Quick: true}
	warm, _ := ses.budget(o)
	render(t, ses, o, "fig10")
	before := ses.WarmupCyclesExecuted()
	render(t, ses, o, "fig3")
	if got := ses.WarmupCyclesExecuted() - before; got != warm {
		t.Errorf("fig3 after fig10 warmed up %d cycles; want %d (rate 8.0 only)", got, warm)
	}
}

// perturb moves one settable leaf field to a different value, for the
// key-completeness walks.
func perturb(t *testing.T, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float64:
		v.SetFloat(v.Float() + 0.0625)
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Func:
		v.Set(reflect.MakeFunc(v.Type(), func([]reflect.Value) []reflect.Value { return nil }))
	default:
		t.Fatalf("field kind %v: teach the key's %%#v serialization and this walk about it", v.Kind())
	}
}

// TestWarmKeyIsComplete walks every leaf field of network.Config and
// traffic.TwoLevelParams, perturbs it, and requires the warm key to move
// exactly when checkpoint.Neutral keeps the field: a field added later is
// keyed (or declared policy-independent in Neutral) without anyone
// remembering to, and the set Neutral zeroes is pinned here by name.
func TestWarmKeyIsComplete(t *testing.T) {
	cfg := network.NewConfig()
	w := traffic.NewTwoLevelParams(1.0)
	base := warmKey(cfg, w, 100, 200)
	if warmKey(cfg, w, 101, 200) == base || warmKey(cfg, w, 100, 201) == base {
		t.Error("a budget does not reach the warm key")
	}

	// leaves calls visit with the path of every non-struct field under v.
	var leaves func(path string, v reflect.Value, visit func(path string, v reflect.Value))
	leaves = func(path string, v reflect.Value, visit func(string, reflect.Value)) {
		if v.Kind() != reflect.Struct {
			visit(path, v)
			return
		}
		for i := 0; i < v.NumField(); i++ {
			leaves(strings.TrimPrefix(path+"."+v.Type().Field(i).Name, "."), v.Field(i), visit)
		}
	}

	var neutral []string
	leaves("", reflect.ValueOf(&cfg).Elem(), func(path string, _ reflect.Value) {
		c := cfg
		leaves("", reflect.ValueOf(&c).Elem(), func(p string, v reflect.Value) {
			if p == path {
				perturb(t, v)
			}
		})
		moved := warmKey(c, w, 100, 200) != base
		if checkpoint.CompatibleConfig(cfg, c) == nil {
			neutral = append(neutral, path)
			if moved {
				t.Errorf("Config.%s is policy-neutral but moves the warm key", path)
			}
		} else if !moved {
			t.Errorf("Config.%s shapes the warm-up but does not reach the warm key", path)
		}
	})
	wantNeutral := []string{"Link.VoltTransition", "Link.FreqTransitionCycles", "Policy",
		"DVS.W", "DVS.H", "DVS.BCongested", "DVS.TLLow", "DVS.TLHigh", "DVS.THLow", "DVS.THHigh",
		"Tiles", "Audit.OnViolation"}
	if !reflect.DeepEqual(neutral, wantNeutral) {
		t.Errorf("policy-neutral fields = %v\nwant %v", neutral, wantNeutral)
	}

	leaves("", reflect.ValueOf(&w).Elem(), func(path string, _ reflect.Value) {
		p := w
		leaves("", reflect.ValueOf(&p).Elem(), func(q string, v reflect.Value) {
			if q == path {
				perturb(t, v)
			}
		})
		if warmKey(cfg, p, 100, 200) == base {
			t.Errorf("TwoLevelParams.%s does not reach the warm key", path)
		}
	})
}

// TestInterruptedSweepResumes: a sweep killed mid-write leaves a store
// with some results missing, a truncated snapshot entry, a stale temporary
// file and a truncated index sidecar. Reopening it must cost exactly the
// missing work — three simulations behind one re-captured warm-up — and
// render the same bytes.
func TestInterruptedSweepResumes(t *testing.T) {
	t.Parallel()
	s, dir := testStore(t)
	o := Options{Quick: true}
	want := render(t, tinySession(s, 0), o, "fig15")
	if st := s.Stats(); st.Puts != 7 {
		t.Fatalf("cold fig15 stored %d entries; want 6 results and 1 snapshot", st.Puts)
	}

	// The snapshot is the one large entry; results are a few hundred bytes.
	entries, err := filepath.Glob(filepath.Join(dir, "*.rc"))
	if err != nil || len(entries) != 7 {
		t.Fatalf("store holds %d entries (%v); want 7", len(entries), err)
	}
	sort.Slice(entries, func(i, j int) bool { return fileSize(t, entries[i]) < fileSize(t, entries[j]) })
	for _, p := range entries[:3] {
		if err := os.Remove(p); err != nil {
			t.Fatal(err)
		}
	}
	snapshot := entries[6]
	if err := os.Truncate(snapshot, fileSize(t, snapshot)/2); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "put-123456.tmp"), []byte("half an entry"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(filepath.Join(dir, "index.rci"), 20); err != nil {
		t.Fatal(err)
	}

	reopened, err := runcache.Open(dir, runcache.Options{Fingerprint: "exp-test"})
	if err != nil {
		t.Fatalf("reopening the interrupted store: %v", err)
	}
	ses := tinySession(reopened, 0)
	if got := render(t, ses, o, "fig15"); got != want {
		t.Errorf("resumed fig15 drifted\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	warm, _ := ses.budget(o)
	st := reopened.Stats()
	if st.Hits != 3 || st.Puts != 4 || st.CorruptDropped != 1 {
		t.Errorf("resume stats = %+v; want 3 result hits, 4 puts (3 results + the snapshot), 1 quarantined entry", st)
	}
	if got := ses.WarmupCyclesExecuted(); got != warm {
		t.Errorf("resume warmed up %d cycles; want %d (one shared warm-up for the three missing points)", got, warm)
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}
