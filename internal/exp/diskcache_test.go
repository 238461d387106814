package exp

import (
	"os"
	"path/filepath"
	"testing"

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

// TestLookupRejectCountsAsMiss: a checksum-valid payload that is not JSON
// is quarantined and counted as a miss (delete + count + miss), so
// -cachestats never reports a hit that served nothing.
func TestLookupRejectCountsAsMiss(t *testing.T) {
	t.Parallel()
	s, _ := testStore(t)
	if err := s.Put("k", []byte("not json")); err != nil {
		t.Fatal(err)
	}
	var v map[string]int
	if lookupJSON(s, "k", &v) {
		t.Fatal("a payload that is not JSON was served")
	}
	if st := s.Stats(); st.Hits != 0 || st.Misses != 1 || st.CorruptDropped != 1 {
		t.Errorf("stats = %+v; want Hits:0 Misses:1 CorruptDropped:1", st)
	}
}
