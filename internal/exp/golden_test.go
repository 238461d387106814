package exp

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// update regenerates the golden files instead of comparing against them:
//
//	go test ./internal/exp -run TestGoldenFigures -update
var update = flag.Bool("update", false, "rewrite testdata/golden from current output")

// goldenIDs are the pinned artifacts: the two static tables, the two
// headline simulation figures (DVS latency and threshold profiles), the
// link-measure characterization (fig3; fig4 and fig5 render the same
// measure set) and the two workload profiles (fig8, fig9).
var goldenIDs = []string{"tab1", "tab2", "fig3", "fig8", "fig9", "fig10", "fig13"}

// staticGolden need no simulation; they are compared even under -short.
var staticGolden = map[string]bool{"tab1": true, "tab2": true}

func goldenPath(id string) string {
	return filepath.Join("testdata", "golden", id+"_quick.txt")
}

// compareGolden regenerates one experiment in quick mode on ses and
// requires the exact bytes of its golden file.
func compareGolden(t *testing.T, ses *Session, id string) {
	t.Helper()
	want, err := os.ReadFile(goldenPath(id))
	if err != nil {
		t.Fatalf("%s: %v (regenerate with: go test ./internal/exp -run TestGoldenFigures -update)", id, err)
	}
	if got := render(t, ses, quick, id); got != string(want) {
		t.Errorf("%s: quick-mode output drifted from %s\n--- got ---\n%s--- want ---\n%s"+
			"If the change is intentional, regenerate with -update.",
			id, goldenPath(id), got, want)
	}
}

// TestGoldenFigures pins quick-mode figure output byte-for-byte against
// testdata/golden. Any behavioral drift — numeric, formatting, ordering —
// fails loudly with a diff; deliberate changes are recorded by rerunning
// with -update. The main compare runs on the session the shape tests
// share, so it may start warm; the j1/j2/j8 legs reproduce fig10 from an
// empty session with no store (the -no-cache path) at 1, 2 and 8
// workers, so the pin also proves determinism across worker counts.
func TestGoldenFigures(t *testing.T) {
	t.Parallel()
	if *update {
		if err := os.MkdirAll(filepath.Join("testdata", "golden"), 0o755); err != nil {
			t.Fatal(err)
		}
		for _, id := range goldenIDs {
			out := render(t, shared, quick, id)
			if err := os.WriteFile(goldenPath(id), []byte(out), 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("wrote %s (%d bytes)", goldenPath(id), len(out))
		}
		return
	}

	for _, id := range goldenIDs {
		if staticGolden[id] {
			compareGolden(t, shared, id)
		}
	}
	if testing.Short() {
		t.Skip("simulation-backed golden comparison skipped in -short")
	}
	for _, id := range goldenIDs {
		if !staticGolden[id] {
			compareGolden(t, shared, id)
		}
	}
	for _, j := range []int{1, 2, 8} {
		j := j
		t.Run(fmt.Sprintf("j%d", j), func(t *testing.T) {
			t.Parallel()
			compareGolden(t, NewSession(nil, j), "fig10")
		})
	}
}

// TestGoldenWithDiskCache: the golden pin holds with the persistent store
// at the default worker count, both when an empty session populates it
// (cold) and when a second empty session replays it (warm) — the store
// may change speed, never a byte of output.
func TestGoldenWithDiskCache(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed golden comparison skipped in -short")
	}
	t.Parallel()
	s, _ := testStore(t)

	compareGolden(t, NewSession(s, 0), "fig10") // cold: simulate and store
	afterCold := s.Stats()
	if afterCold.Puts == 0 {
		t.Fatalf("cold golden run stored nothing: %+v", afterCold)
	}

	compareGolden(t, NewSession(s, 0), "fig10") // warm: replay from disk
	afterWarm := s.Stats()
	if d := afterWarm.Misses - afterCold.Misses; d != 0 {
		t.Errorf("warm golden rerun missed %d times; want 0", d)
	}
	if afterWarm.Hits == afterCold.Hits {
		t.Errorf("warm golden rerun never hit the disk store: %+v", afterWarm)
	}
}

// TestGoldenWithCheckpoint: the golden pins hold from an empty session at
// worker counts 1, 2 and 8 with the persistent store on end to end: results and
// warm snapshots (under "warm|" keys, forked per variant) stored cold,
// then replayed by a second empty session over the same store. The warm
// rerun must be a pure replay (zero disk misses): neither the store nor
// checkpointing may change a byte of output or a property of the cache.
func TestGoldenWithCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed golden comparison skipped in -short")
	}
	t.Parallel()
	for _, j := range []int{1, 2, 8} {
		j := j
		t.Run(fmt.Sprintf("j%d", j), func(t *testing.T) {
			t.Parallel()
			s, _ := testStore(t)

			cold := NewSession(s, j) // warm up once per rate, fork, store
			compareGolden(t, cold, "fig10")
			compareGolden(t, cold, "tab1")
			afterCold := s.Stats()
			if afterCold.Puts == 0 {
				t.Fatalf("cold checkpointed run stored nothing: %+v", afterCold)
			}

			warm := NewSession(s, j) // replay from disk
			compareGolden(t, warm, "fig10")
			compareGolden(t, warm, "tab1")
			afterWarm := s.Stats()
			if d := afterWarm.Misses - afterCold.Misses; d != 0 {
				t.Errorf("warm checkpointed rerun missed %d times; want 0", d)
			}
			if afterWarm.Hits == afterCold.Hits {
				t.Errorf("warm checkpointed rerun never hit the disk store: %+v", afterWarm)
			}
		})
	}
}

// TestGoldenNoCheckpoint: the straight warm-up path (the noCheckpoint
// hook) must not change a byte either — the same pin holds when every
// point pays for its own warmup. Together with the default-path pins this
// is the on/off equivalence guarantee at golden granularity.
func TestGoldenNoCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed golden comparison skipped in -short")
	}
	t.Parallel()
	ses := NewSession(nil, 0)
	ses.noCheckpoint = true
	compareGolden(t, ses, "fig10")
}

// TestAuditDoesNotPerturbResults: enabling the runtime invariant audit
// must not change a single simulated number — it reads, never steers.
func TestAuditDoesNotPerturbResults(t *testing.T) {
	t.Parallel()
	ses := tinySession(nil, 0)
	plain := render(t, ses, Options{Quick: true}, "fig10")
	audited := render(t, ses, Options{Quick: true, Audit: true}, "fig10")
	if plain != audited {
		t.Errorf("audit changed results:\n--- plain ---\n%s--- audited ---\n%s", plain, audited)
	}
}
