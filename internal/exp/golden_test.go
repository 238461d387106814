package exp

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/runcache"
)

// update regenerates the golden files instead of comparing against them:
//
//	go test ./internal/exp -run TestGoldenFigures -update
var update = flag.Bool("update", false, "rewrite testdata/golden from current output")

// goldenIDs are the pinned artifacts: the two static tables plus the two
// headline simulation figures (DVS latency and threshold profiles).
var goldenIDs = []string{"tab1", "tab2", "fig10", "fig13"}

// staticGolden need no simulation; they are compared even under -short.
var staticGolden = map[string]bool{"tab1": true, "tab2": true}

func goldenPath(id string) string {
	return filepath.Join("testdata", "golden", id+"_quick.txt")
}

// renderQuick produces the exact bytes cmd/figures prints for one
// experiment in quick mode.
func renderQuick(t *testing.T, id string) string {
	t.Helper()
	tabs, err := Run(id, Options{Quick: true})
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	var sb strings.Builder
	for _, tab := range tabs {
		tab.Fprint(&sb)
	}
	return sb.String()
}

func compareGolden(t *testing.T, id string) {
	t.Helper()
	want, err := os.ReadFile(goldenPath(id))
	if err != nil {
		t.Fatalf("%s: %v (regenerate with: go test ./internal/exp -run TestGoldenFigures -update)", id, err)
	}
	got := renderQuick(t, id)
	if got != string(want) {
		t.Errorf("%s: quick-mode output drifted from %s\n--- got ---\n%s--- want ---\n%s"+
			"If the change is intentional, regenerate with -update.",
			id, goldenPath(id), got, want)
	}
}

// TestGoldenFigures pins quick-mode figure output byte-for-byte against
// testdata/golden. Any behavioral drift — numeric, formatting, ordering —
// fails loudly with a diff; deliberate changes are recorded by rerunning
// with -update. The simulation-backed figures are additionally reproduced
// from cold caches at parallelism 1, 2 and 8, so the pin also proves
// determinism across worker counts.
func TestGoldenFigures(t *testing.T) {
	if *update {
		if err := os.MkdirAll(filepath.Join("testdata", "golden"), 0o755); err != nil {
			t.Fatal(err)
		}
		for _, id := range goldenIDs {
			out := renderQuick(t, id)
			if err := os.WriteFile(goldenPath(id), []byte(out), 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("wrote %s (%d bytes)", goldenPath(id), len(out))
		}
		return
	}

	for _, id := range goldenIDs {
		if staticGolden[id] {
			compareGolden(t, id)
		}
	}
	if testing.Short() {
		t.Skip("simulation-backed golden comparison skipped in -short")
	}
	for _, id := range goldenIDs {
		if !staticGolden[id] {
			compareGolden(t, id)
		}
	}

	// Cross-parallelism reproduction: the same bytes must come out of cold
	// caches at several worker counts. fig10 is the cheapest simulation
	// figure (12 points); TestParallelDeterminism covers the wider sweep at
	// tiny budgets.
	for _, j := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("j%d", j), func(t *testing.T) {
			SetParallelism(j)
			ResetCaches()
			compareGolden(t, "fig10")
		})
	}
	SetParallelism(0)
}

// TestGoldenWithDiskCache: the golden pins must hold with the persistent
// run cache active, both when it populates (cold) and when it replays
// (warm) — the cache may change speed, never a byte of output. Quick
// budget (the pinned one), so it stays out of -short like the other
// simulation-backed comparisons.
func TestGoldenWithDiskCache(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed golden comparison skipped in -short")
	}
	s, err := runcache.Open(t.TempDir(), runcache.Options{Fingerprint: "exp-golden-test"})
	if err != nil {
		t.Fatal(err)
	}
	SetDiskCache(s)
	defer func() {
		SetDiskCache(nil)
		ResetCaches()
	}()

	ResetCaches()
	compareGolden(t, "fig10") // cold: simulate and store
	afterCold := s.Stats()
	if afterCold.Puts == 0 {
		t.Fatalf("cold golden run stored nothing: %+v", afterCold)
	}

	ResetCaches()
	compareGolden(t, "fig10") // warm: replay from disk
	afterWarm := s.Stats()
	if d := afterWarm.Misses - afterCold.Misses; d != 0 {
		t.Errorf("warm golden rerun missed %d times; want 0", d)
	}
	if afterWarm.Hits == afterCold.Hits {
		t.Errorf("warm golden rerun never hit the disk store: %+v", afterWarm)
	}
}

// TestGoldenWithCheckpoint: the golden pins must hold with warmup
// checkpointing active end to end — warmed snapshots captured, persisted
// under "ckpt|" keys and forked per variant — cold and warm, at worker
// counts 1, 2 and 8. The warm rerun must be a pure replay (zero disk
// misses): checkpointing may change how much work a sweep does, never a
// byte of its output or a property of its cache.
func TestGoldenWithCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed golden comparison skipped in -short")
	}
	defer func() {
		SetDiskCache(nil)
		SetParallelism(0)
		ResetCaches()
	}()

	for _, j := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("j%d", j), func(t *testing.T) {
			s, err := runcache.Open(t.TempDir(), runcache.Options{Fingerprint: "exp-golden-checkpoint-test"})
			if err != nil {
				t.Fatal(err)
			}
			SetDiskCache(s)
			SetParallelism(j)

			ResetCaches()
			compareGolden(t, "fig10") // cold: warm up once per rate, fork, store
			compareGolden(t, "tab1")
			afterCold := s.Stats()
			if afterCold.Puts == 0 {
				t.Fatalf("cold checkpointed run stored nothing: %+v", afterCold)
			}

			ResetCaches()
			compareGolden(t, "fig10") // warm: replay from disk
			compareGolden(t, "tab1")
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
	noCheckpoint = true
	ResetCaches() // the hook shares cache keys; force real straight runs
	defer func() {
		noCheckpoint = false
		ResetCaches()
	}()
	want, err := os.ReadFile(goldenPath("fig10"))
	if err != nil {
		t.Fatalf("fig10: %v (regenerate with: go test ./internal/exp -run TestGoldenFigures -update)", err)
	}
	tabs, err := Run("fig10", Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, tab := range tabs {
		tab.Fprint(&sb)
	}
	if sb.String() != string(want) {
		t.Errorf("fig10: straight warm-up output drifted from the golden pin\n--- got ---\n%s--- want ---\n%s",
			sb.String(), want)
	}
}

// TestAuditDoesNotPerturbResults: enabling the runtime invariant audit
// must not change a single simulated number — it reads, never steers.
func TestAuditDoesNotPerturbResults(t *testing.T) {
	tinyBudget = true
	ResetCaches()
	defer func() {
		tinyBudget = false
		ResetCaches()
	}()
	plain, err := Run("fig10", Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	audited, err := Run("fig10", Options{Quick: true, Audit: true})
	if err != nil {
		t.Fatal(err)
	}
	var a, b strings.Builder
	for _, tab := range plain {
		tab.Fprint(&a)
	}
	for _, tab := range audited {
		tab.Fprint(&b)
	}
	if a.String() != b.String() {
		t.Errorf("audit changed results:\n--- plain ---\n%s--- audited ---\n%s", a.String(), b.String())
	}
}
