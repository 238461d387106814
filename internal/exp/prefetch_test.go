package exp

import (
	"sort"
	"testing"

	"repro/internal/runcache"
	"repro/internal/traffic"
	"repro/internal/traffic/tracestore"
)

// TestPrefetchReportsMissesThenHits: a walk over empty stores reports
// every key — result and trace alike — as a miss without running a
// simulation or writing anything; the same walk after a real run reports
// every key as a hit. The real run after a walk must still render the same
// bytes as one with no walk before it — the zero-valued placeholders a
// walk memoizes must not leak.
func TestPrefetchReportsMissesThenHits(t *testing.T) {
	tinyBudget = true
	ResetCaches()
	defer func() {
		tinyBudget = false
		ResetCaches()
	}()
	s, _ := withTestDiskCache(t)
	rc, err := runcache.Open(t.TempDir(), runcache.Options{Fingerprint: "exp-prefetch-trace-test"})
	if err != nil {
		t.Fatal(err)
	}
	traffic.SetTraceStore(tracestore.NewStore(rc))
	defer traffic.SetTraceStore(nil)

	ids := []string{"fig10", "tab1"}
	o := Options{Quick: true}

	cold, err := Prefetch(ids, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(cold) == 0 {
		t.Fatal("cold walk consulted no keys")
	}
	kinds := map[string]int{}
	for _, e := range cold {
		kinds[e.Kind]++
	}
	if kinds["result"] == 0 || kinds["trace"] == 0 {
		t.Fatalf("cold walk kinds = %v; want both result and trace keys", kinds)
	}
	if !sort.SliceIsSorted(cold, func(i, j int) bool { return cold[i].Key < cold[j].Key }) {
		t.Error("entries are not in sorted key order")
	}
	for _, e := range cold {
		if e.Hit {
			t.Errorf("cold walk reported a hit on an empty store: %s", e.Key)
		}
	}
	if st := s.Stats(); st.Puts != 0 {
		t.Fatalf("walk wrote %d entries; a dry run must write nothing", st.Puts)
	}
	if st := rc.Stats(); st.Puts != 0 {
		t.Fatalf("walk wrote %d traces; a dry run must write nothing", st.Puts)
	}

	// The real run is undisturbed by the walk that preceded it.
	got := render(t, ids, o)
	ResetCaches()
	want := render(t, ids, o)
	if got != want {
		t.Errorf("render after a walk drifted from a plain render\n--- after walk ---\n%s--- plain ---\n%s", got, want)
	}

	warm, err := Prefetch(ids, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(warm) != len(cold) {
		t.Fatalf("warm walk consulted %d keys, cold walk %d; the key set must not depend on store contents", len(warm), len(cold))
	}
	for _, e := range warm {
		if !e.Hit {
			t.Errorf("warm walk missed after a real run: %s", e.Key)
		}
	}
}

// TestPrefetchUnknownID: an unknown experiment fails up front, before any
// walk state is installed, so a subsequent walk still runs.
func TestPrefetchUnknownID(t *testing.T) {
	if _, err := Prefetch([]string{"fig10", "nope"}, Options{Quick: true}); err == nil {
		t.Fatal("unknown id accepted")
	}
	tinyBudget = true
	ResetCaches()
	defer func() {
		tinyBudget = false
		ResetCaches()
	}()
	if _, err := Prefetch([]string{"fig10"}, Options{Quick: true}); err != nil {
		t.Fatalf("walk after a rejected id list failed: %v", err)
	}
}
