package exp

import (
	"sort"
	"testing"
)

// TestPrefetchReportsMissesThenHits: a walk over an empty store reports
// every key as a miss without running a
// simulation or writing anything; the same walk after a real run reports
// every key as a hit. The real run after a walk must still render the same
// bytes as one with no walk before it — the zero-valued placeholders a
// walk memoizes must not leak.
func TestPrefetchReportsMissesThenHits(t *testing.T) {
	t.Parallel()
	s, _ := testStore(t)
	ses := tinySession(s, 0)

	ids := []string{"fig10", "tab1"}
	o := Options{Quick: true}

	cold, err := ses.Prefetch(ids, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(cold) == 0 {
		t.Fatal("cold walk consulted no keys")
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
	if n := len(ses.runCache.entries); n != 0 {
		t.Fatalf("walk memoized %d results in the session it was called on; want 0", n)
	}

	// The real run is undisturbed by the walk that preceded it.
	got := render(t, ses, o, ids...)
	want := render(t, tinySession(s, 0), o, ids...)
	if got != want {
		t.Errorf("render after a walk drifted from a plain render\n--- after walk ---\n%s--- plain ---\n%s", got, want)
	}

	warm, err := ses.Prefetch(ids, o)
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

// TestQuickFullRefused: Quick and Full name different budgets, so every
// entry point refuses the pair up front rather than run one of them.
func TestQuickFullRefused(t *testing.T) {
	o := Options{Quick: true, Full: true}
	if _, err := Run("fig10", o); err == nil {
		t.Error("Run accepted Quick and Full together")
	}
	if _, err := RunAll([]string{"fig10"}, o); err == nil {
		t.Error("RunAll accepted Quick and Full together")
	}
	if _, err := Prefetch([]string{"fig10"}, o); err == nil {
		t.Error("Prefetch accepted Quick and Full together")
	}
	if defaultSession.Load().walk != nil {
		t.Error("a refused Prefetch left walk state installed")
	}
}

// TestPrefetchUnknownID: an unknown experiment fails up front, before any
// walk state is installed, so a subsequent walk still runs.
func TestPrefetchUnknownID(t *testing.T) {
	ses := tinySession(nil, 0)
	if _, err := ses.Prefetch([]string{"fig10", "nope"}, Options{Quick: true}); err == nil {
		t.Fatal("unknown id accepted")
	}
	if _, err := ses.Prefetch([]string{"fig10"}, Options{Quick: true}); err != nil {
		t.Fatalf("walk after a rejected id list failed: %v", err)
	}
}
