package harness

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestOrderStatistics(t *testing.T) {
	xs := []float64{3.0, 1.0, 7.5, 2.0, 9.0}
	if got := Min(xs); got != 1.0 {
		t.Errorf("Min = %v, want 1", got)
	}
	if got := Median(xs); got != 3.0 {
		t.Errorf("Median = %v, want 3", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("Median of four = %v, want 2.5", got)
	}
	// 0.9 of the way from index 0 to 4 is position 3.6: 7.5 + 0.6*(9-7.5).
	if got := Quantile(xs, 0.9); !near(got, 8.4) {
		t.Errorf("Quantile(0.9) = %v, want 8.4", got)
	}
	if xs[0] != 3.0 {
		t.Error("Quantile sorted its input in place")
	}
	s := Summarize(xs)
	if s.Min != 1.0 || s.Median != 3.0 || !near(s.P90, 8.4) || s.N != 5 {
		t.Errorf("Summarize = %+v", s)
	}
	if !math.IsNaN(Min(nil)) || !math.IsNaN(Median(nil)) {
		t.Error("empty series must give NaN")
	}
}

// The expected values are what Python's statistics.quantiles(v, n=4)
// prints for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3.0, 1.0, 7.5, 2.0, 9.0}, 1.5, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
	} {
		q1, q3 := Quartiles(c.v)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("Quartiles(%v) = %v, %v; want %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
	if got := Spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1.0) {
		t.Errorf("Spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestSelfTimeIsDurationMinusChildCover(t *testing.T) {
	spans := []Span{
		{ID: 1, Parent: 0, StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, StartNS: 10, EndNS: 40},
		{ID: 3, Parent: 1, StartNS: 30, EndNS: 60},  // overlaps span 2 by 10
		{ID: 4, Parent: 1, StartNS: 90, EndNS: 120}, // runs past its parent
		{ID: 5, Parent: 2, StartNS: 10, EndNS: 15},
	}
	self := SelfTimes(spans)
	// Children cover [10,60] and [90,100] of [0,100]: 60 in all.
	want := map[int]int64{1: 40, 2: 25, 3: 30, 4: 30, 5: 5}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
}

func TestTracer(t *testing.T) {
	var off *Tracer
	sp := off.Start("x", nil, 1)
	sp.End() // a nil tracer and a nil span are no-ops
	if off.Spans() != nil {
		t.Error("nil tracer recorded spans")
	}

	tr := NewTracer()
	root := tr.Start("run", nil, 0)
	rep := tr.Start("rep", root, 3)
	rep.End()
	probe := tr.Start("probe", nil, 0)
	probe.End()
	tr.Graft(probe, []Span{{ID: 1, Name: "a", StartNS: 5, EndNS: 9}, {ID: 2, Parent: 1, Name: "b", StartNS: 6, EndNS: 7}})
	root.End()
	got := tr.Spans()
	if len(got) != 5 || got[1].Parent != got[0].ID || got[1].Rep != 3 {
		t.Fatalf("spans = %+v", got)
	}
	if got[3].Parent != probe.ID || got[4].Parent != got[3].ID || got[3].StartNS != probe.StartNS+5 {
		t.Errorf("grafted spans = %+v, %+v under %+v", got[3], got[4], *probe)
	}
	path := filepath.Join(t.TempDir(), "spans.json")
	if err := tr.WriteFile(path, "w", 7); err != nil {
		t.Fatal(err)
	}
	if b, err := os.ReadFile(path); err != nil || len(b) == 0 {
		t.Errorf("span file: %v, %d bytes", err, len(b))
	}
}

func TestValidName(t *testing.T) {
	for _, ok := range []string{"setup_s", "router.tick_loaded_ns", "point-sat", "9lives", "A.b-c_d"} {
		if !ValidName(ok) {
			t.Errorf("ValidName(%q) = false", ok)
		}
	}
	long := make([]byte, 65)
	for i := range long {
		long[i] = 'a'
	}
	for _, bad := range []string{"", ".x", "-x", "_x", "a b", "a/b", "a%", "é", string(long)} {
		if ValidName(bad) {
			t.Errorf("ValidName(%q) = true", bad)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Set accepted an invalid name")
		}
	}()
	Metrics{}.Set("a b", 1, "s")
}

func TestResultRoundTrip(t *testing.T) {
	m := Metrics{}
	m.Set("rep_wall_s", 0.671075891, "s")
	m.Set("setup_s", 0.894534064, "s")
	want := Result{Correct: true, Attempted: 9, Failed: 0, Metrics: m}
	out := "workload point-sat\nrep_wall_s 0.67 s\n" + want.Line() + "\n\n"
	got, err := ParseLastLine([]byte(out))
	if err != nil {
		t.Fatal(err)
	}
	if got.Correct != want.Correct || got.Attempted != 9 || got.Failed != 0 || len(got.Metrics) != 2 ||
		got.Metrics["rep_wall_s"] != want.Metrics["rep_wall_s"] {
		t.Errorf("round trip = %+v, want %+v", got, want)
	}
	if _, err := ParseLastLine([]byte("no json here\n")); err == nil {
		t.Error("a line that is not a result was accepted")
	}
	if _, err := ParseLastLine(nil); err == nil {
		t.Error("empty output was accepted")
	}
}

func TestMinPerOp(t *testing.T) {
	calls := 0
	got := MinPerOp(4, 10, func() { calls++ })
	if calls != 4 || got < 0 {
		t.Errorf("MinPerOp made %d calls and returned %v", calls, got)
	}
}

// A probe that does not compile is reported as absent (ErrProbeBuild), and
// one that does has its last line decoded.
func TestRunProbe(t *testing.T) {
	mod := t.TempDir()
	write := func(rel, content string) {
		t.Helper()
		p := filepath.Join(mod, rel)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module probetest\n\ngo 1.22\n")
	write("layers/gone/main.go", "package main\n\nimport \"probetest/deleted\"\n\nfunc main() { deleted.F() }\n")
	write("layers/good/main.go", "package main\n\nimport \"fmt\"\n\nfunc main() {\n\tfmt.Println(\"noise\")\n\tfmt.Println(`{\"metrics\":{\"good.op_ns\":{\"value\":12.5,\"unit\":\"ns\"}},\"spans\":[{\"id\":1,\"name\":\"s\",\"start_ns\":1,\"end_ns\":2}]}`)\n}\n")
	bin := t.TempDir()

	if _, err := RunProbe(mod, "./layers/gone", bin); !errors.Is(err, ErrProbeBuild) {
		t.Errorf("a probe that does not build gave %v, want ErrProbeBuild", err)
	}
	out, err := RunProbe(mod, "./layers/good", bin)
	if err != nil {
		t.Fatal(err)
	}
	if out.Metrics["good.op_ns"] != (Metric{Value: 12.5, Unit: "ns"}) || len(out.Spans) != 1 {
		t.Errorf("probe output = %+v", out)
	}
}
