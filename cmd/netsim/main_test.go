package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/noc"
)

// TestMain lets a test run the command itself: a test binary started with
// "netsim" as its first argument runs main on the arguments after it.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "netsim" {
		os.Args = append(os.Args[:1], os.Args[2:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// netsim runs the command in a child process and returns its stdout.
func netsim(t *testing.T, args ...string) string {
	t.Helper()
	out, err := exec.Command(os.Args[0], append([]string{"netsim"}, args...)...).Output()
	if err != nil {
		t.Fatalf("netsim %s: %v", strings.Join(args, " "), err)
	}
	return string(out)
}

// TestTraceKindKeepsLastNOfThatKind: -trace N -tracekind K prints the last
// N events of kind K. The filter used to run only at dump time, over a ring
// that had kept the last N events of every kind, so this command printed
// an empty trace block.
func TestTraceKindKeepsLastNOfThatKind(t *testing.T) {
	out := netsim(t, "-mesh", "4", "-rate", "0.5", "-warmup", "0", "-cycles", "300",
		"-no-cache", "-trace", "3", "-tracekind", "deliver")
	_, block, ok := strings.Cut(out, "trace      :\n")
	if !ok {
		t.Fatalf("no trace block in:\n%s", out)
	}
	lines := strings.Split(strings.TrimSuffix(block, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("trace block has %d lines, want 3:\n%s", len(lines), block)
	}
	for _, l := range lines {
		if f := strings.Fields(l); len(f) < 2 || f[1] != "deliver" {
			t.Errorf("trace line %q is not a delivery", l)
		}
	}
}

// TestValidateBudget: budgets and trace filters that used to simulate first
// and print an all-zero summary (or an error after the whole run) are
// refused up front.
func TestValidateBudget(t *testing.T) {
	for _, tc := range []struct {
		name            string
		warmup, measure int64
		traceN          int
		traceKind       string
		ok              bool
	}{
		{"defaults", 60_000, 150_000, 0, "", true},
		{"no warmup, one cycle, filtered trace", 0, 1, 3, "transition", true},
		{"zero cycles", 60_000, 0, 0, "", false},
		{"negative cycles", 60_000, -5, 0, "", false},
		{"negative warmup", -7, 150_000, 0, "", false},
		{"negative trace", 60_000, 150_000, -1, "", false},
		{"largest trace", 60_000, 150_000, noc.MaxTraceEvents, "", true},
		{"trace above the ring's bound", 60_000, 150_000, noc.MaxTraceEvents + 1, "", false},
		{"trace that cannot be allocated", 0, 10, math.MaxInt, "", false},
		{"unknown trace kind", 60_000, 150_000, 3, "bogus", false},
		{"unknown trace kind without -trace", 60_000, 150_000, 0, "bogus", false},
	} {
		err := validateBudget(tc.warmup, tc.measure, tc.traceN, tc.traceKind)
		if (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// TestValidateWorkload: rates no model can run at (NaN, infinities, zero,
// more than one packet per node per cycle), bit permutations on a node
// count that is not a power of two, fewer than one task or a task duration
// of zero or less, and unknown workloads are refused up front, for every
// -traffic.
func TestValidateWorkload(t *testing.T) {
	cfg := noc.DefaultConfig() // 8x8: 64 nodes
	for _, tc := range []struct {
		traffic string
		rate    float64
		ok      bool
	}{
		{"twolevel", 0.05, true},
		{"twolevel", 64, true},
		{"twolevel", 0, false},
		{"twolevel", -1, false},
		{"twolevel", math.NaN(), false},
		{"twolevel", math.Inf(1), false},
		{"twolevel", 1e300, false},
		{"twolevel", 65, false},
		{"twolevel", 1e-12, true},
		{"twolevel", 1e-18, false}, // a source's emission gap overflows sim.Time
		{"uniform", 0.5, true},
		{"uniform", 1, true},
		{"uniform", 0, false},
		{"uniform", math.NaN(), false},
		{"uniform", 1e300, false},
		{"transpose", 1.5, false},
		{"bitreverse", math.Inf(1), false},
		{"shuffle", 0.1, true},
		{"tornado", -0.1, false},
		{"hotspot", 0, false},
		{"hotspot", 0.2, true},
		{"bogus", 0.5, false},
	} {
		w := noc.TwoLevelWorkload{Rate: tc.rate, Tasks: 100, TaskDuration: time.Millisecond}
		if err := validateWorkload(cfg, tc.traffic, w); (err == nil) != tc.ok {
			t.Errorf("-traffic %s -rate %g: err = %v, want ok=%v", tc.traffic, tc.rate, err, tc.ok)
		}
	}
	for _, tc := range []struct {
		traffic     string
		mesh, tasks int
		dur         time.Duration
		ok          bool
	}{
		{"bitreverse", 6, 100, time.Millisecond, false},
		{"shuffle", 6, 100, time.Millisecond, false},
		{"transpose", 6, 100, time.Millisecond, true},
		{"twolevel", 8, 0, time.Millisecond, false},
		{"uniform", 8, 0, time.Millisecond, false},
		{"twolevel", 8, 1, time.Millisecond, true},
		{"twolevel", 8, 100, 0, false},
		{"twolevel", 8, 100, -time.Millisecond, false},
	} {
		cfg := noc.DefaultConfig()
		cfg.MeshSize = tc.mesh
		w := noc.TwoLevelWorkload{Rate: 0.1, Tasks: tc.tasks, TaskDuration: tc.dur}
		if err := validateWorkload(cfg, tc.traffic, w); (err == nil) != tc.ok {
			t.Errorf("-traffic %s -mesh %d -tasks %d -taskdur %v: err = %v, want ok=%v",
				tc.traffic, tc.mesh, tc.tasks, tc.dur, err, tc.ok)
		}
	}
}

// TestResolve: a -config file is the platform and only the flags given
// explicitly override it; the two-level workload draws from the resolved
// seed, and the summary header prints the resolved platform.
func TestResolve(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cfg.json")
	if err := os.WriteFile(path, []byte(`{"Seed": 5, "MeshSize": 4}`), 0o644); err != nil {
		t.Fatal(err)
	}
	flags := noc.DefaultConfig()
	flags.Seed = 7
	w := noc.TwoLevelWorkload{Rate: 1, Tasks: 100, TaskDuration: time.Millisecond}
	for _, tc := range []struct {
		name       string
		path       string
		set        map[string]bool
		seed, mesh int
	}{
		{"flags only", "", nil, 7, 8},
		{"config seed without -seed", path, nil, 5, 4},
		{"-seed overrides the config", path, map[string]bool{"seed": true}, 7, 4},
	} {
		cfg, got, err := resolve(tc.path, tc.set, flags, w)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if cfg.Seed != uint64(tc.seed) || got.Seed != uint64(tc.seed) {
			t.Errorf("%s: config seed %d, workload seed %d; want %d", tc.name, cfg.Seed, got.Seed, tc.seed)
		}
		var out bytes.Buffer
		printSummary(&out, noc.Results{}, 0, cfg, "twolevel", got, 0)
		if header, _, _ := strings.Cut(out.String(), "\n"); !strings.Contains(header, fmt.Sprintf(" %dx%d mesh", tc.mesh, tc.mesh)) {
			t.Errorf("%s: header %q, want a %dx%d mesh", tc.name, header, tc.mesh, tc.mesh)
		}
	}
}
