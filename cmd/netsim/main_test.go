package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/noc"
)

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
// more than one packet per node per cycle) and unknown workloads are
// refused up front, for every -traffic.
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
