package main

import "testing"

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
