package noc

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/exp"
	"repro/internal/runcache"
)

// TestRunCacheSummaryKeepsLayout: a summary stored through
// RunCacheStoreSummary is the record encoding/binary writes for
// {Results, InFlight int64}, the layout netsim's entries have always had,
// and it reads back bit for bit.
func TestRunCacheSummaryKeepsLayout(t *testing.T) {
	s, err := runcache.Open(t.TempDir(), runcache.Options{Fingerprint: "noc-summary-test"})
	if err != nil {
		t.Fatal(err)
	}
	exp.SetDiskCache(s)
	defer exp.SetDiskCache(nil)

	r := Results{
		Cycles:            math.MaxInt64,
		InjectedPackets:   math.MinInt64,
		DeliveredPackets:  7,
		MeanLatencyCycles: math.Copysign(0, -1),
		P50LatencyCycles:  math.NaN(),
		P99LatencyCycles:  math.Inf(1),
		ThroughputPkts:    math.Inf(-1),
		AvgPowerW:         math.SmallestNonzeroFloat64,
		NormalizedPower:   math.MaxFloat64,
		PowerSavingsX:     1.0 / 3,
	}
	const inFlight = -42
	if _, _, ok := RunCacheLookupSummary("k"); ok {
		t.Fatal("an empty store served a summary")
	}
	RunCacheStoreSummary("k", r, inFlight)

	var want bytes.Buffer
	if err := binary.Write(&want, binary.LittleEndian, struct {
		Results  Results
		InFlight int64
	}{r, inFlight}); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get("k"); !ok || !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("stored %x; want %x", got, want.Bytes())
	}
	got, gotInFlight, ok := RunCacheLookupSummary("k")
	if !ok {
		t.Fatalf("stored summary not served: %+v", s.Stats())
	}
	var again bytes.Buffer
	binary.Write(&again, binary.LittleEndian, struct {
		Results  Results
		InFlight int64
	}{got, gotInFlight})
	if !bytes.Equal(again.Bytes(), want.Bytes()) {
		t.Errorf("summary read back as %x; want %x", again.Bytes(), want.Bytes())
	}
}
