package tracestore

import (
	"testing"

	"repro/internal/runcache"
	"repro/internal/sim"
)

func testStore(t *testing.T) *Store {
	t.Helper()
	rc, err := runcache.Open(t.TempDir(), runcache.Options{Fingerprint: "trace-test"})
	if err != nil {
		t.Fatal(err)
	}
	return NewStore(rc)
}

func TestStoreRoundTrip(t *testing.T) {
	s := testStore(t)
	enc := EncodeRecords("twolevel", 4242, synthRecords(DefaultBlockLen+33, 9))
	const key = "trace|v1|test"

	if _, ok := s.Load(key); ok {
		t.Fatal("empty store served a trace")
	}
	if err := s.Save(key, enc); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Load(key)
	if !ok {
		t.Fatal("saved trace not loadable")
	}
	if got.Name() != enc.Name() || got.Horizon() != enc.Horizon() || got.Len() != enc.Len() {
		t.Fatalf("loaded header (name=%q horizon=%d len=%d) differs from saved (%q %d %d)",
			got.Name(), got.Horizon(), got.Len(), enc.Name(), enc.Horizon(), enc.Len())
	}
	want, _ := enc.DecodeAll()
	have, err := got.DecodeAll()
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if have[i] != want[i] {
			t.Fatalf("record %d = %+v, want %+v", i, have[i], want[i])
		}
	}
}

// An entry that passes runcache's checksum but is not a decodable trace
// must be dropped on load, not served or retried forever.
func TestStoreDropsUndecodableEntry(t *testing.T) {
	rc, err := runcache.Open(t.TempDir(), runcache.Options{Fingerprint: "trace-test"})
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore(rc)
	const key = "trace|v1|bogus"
	if err := rc.Put(key, []byte("not a trace")); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Load(key); ok {
		t.Fatal("undecodable entry served")
	}
	if _, ok := rc.Get(key); ok {
		t.Fatal("undecodable entry still resident after Load dropped it")
	}
	if st := rc.Stats(); st.CorruptDropped == 0 {
		t.Fatal("drop not counted")
	}
}

// A trace whose payload was rewritten to pass runcache's checksum but fail
// Validate (cross-block time regression) must also be dropped.
func TestStoreDropsInvalidTrace(t *testing.T) {
	rc, err := runcache.Open(t.TempDir(), runcache.Options{Fingerprint: "trace-test"})
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore(rc)
	bad := spliceRegression(t)
	const key = "trace|v1|invalid"
	if err := rc.Put(key, bad); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Load(key); ok {
		t.Fatal("time-regressing trace served")
	}
	if _, ok := rc.Get(key); ok {
		t.Fatal("invalid trace still resident")
	}
}

// spliceRegression builds a CRC-valid two-block encoding whose second
// block opens earlier than the first block closes.
func spliceRegression(t *testing.T) []byte {
	t.Helper()
	recs := make([]Record, DefaultBlockLen+1)
	for i := range recs {
		recs[i] = Record{At: sim.Time(i), Src: 1, Dst: 2}
	}
	// Last record (block 1's leading, absolute) rewound before block 0's
	// end. Block-leading records encode absolute timestamps, so bypassing
	// Append's ordering panic by resetting prevAt yields a structurally
	// valid encoding that only Validate can reject.
	recs[DefaultBlockLen].At = 0
	e := &Encoder{name: "m", horizon: 1 << 20}
	for _, r := range recs {
		if r.At < e.prevAt {
			e.prevAt = r.At
		}
		e.Append(r)
	}
	enc := e.Finish()
	if err := enc.Validate(); err == nil {
		t.Fatal("fixture did not produce a cross-block regression")
	}
	return enc.Bytes()
}
