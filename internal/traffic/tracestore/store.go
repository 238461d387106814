package tracestore

import "repro/internal/runcache"

// Store persists encoded traces through a runcache.Store under the
// caller's keys. The fingerprint requirements, atomic-write discipline and
// corruption quarantine are runcache's; this layer adds only encode/decode,
// and runcache's Load drops an entry that fails decode.
type Store struct {
	rc *runcache.Store
}

// NewStore wraps an already-open runcache handle, fingerprint and all.
func NewStore(rc *runcache.Store) *Store { return &Store{rc: rc} }

// Load returns the decoded trace stored under key, if present and valid —
// including the full Validate pass, so a loaded trace is guaranteed to
// replay a schedule some capture actually produced. An entry that passes
// runcache's checksum but fails trace decode or validation (schema skew
// within one fingerprint should make this unreachable) is dropped, and
// counted as a miss, so the next capture overwrites it.
func (s *Store) Load(key string) (*Encoded, bool) {
	var enc *Encoded
	ok := s.rc.Load(key, func(payload []byte) (err error) {
		if enc, err = Decode(payload); err == nil {
			err = enc.Validate()
		}
		return err
	})
	if !ok {
		return nil, false
	}
	return enc, true
}

// Save persists an encoded trace under key.
func (s *Store) Save(key string, enc *Encoded) error {
	return s.rc.Put(key, enc.Bytes())
}
