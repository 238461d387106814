// Package tracestore is the compact binary codec for captured arrival
// traces. A two-level workload's arrival sequence is pure data — (time,
// task, source, destination) tuples in non-decreasing time order — so a
// capture encodes it once and every replay streams from the encoded form.
// Store persists encodings through an internal/runcache handle; no
// production path installs one (a disk trace store saved under 2 % over a
// live capture, DESIGN §13), and it stays for its benchmark probe.
//
// The encoding is block-structured so replay can stream: records are
// grouped into fixed-size blocks (DefaultBlockLen records), each block
// delta-encoded from its own leading record, so any block decodes
// independently of the rest. A replaying simulation holds one decoded block
// per cursor — kilobytes — instead of the materialized arrival slice that
// bounded trace budgets before; seeking (checkpoint resume) costs one block
// decode.
//
// Wire layout (all integers varint unless noted):
//
//	magic "NOCTRCE1" (8 bytes raw)
//	schema version
//	name length, name bytes
//	horizon (picoseconds)
//	record count
//	block length (records per full block)
//	block count, then one encoded byte length per block
//	block payloads, concatenated
//	CRC-32C over everything above (4 bytes little-endian, raw)
//
// Block payload, per record: the leading record carries its absolute
// timestamp (uvarint) and task id (zigzag varint); followers carry the
// non-negative timestamp delta and the zigzag task delta. Source and
// destination nodes are raw uvarints. Decode verifies the checksum and
// every structural invariant up front and bounds-checks every read, so a
// truncated or bit-flipped payload is an error, never a panic or a
// plausible-but-wrong trace (FuzzTraceDecode pins this).
package tracestore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/sim"
)

// SchemaVersion versions the wire layout. Bump it whenever the encoding
// changes; it is in the header, so old encodings fail to decode instead of
// misdecoding.
const SchemaVersion = 1

// DefaultBlockLen is the number of records per full block: 4096 records
// decode to ~96 KiB, small enough that per-cursor memory is negligible and
// large enough that per-block overhead (absolute leading record, length
// table entry) is noise.
const DefaultBlockLen = 4096

// Decode guards: a hostile header must not drive allocation. Blocks beyond
// maxBlockLen or names beyond maxNameLen are structurally invalid.
const (
	maxBlockLen = 1 << 20
	maxNameLen  = 1 << 12
)

var magic = []byte("NOCTRCE1")

// crcTable is CRC-32C (Castagnoli), hardware-accelerated on amd64/arm64.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Record is one recorded packet injection. internal/traffic aliases its
// Arrival type to this, so traces encode without conversion.
type Record struct {
	At   sim.Time
	Task int64
	// Src and Dst are int32 to keep decoded blocks compact; node counts
	// are far below 2^31.
	Src, Dst int32
}

// Encoder builds an encoded trace incrementally, in arrival order, so a
// capture never materializes the raw record slice: Append delta-encodes
// into the current block and Finish seals the header and checksum.
type Encoder struct {
	name    string
	horizon sim.Time

	count    int
	prevAt   sim.Time
	prevTask int64

	cur        []byte // current block payload under construction
	curN       int    // records in cur
	payload    []byte // sealed block payloads
	blockSizes []int
	done       bool
}

// NewEncoder starts a trace for the named model and capture horizon.
func NewEncoder(name string, horizon sim.Time) *Encoder {
	if horizon < 0 {
		panic(fmt.Sprintf("tracestore: negative horizon %d", horizon))
	}
	if len(name) > maxNameLen {
		panic(fmt.Sprintf("tracestore: model name of %d bytes exceeds the %d-byte bound", len(name), maxNameLen))
	}
	return &Encoder{name: name, horizon: horizon}
}

// Append encodes one record. Records must arrive in non-decreasing time
// order with non-negative endpoints — the capture scheduler guarantees
// both, so violations are programmer errors and panic.
func (e *Encoder) Append(r Record) {
	switch {
	case e.done:
		panic("tracestore: Append after Finish")
	case r.At < 0 || r.At < e.prevAt && e.count > 0:
		panic(fmt.Sprintf("tracestore: record at %d out of time order (previous %d)", r.At, e.prevAt))
	case r.Src < 0 || r.Dst < 0:
		panic(fmt.Sprintf("tracestore: record with negative endpoint %d->%d", r.Src, r.Dst))
	}
	if e.curN == 0 {
		// Block-leading record: absolute values, so the block decodes
		// without its predecessors.
		e.cur = binary.AppendUvarint(e.cur, uint64(r.At))
		e.cur = appendZigzag(e.cur, r.Task)
	} else {
		e.cur = binary.AppendUvarint(e.cur, uint64(r.At-e.prevAt))
		e.cur = appendZigzag(e.cur, r.Task-e.prevTask)
	}
	e.cur = binary.AppendUvarint(e.cur, uint64(r.Src))
	e.cur = binary.AppendUvarint(e.cur, uint64(r.Dst))
	e.prevAt, e.prevTask = r.At, r.Task
	e.curN++
	e.count++
	if e.curN == DefaultBlockLen {
		e.flushBlock()
	}
}

func (e *Encoder) flushBlock() {
	e.payload = append(e.payload, e.cur...)
	e.blockSizes = append(e.blockSizes, len(e.cur))
	e.cur = e.cur[:0]
	e.curN = 0
}

// Len reports the number of records appended so far.
func (e *Encoder) Len() int { return e.count }

// Finish seals the trace: header, block table, payloads, checksum. The
// encoder must not be appended to afterwards.
func (e *Encoder) Finish() *Encoded {
	if e.done {
		panic("tracestore: Finish called twice")
	}
	if e.curN > 0 {
		e.flushBlock()
	}
	e.done = true

	hdr := append([]byte(nil), magic...)
	hdr = binary.AppendUvarint(hdr, SchemaVersion)
	hdr = binary.AppendUvarint(hdr, uint64(len(e.name)))
	hdr = append(hdr, e.name...)
	hdr = binary.AppendUvarint(hdr, uint64(e.horizon))
	hdr = binary.AppendUvarint(hdr, uint64(e.count))
	hdr = binary.AppendUvarint(hdr, uint64(DefaultBlockLen))
	hdr = binary.AppendUvarint(hdr, uint64(len(e.blockSizes)))
	for _, n := range e.blockSizes {
		hdr = binary.AppendUvarint(hdr, uint64(n))
	}

	buf := make([]byte, 0, len(hdr)+len(e.payload)+4)
	buf = append(buf, hdr...)
	buf = append(buf, e.payload...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, crcTable))

	enc := &Encoded{
		name:     e.name,
		horizon:  e.horizon,
		count:    e.count,
		blockLen: DefaultBlockLen,
		buf:      buf,
	}
	enc.blockOff = make([]int, len(e.blockSizes)+1)
	off := len(hdr)
	for i, n := range e.blockSizes {
		enc.blockOff[i] = off
		off += n
	}
	enc.blockOff[len(e.blockSizes)] = off
	return enc
}

// EncodeRecords encodes a complete record slice in one call (tests and
// tooling; captures use the incremental Encoder).
func EncodeRecords(name string, horizon sim.Time, recs []Record) *Encoded {
	e := NewEncoder(name, horizon)
	for _, r := range recs {
		e.Append(r)
	}
	return e.Finish()
}

// Encoded is an encoded trace: the wire bytes plus the block offset table
// derived from the header. The wire form is immutable and safe to share
// across goroutines; mutable decode state lives either in per-caller
// cursors (DecodeBlock) or behind the internal lock of the shared decoded-
// block cache (SharedBlock).
type Encoded struct {
	name     string
	horizon  sim.Time
	count    int
	blockLen int
	buf      []byte
	blockOff []int // len Blocks()+1, byte offsets into buf

	// Shared decoded-block cache: a small move-to-front LRU serving
	// concurrent replays of the same trace, so N cursors walking the
	// blocks near-lockstep decode each block once instead of N times.
	// decodes counts actual block decodes (DecodeCount pins this).
	mu      sync.Mutex
	shared  []cachedBlock
	decodes int64
}

// cachedBlock is one shared decoded block; recs is read-only once cached.
type cachedBlock struct {
	idx  int
	recs []Record
}

// sharedCacheBlocks bounds the shared decoded-block LRU. Concurrent
// replays of one trace advance near-lockstep (they walk the same recorded
// schedule), so a handful of blocks absorbs their skew; 8 blocks of 4096
// records is ~768 KiB at the default block length.
const sharedCacheBlocks = 8

// Bytes returns the wire form, suitable for Decode; callers must not
// mutate it.
func (e *Encoded) Bytes() []byte { return e.buf }

// Name reports the captured model's name.
func (e *Encoded) Name() string { return e.name }

// Horizon reports the capture horizon.
func (e *Encoded) Horizon() sim.Time { return e.horizon }

// Len reports the total record count.
func (e *Encoded) Len() int { return e.count }

// BlockLen reports the records-per-full-block grouping.
func (e *Encoded) BlockLen() int { return e.blockLen }

// Blocks reports the block count.
func (e *Encoded) Blocks() int { return len(e.blockOff) - 1 }

// SizeBytes reports the encoded size, the unit the trace cache budgets.
func (e *Encoded) SizeBytes() int { return len(e.buf) }

// reader is a bounds-checked varint cursor over one byte slice.
type reader struct {
	b    []byte
	off  int
	fail bool
}

func (r *reader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail = true
		return 0
	}
	r.off += n
	return v
}

func appendZigzag(b []byte, v int64) []byte {
	return binary.AppendUvarint(b, uint64(v)<<1^uint64(v>>63))
}

func (r *reader) zigzag() int64 {
	u := r.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Decode parses and verifies an encoded trace: magic, schema version,
// checksum, and every structural invariant (name and block-length bounds,
// block count consistent with the record count, block sizes summing exactly
// to the payload). Record payloads are verified lazily by DecodeBlock; the
// checksum already covers their bytes, so a Decode-accepted trace never
// fails a block decode short of memory corruption.
func Decode(b []byte) (*Encoded, error) {
	if len(b) < len(magic)+4 {
		return nil, fmt.Errorf("tracestore: %d bytes is shorter than any trace", len(b))
	}
	for i, m := range magic {
		if b[i] != m {
			return nil, fmt.Errorf("tracestore: bad magic")
		}
	}
	body, tail := b[:len(b)-4], b[len(b)-4:]
	if got, want := crc32.Checksum(body, crcTable), binary.LittleEndian.Uint32(tail); got != want {
		return nil, fmt.Errorf("tracestore: checksum mismatch (%08x != %08x)", got, want)
	}
	r := reader{b: body, off: len(magic)}
	version := r.uvarint()
	nameLen := r.uvarint()
	if r.fail || version != SchemaVersion {
		return nil, fmt.Errorf("tracestore: unsupported schema version")
	}
	if nameLen > maxNameLen || int(nameLen) > len(body)-r.off {
		return nil, fmt.Errorf("tracestore: name length %d out of bounds", nameLen)
	}
	name := string(body[r.off : r.off+int(nameLen)])
	r.off += int(nameLen)
	horizon := r.uvarint()
	count := r.uvarint()
	blockLen := r.uvarint()
	nblocks := r.uvarint()
	if r.fail {
		return nil, fmt.Errorf("tracestore: truncated header")
	}
	if horizon > math.MaxInt64 {
		return nil, fmt.Errorf("tracestore: horizon %d out of range", horizon)
	}
	if blockLen < 1 || blockLen > maxBlockLen {
		return nil, fmt.Errorf("tracestore: block length %d out of range", blockLen)
	}
	if count > uint64(len(body)) {
		// Every record costs at least one payload byte; a larger claim is
		// structurally impossible and must not drive allocation.
		return nil, fmt.Errorf("tracestore: record count %d exceeds payload bound", count)
	}
	wantBlocks := (count + blockLen - 1) / blockLen
	if nblocks != wantBlocks {
		return nil, fmt.Errorf("tracestore: %d blocks for %d records at block length %d (want %d)", nblocks, count, blockLen, wantBlocks)
	}
	blockOff := make([]int, nblocks+1)
	off := 0
	for i := uint64(0); i < nblocks; i++ {
		n := r.uvarint()
		if r.fail || n < 1 || n > uint64(len(body)) {
			return nil, fmt.Errorf("tracestore: block %d length out of bounds", i)
		}
		blockOff[i] = off
		off += int(n)
		if off > len(body) {
			return nil, fmt.Errorf("tracestore: block lengths exceed payload")
		}
	}
	blockOff[nblocks] = off
	if r.fail {
		return nil, fmt.Errorf("tracestore: truncated block table")
	}
	if len(body)-r.off != off {
		return nil, fmt.Errorf("tracestore: %d payload bytes, block table claims %d", len(body)-r.off, off)
	}
	for i := range blockOff {
		blockOff[i] += r.off
	}
	return &Encoded{
		name:     name,
		horizon:  sim.Time(horizon),
		count:    int(count),
		blockLen: int(blockLen),
		buf:      b,
		blockOff: blockOff,
	}, nil
}

// blockRecords reports how many records block i holds (full blocks, except
// possibly the last).
func (e *Encoded) blockRecords(i int) int {
	if n := e.count - i*e.blockLen; n < e.blockLen {
		return n
	}
	return e.blockLen
}

// DecodeBlock decodes block i into dst (reusing its capacity) and returns
// the record slice. Every read is bounds-checked and every decoded field
// range-checked, so a corrupt payload — unreachable behind Decode's
// checksum, but possible when callers hand-construct an Encoded — returns
// an error rather than panicking or fabricating records.
func (e *Encoded) DecodeBlock(i int, dst []Record) ([]Record, error) {
	if i < 0 || i >= e.Blocks() {
		return nil, fmt.Errorf("tracestore: block %d outside [0,%d)", i, e.Blocks())
	}
	atomic.AddInt64(&e.decodes, 1)
	n := e.blockRecords(i)
	r := reader{b: e.buf[:e.blockOff[i+1]], off: e.blockOff[i]}
	dst = dst[:0]
	var at sim.Time
	var task int64
	for k := 0; k < n; k++ {
		du := r.uvarint()
		dt := r.zigzag()
		src := r.uvarint()
		dstNode := r.uvarint()
		if r.fail {
			return nil, fmt.Errorf("tracestore: block %d truncated at record %d", i, k)
		}
		if k == 0 {
			if du > math.MaxInt64 {
				return nil, fmt.Errorf("tracestore: block %d leading timestamp out of range", i)
			}
			at, task = sim.Time(du), dt
		} else {
			if du > uint64(math.MaxInt64-at) {
				return nil, fmt.Errorf("tracestore: block %d timestamp overflow at record %d", i, k)
			}
			at += sim.Time(du)
			task += dt
		}
		if src > math.MaxInt32 || dstNode > math.MaxInt32 {
			return nil, fmt.Errorf("tracestore: block %d record %d endpoint out of range", i, k)
		}
		dst = append(dst, Record{At: at, Task: task, Src: int32(src), Dst: int32(dstNode)})
	}
	if r.off != e.blockOff[i+1] {
		return nil, fmt.Errorf("tracestore: block %d has %d trailing bytes", i, e.blockOff[i+1]-r.off)
	}
	return dst, nil
}

// SharedBlock returns block i decoded, serving it from the trace's shared
// decoded-block cache when present. The returned slice is shared between
// callers and MUST be treated as read-only; it stays valid after eviction
// (eviction only stops sharing it). Decoding happens under the cache lock,
// so concurrent callers asking for the same block perform one decode
// between them — the property the decode-count test pins.
func (e *Encoded) SharedBlock(i int) ([]Record, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for k := range e.shared {
		if e.shared[k].idx == i {
			cb := e.shared[k]
			copy(e.shared[1:k+1], e.shared[:k])
			e.shared[0] = cb
			return cb.recs, nil
		}
	}
	recs, err := e.DecodeBlock(i, nil)
	if err != nil {
		return nil, err
	}
	if len(e.shared) < sharedCacheBlocks {
		e.shared = append(e.shared, cachedBlock{})
	}
	copy(e.shared[1:], e.shared[:len(e.shared)-1])
	e.shared[0] = cachedBlock{idx: i, recs: recs}
	return recs, nil
}

// DecodeCount reports the number of block decodes performed through this
// Encoded (shared-cache hits do not decode and do not count).
func (e *Encoded) DecodeCount() int64 { return atomic.LoadInt64(&e.decodes) }

// Validate streams every block through a reused buffer and verifies the
// one invariant the structural checks cannot see: global time order.
// Within a block, order is guaranteed by construction (deltas are
// unsigned varints), but each block leads with an absolute timestamp, so
// a hand-assembled payload with a recomputed checksum could make a block
// open earlier than its predecessor closed. Encoder output always
// validates; Store.Load validates so replays never see a
// schedule no capture could have produced. Cost is one sequential decode
// pass — small next to the capture it replaces, and O(block) memory.
func (e *Encoded) Validate() error {
	var buf []Record
	last := sim.Time(math.MinInt64)
	for i := 0; i < e.Blocks(); i++ {
		recs, err := e.DecodeBlock(i, buf)
		if err != nil {
			return err
		}
		if len(recs) > 0 {
			if recs[0].At < last {
				return fmt.Errorf("tracestore: block %d opens at %d, before its predecessor's last record at %d", i, recs[0].At, last)
			}
			last = recs[len(recs)-1].At
		}
		buf = recs
	}
	return nil
}

// DecodeAll decodes every record (tests and tooling; simulations stream
// block-by-block through cursors instead).
func (e *Encoded) DecodeAll() ([]Record, error) {
	out := make([]Record, 0, e.count)
	buf := make([]Record, 0, e.blockLen)
	for i := 0; i < e.Blocks(); i++ {
		recs, err := e.DecodeBlock(i, buf)
		if err != nil {
			return nil, err
		}
		out = append(out, recs...)
	}
	return out, nil
}
