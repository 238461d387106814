package checkpoint

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
)

// Binary snapshot codec. The format is a fixed header (magic + schema
// version) followed by a reflection-driven walk of the state tree in
// declaration order: fixed-width little-endian scalars (floats as IEEE
// bits, so every value — NaN payloads included — round-trips exactly),
// length-prefixed slices and strings, presence-prefixed pointers. The
// decoder is defensive by construction: every read is bounds-checked,
// slice lengths are validated against the bytes actually remaining, and
// slices grow element by element as input is consumed rather than being
// preallocated from an attacker-controlled count — arbitrary or corrupted
// input can produce an error, never a panic or an outsized allocation.

// SchemaVersion identifies the snapshot wire format. Bump it whenever any
// captured struct changes shape; persisted snapshots from other schemas
// fail to decode and are re-captured.
const SchemaVersion = 2

var magic = [8]byte{'n', 'o', 'c', 'c', 'k', 'p', 't', '1'}

// Encode serializes a snapshot. Encoding is deterministic: equal snapshots
// produce equal bytes.
func Encode(s *Snapshot) ([]byte, error) {
	buf := make([]byte, 0, 1<<16)
	buf = append(buf, magic[:]...)
	buf = binary.LittleEndian.AppendUint16(buf, SchemaVersion)
	return encodeValue(buf, reflect.ValueOf(&s.State).Elem())
}

// Decode parses a snapshot. It returns an error — never panics — on
// truncated, corrupted or arbitrary input, including trailing garbage.
func Decode(b []byte) (*Snapshot, error) {
	if len(b) < len(magic)+2 {
		return nil, fmt.Errorf("checkpoint: snapshot shorter than its header")
	}
	if [8]byte(b[:8]) != magic {
		return nil, fmt.Errorf("checkpoint: bad snapshot magic")
	}
	if v := binary.LittleEndian.Uint16(b[8:10]); v != SchemaVersion {
		return nil, fmt.Errorf("checkpoint: snapshot schema %d, want %d", v, SchemaVersion)
	}
	d := &decoder{buf: b, off: 10}
	s := &Snapshot{}
	if err := d.value(reflect.ValueOf(&s.State).Elem()); err != nil {
		return nil, err
	}
	if d.off != len(d.buf) {
		return nil, fmt.Errorf("checkpoint: %d trailing bytes after snapshot", len(d.buf)-d.off)
	}
	return s, nil
}

func encodeValue(buf []byte, v reflect.Value) ([]byte, error) {
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			return append(buf, 1), nil
		}
		return append(buf, 0), nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return binary.LittleEndian.AppendUint64(buf, uint64(v.Int())), nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return binary.LittleEndian.AppendUint64(buf, v.Uint()), nil
	case reflect.Float64:
		return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.Float())), nil
	case reflect.String:
		s := v.String()
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
		return append(buf, s...), nil
	case reflect.Slice:
		n := v.Len()
		buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
		var err error
		for i := 0; i < n; i++ {
			if buf, err = encodeValue(buf, v.Index(i)); err != nil {
				return nil, err
			}
		}
		return buf, nil
	case reflect.Array:
		var err error
		for i := 0; i < v.Len(); i++ {
			if buf, err = encodeValue(buf, v.Index(i)); err != nil {
				return nil, err
			}
		}
		return buf, nil
	case reflect.Struct:
		t := v.Type()
		var err error
		for i := 0; i < t.NumField(); i++ {
			if !t.Field(i).IsExported() {
				return nil, fmt.Errorf("checkpoint: cannot encode unexported field %s.%s", t.Name(), t.Field(i).Name)
			}
			if buf, err = encodeValue(buf, v.Field(i)); err != nil {
				return nil, err
			}
		}
		return buf, nil
	case reflect.Pointer:
		if v.IsNil() {
			return append(buf, 0), nil
		}
		return encodeValue(append(buf, 1), v.Elem())
	default:
		return nil, fmt.Errorf("checkpoint: cannot encode kind %v", v.Kind())
	}
}

type decoder struct {
	buf []byte
	off int
}

func (d *decoder) remaining() int { return len(d.buf) - d.off }

func (d *decoder) bytes(n int) ([]byte, error) {
	if n < 0 || d.remaining() < n {
		return nil, fmt.Errorf("checkpoint: snapshot truncated at byte %d", d.off)
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b, nil
}

func (d *decoder) u64() (uint64, error) {
	b, err := d.bytes(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

func (d *decoder) u32() (uint32, error) {
	b, err := d.bytes(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (d *decoder) value(v reflect.Value) error {
	switch v.Kind() {
	case reflect.Bool:
		b, err := d.bytes(1)
		if err != nil {
			return err
		}
		if b[0] > 1 {
			return fmt.Errorf("checkpoint: bool byte %d at offset %d", b[0], d.off-1)
		}
		v.SetBool(b[0] == 1)
		return nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		u, err := d.u64()
		if err != nil {
			return err
		}
		if v.OverflowInt(int64(u)) {
			return fmt.Errorf("checkpoint: value %d overflows %v", int64(u), v.Type())
		}
		v.SetInt(int64(u))
		return nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		u, err := d.u64()
		if err != nil {
			return err
		}
		if v.OverflowUint(u) {
			return fmt.Errorf("checkpoint: value %d overflows %v", u, v.Type())
		}
		v.SetUint(u)
		return nil
	case reflect.Float64:
		u, err := d.u64()
		if err != nil {
			return err
		}
		v.SetFloat(math.Float64frombits(u))
		return nil
	case reflect.String:
		n, err := d.u32()
		if err != nil {
			return err
		}
		b, err := d.bytes(int(n))
		if err != nil {
			return err
		}
		v.SetString(string(b))
		return nil
	case reflect.Slice:
		n, err := d.u32()
		if err != nil {
			return err
		}
		// Every element consumes at least one byte, so a count beyond the
		// remaining input cannot be satisfied; reject it before decoding.
		if int64(n) > int64(d.remaining()) {
			return fmt.Errorf("checkpoint: slice length %d exceeds remaining input", n)
		}
		if n == 0 {
			v.Set(reflect.Zero(v.Type()))
			return nil
		}
		// Grow element by element: allocation tracks input actually
		// consumed instead of trusting the declared count.
		s := reflect.MakeSlice(v.Type(), 0, 0)
		elem := reflect.New(v.Type().Elem()).Elem()
		zero := reflect.Zero(v.Type().Elem())
		for i := uint32(0); i < n; i++ {
			elem.Set(zero)
			if err := d.value(elem); err != nil {
				return err
			}
			s = reflect.Append(s, elem)
		}
		v.Set(s)
		return nil
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			if err := d.value(v.Index(i)); err != nil {
				return err
			}
		}
		return nil
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < t.NumField(); i++ {
			if !t.Field(i).IsExported() {
				return fmt.Errorf("checkpoint: cannot decode unexported field %s.%s", t.Name(), t.Field(i).Name)
			}
			if err := d.value(v.Field(i)); err != nil {
				return err
			}
		}
		return nil
	case reflect.Pointer:
		b, err := d.bytes(1)
		if err != nil {
			return err
		}
		switch b[0] {
		case 0:
			v.Set(reflect.Zero(v.Type()))
			return nil
		case 1:
			p := reflect.New(v.Type().Elem())
			if err := d.value(p.Elem()); err != nil {
				return err
			}
			v.Set(p)
			return nil
		default:
			return fmt.Errorf("checkpoint: pointer presence byte %d at offset %d", b[0], d.off-1)
		}
	default:
		return fmt.Errorf("checkpoint: cannot decode kind %v", v.Kind())
	}
}
