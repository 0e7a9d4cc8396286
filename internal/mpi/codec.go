package mpi

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"sync"

	"godtfe/internal/geom"
)

// The wire codec. Every message starts with one format byte:
//
//	fmtGob    the rest is a gob stream (the universal fallback — any
//	          payload type, at gob's reflective cost)
//	fmtF64    []float64: uvarint count, then count little-endian IEEE 754
//	          words
//	fmtVec3   []geom.Vec3: uvarint count, then count×3 words
//	fmtFast   a FastMarshaler value: uvarint-prefixed concrete type name
//	          (the decode-side guard gob gets from its type IDs), then the
//	          type's own payload
//
// The fast paths exist because the hot pipeline payloads — particle
// blocks, halos, center lists, work packages — are a handful of shapes
// exchanged thousands of times, and gob spends more time in reflection
// than the march spends integrating them. The typed paths keep gob's
// contract: decoded values share no memory with the wire buffer (value
// semantics across "processes"), zero-length round-trips match gob's
// nil/truncate behavior, and a payload decoded into the wrong type is an
// error wrapped by the same decodeFrom taxonomy, never a misread.
const (
	fmtGob  = 0x00
	fmtF64  = 0x01
	fmtVec3 = 0x02
	fmtFast = 0x03
)

// FastMarshaler opts a payload type into the typed fast path. AppendFast
// appends the value's encoding to buf and returns the extended slice.
// Implementations must write everything UnmarshalFast needs; the codec
// frames the payload with the concrete type name.
type FastMarshaler interface {
	AppendFast(buf []byte) []byte
}

// FastUnmarshaler is the decode side of FastMarshaler. Implementations
// must copy out of data — the buffer is pooled and reused after decode.
type FastUnmarshaler interface {
	UnmarshalFast(data []byte) error
}

// bufPool recycles encode buffers for point-to-point sends. An envelope
// whose data came from the pool is flagged and released after decode;
// collective payloads shared across receivers are never pooled.
var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 1024)
		return &b
	},
}

// maxPooledBuf bounds the capacity kept in the pool so one huge message
// doesn't pin its buffer forever.
const maxPooledBuf = 1 << 22

func getBuf() []byte {
	bp := bufPool.Get().(*[]byte)
	return (*bp)[:0]
}

func releaseBuf(data []byte) {
	if c := cap(data); c > 0 && c <= maxPooledBuf {
		b := data[:0]
		bufPool.Put(&b)
	}
}

func appendF64(buf []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
}

func readF64(data []byte) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(data))
}

// AppendVec3s appends the fmtVec3 payload body (count + coordinates) to
// buf. Exported as a building block for FastMarshaler implementations
// whose fields are Vec3 slices (work packages, halos).
func AppendVec3s(buf []byte, v []geom.Vec3) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(v)))
	for i := range v {
		buf = appendF64(buf, v[i].X)
		buf = appendF64(buf, v[i].Y)
		buf = appendF64(buf, v[i].Z)
	}
	return buf
}

// ReadVec3s decodes an AppendVec3s payload from data into *v (gob's
// reuse/truncate semantics, always copying) and returns the remainder of
// data. *v is the caller's receive buffer: when its capacity suffices the
// decode writes into its backing array, so it must not alias memory that
// another goroutine reads or writes.
func ReadVec3s(data []byte, v *[]geom.Vec3) ([]byte, error) {
	n, used := binary.Uvarint(data)
	if used <= 0 {
		return nil, fmt.Errorf("codec: bad Vec3 slice count")
	}
	data = data[used:]
	need := int(n) * 24
	if n > uint64(math.MaxInt32) || len(data) < need {
		return nil, fmt.Errorf("codec: Vec3 slice payload truncated: need %d×24 bytes, have %d", n, len(data))
	}
	if n == 0 {
		if *v != nil {
			*v = (*v)[:0]
		}
		return data, nil
	}
	s := (*v)[:0]
	if cap(s) < int(n) {
		s = make([]geom.Vec3, n)
	} else {
		s = s[:n]
	}
	for i := range s {
		s[i].X = readF64(data[i*24:])
		s[i].Y = readF64(data[i*24+8:])
		s[i].Z = readF64(data[i*24+16:])
	}
	*v = s
	return data[need:], nil
}

// AppendFloat64s appends the fmtF64 payload body to buf.
func AppendFloat64s(buf []byte, v []float64) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(v)))
	for _, x := range v {
		buf = appendF64(buf, x)
	}
	return buf
}

// ReadFloat64s decodes an AppendFloat64s payload into *v and returns the
// remainder of data. Like ReadVec3s, it may decode into the backing array
// of the caller's receive buffer *v.
func ReadFloat64s(data []byte, v *[]float64) ([]byte, error) {
	n, used := binary.Uvarint(data)
	if used <= 0 {
		return nil, fmt.Errorf("codec: bad float64 slice count")
	}
	data = data[used:]
	need := int(n) * 8
	if n > uint64(math.MaxInt32) || len(data) < need {
		return nil, fmt.Errorf("codec: float64 slice payload truncated: need %d×8 bytes, have %d", n, len(data))
	}
	if n == 0 {
		if *v != nil {
			*v = (*v)[:0]
		}
		return data, nil
	}
	s := (*v)[:0]
	if cap(s) < int(n) {
		s = make([]float64, n)
	} else {
		s = s[:n]
	}
	for i := range s {
		s[i] = readF64(data[i*8:])
	}
	*v = s
	return data[need:], nil
}

// fastTypeName is the decode-side identity check for fmtFast payloads,
// mirroring what gob's type IDs provide: the concrete type's package-path
// qualified name.
func fastTypeName(v any) string {
	t := reflect.TypeOf(v)
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	return t.String()
}

// encodeFast routes v to its typed encoding when one applies, or returns
// handled=false for the gob fallback. Send sites pass both values and
// pointers (Bcast encodes *v), so both shapes are matched.
func encodeFast(buf []byte, v any) (out []byte, handled bool, err error) {
	switch t := v.(type) {
	case []float64:
		return AppendFloat64s(append(buf, fmtF64), t), true, nil
	case *[]float64:
		return AppendFloat64s(append(buf, fmtF64), *t), true, nil
	case []geom.Vec3:
		return AppendVec3s(append(buf, fmtVec3), t), true, nil
	case *[]geom.Vec3:
		return AppendVec3s(append(buf, fmtVec3), *t), true, nil
	}
	if fm, ok := v.(FastMarshaler); ok {
		name := fastTypeName(v)
		buf = append(buf, fmtFast)
		buf = binary.AppendUvarint(buf, uint64(len(name)))
		buf = append(buf, name...)
		return fm.AppendFast(buf), true, nil
	}
	return buf, false, nil
}

// decodeFast decodes a typed payload (everything after the format byte)
// into v.
func decodeFast(format byte, data []byte, v any) error {
	switch format {
	case fmtF64:
		t, ok := v.(*[]float64)
		if !ok {
			return fmt.Errorf("codec: []float64 payload cannot decode into %T", v)
		}
		rest, err := ReadFloat64s(data, t)
		if err == nil && len(rest) != 0 {
			return fmt.Errorf("codec: %d trailing bytes after []float64 payload", len(rest))
		}
		return err
	case fmtVec3:
		t, ok := v.(*[]geom.Vec3)
		if !ok {
			return fmt.Errorf("codec: []geom.Vec3 payload cannot decode into %T", v)
		}
		rest, err := ReadVec3s(data, t)
		if err == nil && len(rest) != 0 {
			return fmt.Errorf("codec: %d trailing bytes after []geom.Vec3 payload", len(rest))
		}
		return err
	case fmtFast:
		nameLen, used := binary.Uvarint(data)
		if used <= 0 || nameLen > uint64(len(data)-used) {
			return fmt.Errorf("codec: bad fast-payload type name")
		}
		name := string(data[used : used+int(nameLen)])
		fu, ok := v.(FastUnmarshaler)
		if !ok {
			return fmt.Errorf("codec: fast payload of %s cannot decode into %T", name, v)
		}
		if want := fastTypeName(v); want != name {
			return fmt.Errorf("codec: fast payload of %s cannot decode into %s", name, want)
		}
		return fu.UnmarshalFast(data[used+int(nameLen):])
	}
	return fmt.Errorf("codec: unknown wire format 0x%02x", format)
}
