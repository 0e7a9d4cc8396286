package mpi

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"godtfe/internal/geom"
)

// gobRoundTrip encodes v with plain gob (the pre-codec wire format) and
// decodes into out, returning the decode error. It is the behavioral
// reference the fast paths must agree with.
func gobRoundTrip(t *testing.T, v any, out any) error {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatalf("gob encode %T: %v", v, err)
	}
	return gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(out)
}

// codecRoundTrip encodes v with the wire codec and decodes into out.
func codecRoundTrip(t *testing.T, v any, out any) error {
	t.Helper()
	data, err := encode(v, false)
	if err != nil {
		t.Fatalf("encode %T: %v", v, err)
	}
	return decode(data, out)
}

func TestCodecFloat64sMatchGob(t *testing.T) {
	cases := [][]float64{
		nil,
		{},
		{0},
		{1, -2, 3.5},
		{math.Inf(1), math.Inf(-1), math.NaN(), -0.0, math.MaxFloat64, math.SmallestNonzeroFloat64},
	}
	for _, in := range cases {
		var fast, ref []float64
		if err := codecRoundTrip(t, in, &fast); err != nil {
			t.Fatalf("codec round trip %v: %v", in, err)
		}
		if err := gobRoundTrip(t, in, &ref); err != nil {
			t.Fatalf("gob round trip %v: %v", in, err)
		}
		if len(fast) != len(ref) || (fast == nil) != (ref == nil) {
			t.Fatalf("shape mismatch: fast %v (nil=%v) vs gob %v (nil=%v)", fast, fast == nil, ref, ref == nil)
		}
		for i := range fast {
			if math.Float64bits(fast[i]) != math.Float64bits(ref[i]) {
				t.Fatalf("element %d: fast %x vs gob %x", i, math.Float64bits(fast[i]), math.Float64bits(ref[i]))
			}
		}
	}
}

func TestCodecVec3sMatchGob(t *testing.T) {
	cases := [][]geom.Vec3{
		nil,
		{},
		{{X: 1, Y: 2, Z: 3}},
		{{X: math.NaN(), Y: math.Inf(1), Z: -0.0}, {X: -1e300, Y: 1e-300, Z: 0}},
	}
	for _, in := range cases {
		var fast, ref []geom.Vec3
		if err := codecRoundTrip(t, in, &fast); err != nil {
			t.Fatalf("codec round trip %v: %v", in, err)
		}
		if err := gobRoundTrip(t, in, &ref); err != nil {
			t.Fatalf("gob round trip %v: %v", in, err)
		}
		if len(fast) != len(ref) || (fast == nil) != (ref == nil) {
			t.Fatalf("shape mismatch: %v vs %v", fast, ref)
		}
		for i := range fast {
			for c := 0; c < 3; c++ {
				a := [3]float64{fast[i].X, fast[i].Y, fast[i].Z}[c]
				b := [3]float64{ref[i].X, ref[i].Y, ref[i].Z}[c]
				if math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("vec %d coord %d: %x vs %x", i, c, math.Float64bits(a), math.Float64bits(b))
				}
			}
		}
	}
}

// TestCodecPointerFormsAgree pins that value and pointer sends produce the
// same wire bytes (Bcast encodes *v where Send encodes v).
func TestCodecPointerFormsAgree(t *testing.T) {
	v := []float64{1, 2, 3}
	a, err := encode(v, false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := encode(&v, false)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("value and pointer encodings differ: %x vs %x", a, b)
	}
	w := []geom.Vec3{{X: 1}}
	a, _ = encode(w, false)
	b, _ = encode(&w, false)
	if !bytes.Equal(a, b) {
		t.Fatalf("Vec3 value and pointer encodings differ")
	}
}

// TestCodecValueSemantics verifies the fast paths keep gob's copy
// guarantee: mutating a decoded slice never affects the sender's value.
func TestCodecValueSemantics(t *testing.T) {
	in := []geom.Vec3{{X: 1, Y: 2, Z: 3}}
	data, err := encode(in, false)
	if err != nil {
		t.Fatal(err)
	}
	var out []geom.Vec3
	if err := decode(data, &out); err != nil {
		t.Fatal(err)
	}
	out[0].X = 99
	if in[0].X != 1 {
		t.Fatal("decoded slice aliases the sender's value")
	}
	// Decoding must also survive the wire buffer being recycled.
	var out2 []geom.Vec3
	if err := decode(data, &out2); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		data[i] = 0xff
	}
	if out2[0] != (geom.Vec3{X: 1, Y: 2, Z: 3}) {
		t.Fatal("decoded slice aliases the wire buffer")
	}
}

// TestCodecGobFallback checks that arbitrary payloads still round-trip
// through the gob path behind the format byte.
func TestCodecGobFallback(t *testing.T) {
	type heartbeat struct {
		Rank int
		Seq  int64
		Note string
	}
	in := heartbeat{Rank: 3, Seq: 42, Note: "ok"}
	var out heartbeat
	if err := codecRoundTrip(t, in, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("gob fallback round trip: got %+v, want %+v", out, in)
	}
	// Maps and nested slices stay on the fallback too.
	m := map[string][]int{"a": {1, 2}}
	var mo map[string][]int
	if err := codecRoundTrip(t, m, &mo); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, mo) {
		t.Fatalf("map round trip: got %v, want %v", mo, m)
	}
}

// fastBlock exercises the fmtFast frame in-package (the pipeline's work
// package does the same across packages).
type fastBlock struct {
	ID  float64
	Pts []geom.Vec3
}

func (b fastBlock) AppendFast(buf []byte) []byte {
	buf = AppendFloat64s(buf, []float64{b.ID})
	return AppendVec3s(buf, b.Pts)
}

func (b *fastBlock) UnmarshalFast(data []byte) error {
	var id []float64
	rest, err := ReadFloat64s(data, &id)
	if err != nil || len(id) != 1 {
		return fmt.Errorf("fastBlock id: %v", err)
	}
	b.ID = id[0]
	if _, err := ReadVec3s(rest, &b.Pts); err != nil {
		return err
	}
	return nil
}

func TestCodecFastMarshaler(t *testing.T) {
	in := fastBlock{ID: 7, Pts: []geom.Vec3{{X: 1}, {Y: 2}}}
	data, err := encode(in, false)
	if err != nil {
		t.Fatal(err)
	}
	if data[0] != fmtFast {
		t.Fatalf("FastMarshaler payload got format 0x%02x", data[0])
	}
	var out fastBlock
	if err := decode(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.ID != 7 || len(out.Pts) != 2 || out.Pts[1].Y != 2 {
		t.Fatalf("round trip: %+v", out)
	}
}

// TestCodecTypeMismatchTaxonomy pins the decode-error contract from the
// robustness PR: a payload decoded into the wrong type surfaces the
// origin rank, the receiving operation, and the target type.
func TestCodecTypeMismatchTaxonomy(t *testing.T) {
	w := NewWorld(2)
	errs := w.RunEach(func(c *Comm) error {
		switch c.Rank() {
		case 0:
			return c.Send(1, 7, []float64{1, 2, 3})
		default:
			var wrong []geom.Vec3
			_, err := c.Recv(0, 7, &wrong)
			if err == nil {
				return fmt.Errorf("decode into wrong type succeeded")
			}
			for _, want := range []string{"decoding message from rank 0", "recv tag 7", "[]geom.Vec3"} {
				if !strings.Contains(err.Error(), want) {
					return fmt.Errorf("error %q missing %q", err, want)
				}
			}
			return nil
		}
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}

	// Same contract on the fmtFast frame: name mismatch, not a misread.
	data, err := encode(fastBlock{ID: 1}, false)
	if err != nil {
		t.Fatal(err)
	}
	var f []float64
	if err := decode(data, &f); err == nil || !strings.Contains(err.Error(), "fastBlock") {
		t.Fatalf("fast-frame mismatch error: %v", err)
	}
}

// TestCodecFastPathsOverWorld runs the hot payload shapes through real
// Send/Recv and Bcast, checking the receiver observes exactly what was
// sent.
func TestCodecFastPathsOverWorld(t *testing.T) {
	pts := make([]geom.Vec3, 1000)
	for i := range pts {
		pts[i] = geom.Vec3{X: float64(i), Y: float64(2 * i), Z: float64(3 * i)}
	}
	w := NewWorld(3)
	errs := w.RunEach(func(c *Comm) error {
		// Each rank owns its receive buffer, as separate MPI processes
		// would: decoding reuses the destination's capacity, so a slice of
		// pts here would be written while rank 0 reads pts in Send.
		centers := make([]geom.Vec3, 10)
		if c.Rank() == 0 {
			copy(centers, pts)
		}
		if err := c.Bcast(0, &centers); err != nil {
			return err
		}
		if len(centers) != 10 || centers[9] != pts[9] {
			return fmt.Errorf("bcast centers corrupted: %v", centers)
		}
		switch c.Rank() {
		case 0:
			for dst := 1; dst < 3; dst++ {
				if err := c.Send(dst, 1, pts); err != nil {
					return err
				}
				if err := c.Send(dst, 2, []float64{1, 2, 3}); err != nil {
					return err
				}
			}
		default:
			var got []geom.Vec3
			if _, err := c.Recv(0, 1, &got); err != nil {
				return err
			}
			if len(got) != len(pts) || got[999] != pts[999] {
				return fmt.Errorf("Vec3 payload corrupted")
			}
			var f []float64
			if _, err := c.Recv(0, 2, &f); err != nil {
				return err
			}
			if len(f) != 3 || f[2] != 3 {
				return fmt.Errorf("float64 payload corrupted")
			}
		}
		return nil
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

// FuzzCodecDecode: arbitrary wire bytes must never panic the decoder,
// whatever target type they are decoded into.
func FuzzCodecDecode(f *testing.F) {
	seedF64, _ := encode([]float64{1, 2, 3}, false)
	seedV3, _ := encode([]geom.Vec3{{X: 1, Y: 2, Z: 3}}, false)
	seedFast, _ := encode(fastBlock{ID: 7, Pts: []geom.Vec3{{X: 4}}}, false)
	seedGob, _ := encode(map[string]int{"a": 1}, false)
	f.Add(seedF64)
	f.Add(seedV3)
	f.Add(seedFast)
	f.Add(seedGob)
	f.Add([]byte{})
	f.Add([]byte{fmtF64, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		var f64 []float64
		_ = decode(data, &f64)
		var v3 []geom.Vec3
		_ = decode(data, &v3)
		var fb fastBlock
		_ = decode(data, &fb)
		var m map[string]int
		_ = decode(data, &m)
	})
}

func benchPayloadVec3(n int) []geom.Vec3 {
	pts := make([]geom.Vec3, n)
	for i := range pts {
		pts[i] = geom.Vec3{X: float64(i) * 0.5, Y: float64(i) * 0.25, Z: float64(i) * 0.125}
	}
	return pts
}

func BenchmarkCodecEncodeVec3Fast(b *testing.B) {
	pts := benchPayloadVec3(4096)
	b.ReportAllocs()
	b.SetBytes(int64(24 * len(pts)))
	for i := 0; i < b.N; i++ {
		data, err := encode(pts, true)
		if err != nil {
			b.Fatal(err)
		}
		releaseBuf(data)
	}
}

func BenchmarkCodecEncodeVec3Gob(b *testing.B) {
	pts := benchPayloadVec3(4096)
	b.ReportAllocs()
	b.SetBytes(int64(24 * len(pts)))
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(pts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCodecDecodeVec3Fast(b *testing.B) {
	pts := benchPayloadVec3(4096)
	data, err := encode(pts, false)
	if err != nil {
		b.Fatal(err)
	}
	var out []geom.Vec3
	b.ReportAllocs()
	b.SetBytes(int64(24 * len(pts)))
	for i := 0; i < b.N; i++ {
		if err := decode(data, &out); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCodecDecodeVec3Gob(b *testing.B) {
	pts := benchPayloadVec3(4096)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(pts); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ReportAllocs()
	b.SetBytes(int64(24 * len(pts)))
	for i := 0; i < b.N; i++ {
		var out []geom.Vec3
		if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&out); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCodecRoundTripFloat64Fast(b *testing.B) {
	v := make([]float64, 4096)
	for i := range v {
		v[i] = float64(i)
	}
	var out []float64
	b.ReportAllocs()
	b.SetBytes(int64(8 * len(v)))
	for i := 0; i < b.N; i++ {
		data, err := encode(v, true)
		if err != nil {
			b.Fatal(err)
		}
		if err := decode(data, &out); err != nil {
			b.Fatal(err)
		}
		releaseBuf(data)
	}
}
