package tuple

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

var codecs = []Codec{FastCodec{}, NaiveCodec{}}

func sampleTuple() *DataTuple {
	return &DataTuple{
		DestTask: 42,
		SrcTask:  7,
		StreamID: 3,
		Key:      0xdeadbeefcafe,
		Roots:    []uint64{1, 99, 1 << 60},
		Values:   Values{"word", int64(-5), 2.5, true, []byte{1, 2, 3}},
	}
}

func tuplesEqual(a, b *DataTuple) bool {
	if a.DestTask != b.DestTask || a.SrcTask != b.SrcTask ||
		a.StreamID != b.StreamID || a.Key != b.Key {
		return false
	}
	if len(a.Roots) != len(b.Roots) || len(a.Values) != len(b.Values) {
		return false
	}
	for i := range a.Roots {
		if a.Roots[i] != b.Roots[i] {
			return false
		}
	}
	return reflect.DeepEqual(a.Values, b.Values)
}

func TestCodecRoundTrip(t *testing.T) {
	for _, c := range codecs {
		t.Run(c.Name(), func(t *testing.T) {
			in := sampleTuple()
			enc := c.EncodeData(nil, in)
			var out DataTuple
			if err := c.DecodeData(enc, &out); err != nil {
				t.Fatal(err)
			}
			if !tuplesEqual(in, &out) {
				t.Errorf("round trip mismatch:\n in=%+v\nout=%+v", in, &out)
			}
		})
	}
}

func TestCodecsProduceIdenticalBytes(t *testing.T) {
	// The two codecs differ in cost, never in content: switching the
	// optimization flag must not change what crosses the wire.
	in := sampleTuple()
	fast := FastCodec{}.EncodeData(nil, in)
	naive := NaiveCodec{}.EncodeData(nil, in)
	if !bytes.Equal(fast, naive) {
		t.Errorf("codec outputs differ:\nfast =%x\nnaive=%x", fast, naive)
	}
}

func TestCodecEquivalenceProperty(t *testing.T) {
	f := func(dest, src, stream int32, key uint64, roots []uint64, s string, i int64, fl float64, b bool, raw []byte) bool {
		in := &DataTuple{
			DestTask: dest, SrcTask: src, StreamID: stream, Key: key,
			Roots:  roots,
			Values: Values{s, i, fl, b, raw},
		}
		if raw == nil {
			in.Values[4] = []byte{}
		}
		fast := FastCodec{}.EncodeData(nil, in)
		naive := NaiveCodec{}.EncodeData(nil, in)
		if !bytes.Equal(fast, naive) {
			return false
		}
		var out DataTuple
		if err := (FastCodec{}).DecodeData(fast, &out); err != nil {
			return false
		}
		if math.IsNaN(fl) {
			// NaN != NaN; check bits instead.
			got := out.Values.Float(2)
			if !math.IsNaN(got) {
				return false
			}
			in.Values[2] = got // normalize for the final comparison
			out.Values[2] = got
		}
		return tuplesEqual(in, &out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPeekDest(t *testing.T) {
	in := sampleTuple()
	for _, dest := range []int32{0, 1, 127, 128, 65535, 1 << 20} {
		in.DestTask = dest
		enc := FastCodec{}.EncodeData(nil, in)
		got, err := PeekDest(enc)
		if err != nil {
			t.Fatalf("dest=%d: %v", dest, err)
		}
		if got != dest {
			t.Errorf("PeekDest = %d, want %d", got, dest)
		}
	}
}

func TestPeekDestCorrupt(t *testing.T) {
	if _, err := PeekDest([]byte{0xff}); err == nil {
		t.Error("want error for truncated input")
	}
	if _, err := PeekDest(nil); err == nil {
		t.Error("want error for empty input")
	}
}

// TestDataLayout pins the data tuple: dest u32 | src uvarint | stream
// uvarint | n uvarint | key u64 (iff n&1) | roots (n>>1)×u64 | values,
// fixed-width fields little-endian, the same bytes from both codecs.
func TestDataLayout(t *testing.T) {
	cases := []struct {
		name string
		in   DataTuple
		want []byte
	}{
		{"key and root", DataTuple{DestTask: 0x01020304, SrcTask: 7, StreamID: -1,
			Key: 0x1112131415161718, Roots: []uint64{0x2122232425262728}, Values: Values{"ab", int64(-2)}},
			[]byte{
				0x04, 0x03, 0x02, 0x01, // dest
				0x07,                         // src
				0xff, 0xff, 0xff, 0xff, 0x0f, // stream: uint32(-1)
				0x03,                                           // n: one root, a key
				0x18, 0x17, 0x16, 0x15, 0x14, 0x13, 0x12, 0x11, // key
				0x28, 0x27, 0x26, 0x25, 0x24, 0x23, 0x22, 0x21, // root
				0x02, 0x01, 0x02, 'a', 'b', 0x02, 0x03, // values: 2, string "ab", int -2
			}},
		{"roots, no key", DataTuple{DestTask: 5, SrcTask: 1, Roots: []uint64{1, 2}, Values: Values{true}},
			[]byte{
				0x05, 0x00, 0x00, 0x00, 0x01, 0x00,
				0x04, // n: two roots, no key
				0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
				0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
				0x01, 0x04, 0x01, // values: 1, bool true
			}},
		{"key, no roots", DataTuple{Key: 1, Values: Values{1.5}},
			[]byte{
				0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
				0x01, // n: no roots, a key
				0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
				0x01, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf8, 0x3f, // values: 1, float 1.5
			}},
		{"no values", DataTuple{DestTask: 9, SrcTask: 2, StreamID: 3},
			[]byte{0x09, 0x00, 0x00, 0x00, 0x02, 0x03, 0x00}},
	}
	for _, tc := range cases {
		for _, c := range codecs {
			got := c.EncodeData(nil, &tc.in)
			if !bytes.Equal(got, tc.want) {
				t.Errorf("%s, %s: encoded\n% x, want\n% x", tc.name, c.Name(), got, tc.want)
			}
			var out DataTuple
			if err := c.DecodeData(tc.want, &out); err != nil || !tuplesEqual(&tc.in, &out) {
				t.Errorf("%s, %s: decoded %+v, %v", tc.name, c.Name(), out, err)
			}
		}
	}
}

func TestAckRoundTrip(t *testing.T) {
	in := &AckTuple{Kind: AckFail, SpoutTask: 9, Root: 0xabc, Delta: 0x123456789}
	enc := EncodeAck(nil, in)
	var out AckTuple
	if err := DecodeAck(enc, &out); err != nil {
		t.Fatal(err)
	}
	if out != *in {
		t.Errorf("ack round trip: got %+v want %+v", out, *in)
	}
}

// TestAckLayout pins the fixed ack entry: kind u8 | spout u32 | root u64
// | delta u64, little-endian, AckSize bytes in all.
func TestAckLayout(t *testing.T) {
	got := EncodeAck(nil, &AckTuple{Kind: AckAnchor, SpoutTask: 0x01020304,
		Root: 0x1112131415161718, Delta: 0x2122232425262728})
	want := []byte{
		0x03,
		0x04, 0x03, 0x02, 0x01,
		0x18, 0x17, 0x16, 0x15, 0x14, 0x13, 0x12, 0x11,
		0x28, 0x27, 0x26, 0x25, 0x24, 0x23, 0x22, 0x21,
	}
	if len(want) != AckSize || !bytes.Equal(got, want) {
		t.Fatalf("encoded ack = % x, want % x (%d bytes)", got, want, AckSize)
	}
}

// TestAckRoundTripEveryKind: every kind round-trips with the spout task at
// zero and at both ends of int32's sign.
func TestAckRoundTripEveryKind(t *testing.T) {
	for _, kind := range []AckKind{AckAck, AckFail, AckAnchor, AckExpired} {
		for _, spout := range []int32{0, math.MaxInt32, -1} {
			in := AckTuple{Kind: kind, SpoutTask: spout, Root: math.MaxUint64 - uint64(kind), Delta: 1 << 63}
			enc := EncodeAck(nil, &in)
			var out AckTuple
			if err := DecodeAck(enc, &out); err != nil || len(enc) != AckSize || out != in {
				t.Errorf("%+v: %d bytes decode to %+v, %v", in, len(enc), out, err)
			}
		}
	}
}

// TestDecodeAckRejectsOtherLengths: an entry one byte short or long, or
// empty, is ErrCorrupt.
func TestDecodeAckRejectsOtherLengths(t *testing.T) {
	for _, n := range []int{0, AckSize - 1, AckSize + 1} {
		if err := DecodeAck(make([]byte, n), &AckTuple{}); !errors.Is(err, ErrCorrupt) {
			t.Errorf("a %d-byte entry: err %v, want ErrCorrupt", n, err)
		}
	}
}

// FuzzDecodeAck: no input panics, and an input DecodeAck accepts
// re-encodes to itself.
func FuzzDecodeAck(f *testing.F) {
	f.Add(EncodeAck(nil, &AckTuple{Kind: AckAck, SpoutTask: 3, Root: 0xabc, Delta: 0x123456789}))
	f.Add(EncodeAck(nil, &AckTuple{Kind: AckExpired, SpoutTask: -1, Root: math.MaxUint64}))
	f.Add([]byte{})
	f.Add(make([]byte, AckSize-1))
	f.Add(make([]byte, AckSize+1))
	f.Fuzz(func(t *testing.T, b []byte) {
		var a AckTuple
		if DecodeAck(b, &a) != nil {
			return
		}
		if enc := EncodeAck(nil, &a); !bytes.Equal(enc, b) {
			t.Fatalf("% x decodes to %+v, which encodes to % x", b, a, enc)
		}
	})
}

func TestAckRoundTripProperty(t *testing.T) {
	f := func(kind uint8, spout int32, root, delta uint64) bool {
		in := &AckTuple{Kind: AckKind(kind), SpoutTask: spout, Root: root, Delta: delta}
		var out AckTuple
		if err := DecodeAck(EncodeAck(nil, in), &out); err != nil {
			return false
		}
		return out == *in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeCorrupt(t *testing.T) {
	in := sampleTuple()
	enc := FastCodec{}.EncodeData(nil, in)
	var out DataTuple
	body, err := DecodeHeader(enc, &out)
	if err != nil {
		t.Fatal(err)
	}
	valuesAt := len(enc) - len(body) + 8*len(in.Roots)
	for i := 0; i < len(enc); i++ {
		// A truncation that stops before the values is corrupt, whether
		// it is shorter than the destination (which PeekDest refuses too)
		// or cuts the roots its count announces. A longer one must not
		// panic; the header alone is a tuple without values.
		err := FastCodec{}.DecodeData(enc[:i], &out)
		if i < valuesAt && !errors.Is(err, ErrCorrupt) {
			t.Errorf("%d of %d header bytes: err %v, want ErrCorrupt", i, valuesAt, err)
		}
		if i == valuesAt && (err != nil || out.DestTask != in.DestTask || len(out.Values) != 0) {
			t.Errorf("header alone: %+v, %v", out, err)
		}
		if _, err := PeekDest(enc[:i]); (err != nil) != (i < 4) {
			t.Errorf("PeekDest of %d bytes: err %v", i, err)
		}
	}
	// A roots count that runs past the end of the entry is corrupt.
	bad := []byte{0, 0, 0, 0, 0, 0, 2 << 1, 1, 2, 3, 4, 5, 6, 7, 8, 1, 2, 3}
	if err := (FastCodec{}).DecodeData(bad, &out); err == nil {
		t.Error("want error for bad roots length")
	}
}

func TestTuplePoolReuse(t *testing.T) {
	a := Get()
	a.Roots = append(a.Roots, 1, 2, 3)
	a.Values = append(a.Values, "x")
	a.Key = 7
	Put(a)
	b := Get()
	if b.Key != 0 || len(b.Roots) != 0 || len(b.Values) != 0 {
		t.Errorf("pooled tuple not reset: %+v", b)
	}
	Put(b)
	Put(nil) // safe
}

func TestValuesAccessors(t *testing.T) {
	v := Values{"s", int64(4), 1.5, true, []byte{9}}
	if v.String(0) != "s" || v.Int(1) != 4 || v.Float(2) != 1.5 || !v.Bool(3) || v.Bytes(4)[0] != 9 {
		t.Error("accessor mismatch")
	}
}

func TestKindOf(t *testing.T) {
	good := map[any]Kind{"a": KindString, int64(1): KindInt, 1.0: KindFloat, true: KindBool}
	for v, want := range good {
		if k, err := KindOf(v); err != nil || k != want {
			t.Errorf("KindOf(%v) = %v, %v", v, k, err)
		}
	}
	if k, err := KindOf([]byte{1}); err != nil || k != KindBytes {
		t.Errorf("KindOf(bytes) = %v, %v", k, err)
	}
	if _, err := KindOf(struct{}{}); err == nil {
		t.Error("want error for unsupported type")
	}
	if _, err := KindOf(int32(1)); err == nil {
		t.Error("want error for int32 (only int64 supported)")
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"", "fast", "naive"} {
		if _, err := ByName(name); err != nil {
			t.Errorf("ByName(%q): %v", name, err)
		}
	}
	if _, err := ByName("zstd"); err == nil {
		t.Error("want error for unknown codec")
	}
}

func BenchmarkEncodeFast(b *testing.B) {
	in := sampleTuple()
	buf := make([]byte, 0, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = FastCodec{}.EncodeData(buf[:0], in)
	}
}

func BenchmarkEncodeNaive(b *testing.B) {
	in := sampleTuple()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = NaiveCodec{}.EncodeData(nil, in)
	}
}

func BenchmarkDecodeFull(b *testing.B) {
	enc := FastCodec{}.EncodeData(nil, sampleTuple())
	var out DataTuple
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := (FastCodec{}).DecodeData(enc, &out); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPeekDestVsFullDecode(b *testing.B) {
	// The lazy-routing advantage: header scan vs full materialization.
	in := sampleTuple()
	in.Values = Values{string(make([]byte, 512))}
	enc := FastCodec{}.EncodeData(nil, in)
	b.Run("peek", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := PeekDest(enc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full", func(b *testing.B) {
		var out DataTuple
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := (FastCodec{}).DecodeData(enc, &out); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func TestDecodeRandomGarbage(t *testing.T) {
	// Random bytes must never panic the decoder.
	rng := rand.New(rand.NewSource(1))
	var out DataTuple
	for i := 0; i < 2000; i++ {
		b := make([]byte, rng.Intn(64))
		rng.Read(b)
		_ = FastCodec{}.DecodeData(b, &out)
		_ = DecodeAck(b, &AckTuple{})
		_, _ = PeekDest(b)
	}
}
