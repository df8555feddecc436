package tuple

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
)

// sameValue compares two decoded values, NaN equal to NaN.
func sameValue(a, b any) bool {
	switch a := a.(type) {
	case float64:
		b, ok := b.(float64)
		return ok && math.Float64bits(a) == math.Float64bits(b)
	case []byte:
		b, ok := b.([]byte)
		return ok && bytes.Equal(a, b)
	default:
		return a == b
	}
}

// checkGetters asserts that every typed getter of r, and its
// materialised Values, agree with want.
func checkGetters(t testing.TB, r RawValues, want Values) {
	t.Helper()
	if r.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", r.Len(), len(want))
	}
	for i, w := range want {
		var got any
		switch w.(type) {
		case string:
			got = r.String(i)
		case int64:
			got = r.Int(i)
		case float64:
			got = r.Float(i)
		case bool:
			got = r.Bool(i)
		case []byte:
			got = r.Values()[i]
		}
		if !sameValue(got, w) {
			t.Errorf("value %d: getter = %#v, want %#v", i, got, w)
		}
	}
	vs := r.Values()
	if len(vs) != len(want) {
		t.Fatalf("Values() has %d values, want %d", len(vs), len(want))
	}
	for i := range vs {
		if !sameValue(vs[i], want[i]) {
			t.Errorf("Values()[%d] = %#v, want %#v", i, vs[i], want[i])
		}
	}
}

// rawOf encodes vs and returns the checked values field as a bolt tuple
// would own it.
func rawOf(t testing.TB, vs Values) RawValues {
	t.Helper()
	var dt DataTuple
	body, err := DecodeHeader(FastCodec{}.EncodeData(nil, &DataTuple{Values: vs}), &dt)
	if err != nil {
		t.Fatal(err)
	}
	if len(dt.Values) != 0 {
		t.Fatalf("DecodeHeader built %d values", len(dt.Values))
	}
	return RawValues(body)
}

var edgeValues = Values{
	"", "word", "ünïcode", strings.Repeat("x", 300),
	int64(0), int64(-1), int64(1), int64(-5), int64(math.MinInt64), int64(math.MaxInt64),
	0.0, math.Copysign(0, -1), 2.5, math.NaN(), math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64,
	true, false,
	[]byte{}, []byte{0, 1, 255}, bytes.Repeat([]byte{7}, 200),
}

// TestRawValuesMatchDecodeData: over every kind and its edge values,
// alone and side by side, each getter reads what DecodeData materialises.
func TestRawValuesMatchDecodeData(t *testing.T) {
	cases := map[string]Values{"zero fields": {}, "all": edgeValues}
	for i, v := range edgeValues {
		k, _ := KindOf(v)
		cases[fmt.Sprintf("%v/%d", k, i)] = Values{v}
	}
	for name, vs := range cases {
		t.Run(name, func(t *testing.T) {
			var dt DataTuple
			if err := (FastCodec{}).DecodeData(FastCodec{}.EncodeData(nil, &DataTuple{Values: vs}), &dt); err != nil {
				t.Fatal(err)
			}
			checkGetters(t, rawOf(t, vs), dt.Values)
			checkGetters(t, rawOf(t, vs), vs)
		})
	}
}

// TestRawValuesAbsentField: a tuple encoded without a values field has
// no values, lazily as well as decoded.
func TestRawValuesAbsentField(t *testing.T) {
	var dt DataTuple
	vals, err := DecodeHeader([]byte{9, 0, 0, 0, 0, 0, 0}, &dt)
	if err != nil || len(vals) != 0 || dt.DestTask != 9 {
		t.Fatalf("DecodeHeader = %v, %v, dest %d", vals, err, dt.DestTask)
	}
	checkGetters(t, RawValues(vals), nil)
	// A present values field cut inside its count is corrupt.
	if _, err := DecodeHeader([]byte{9, 0, 0, 0, 0, 0, 0, 0x80}, &dt); err == nil {
		t.Fatal("want error for a values field without its count")
	}
}

// TestRawValuesPanics: a getter of the wrong kind or an index out of
// range panics, as the Values accessors do.
func TestRawValuesPanics(t *testing.T) {
	r := rawOf(t, Values{"s", int64(1), 1.5, true, []byte{1}})
	cases := map[string]func(){
		"Int of string":   func() { r.Int(0) },
		"String of int":   func() { r.String(1) },
		"Bool of float":   func() { r.Bool(2) },
		"Float of bool":   func() { r.Float(3) },
		"String of bytes": func() { r.String(4) },
		"index -1":        func() { r.String(-1) },
		"index Len":       func() { r.Int(5) },
		"empty":           func() { RawValues("").String(0) },
	}
	for name, f := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			f()
		})
	}
}

// TestDecodeHeaderRejectsCorruptValues: every malformed values field is
// refused by the header decode, before any getter could read it.
func TestDecodeHeaderRejectsCorruptValues(t *testing.T) {
	enc := FastCodec{}.EncodeData(nil, &DataTuple{Values: Values{"word", int64(7), 1.5, true, []byte{1}}})
	var dt DataTuple
	f, err := DecodeHeader(enc, &dt)
	if err != nil {
		t.Fatal(err)
	}
	hdr := enc[:len(enc)-len(f)]
	// Every truncation of the values field is corrupt. (An empty one is
	// no values field at all.)
	for i := 1; i < len(f); i++ {
		bad := append(append([]byte(nil), hdr...), f[:i]...)
		if _, err := DecodeHeader(bad, &dt); err == nil {
			t.Errorf("truncated to %d bytes: accepted", i)
		}
	}
	for _, bad := range [][]byte{
		{1, 0},          // unknown kind 0
		{1, 6, 0},       // unknown kind 6
		{2, 4, 1},       // count 2, one value
		{1, 4, 1, 0xff}, // trailing byte
		{1, 2, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, // varint overflow
	} {
		msg := append(append([]byte(nil), hdr...), bad...)
		if _, err := DecodeHeader(msg, &dt); err == nil {
			t.Errorf("values field %x accepted", bad)
		}
	}
}

// FuzzDecodeHeader: any input either fails the header decode (and then
// DecodeData too), or decodes to getters that agree with DecodeData, a
// destination PeekDest agrees with, and a tuple that re-encodes and
// decodes to itself. No input panics.
func FuzzDecodeHeader(f *testing.F) {
	f.Add(FastCodec{}.EncodeData(nil, sampleTuple()))
	f.Add(FastCodec{}.EncodeData(nil, &DataTuple{Values: edgeValues}))
	f.Add(FastCodec{}.EncodeData(nil, &DataTuple{}))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 1, 1, 0})
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})                              // shorter than the destination
	f.Add([]byte{0, 0, 0, 0, 0, 0, 2 << 1, 1, 2, 3, 4}) // two roots, four bytes
	f.Fuzz(func(t *testing.T, b []byte) {
		var hdr, full DataTuple
		body, herr := DecodeHeader(b, &hdr)
		ferr := FastCodec{}.DecodeData(b, &full)
		if (herr == nil) != (ferr == nil) {
			t.Fatalf("DecodeHeader err %v, DecodeData err %v", herr, ferr)
		}
		if herr != nil {
			return
		}
		if hdr.DestTask != full.DestTask || hdr.SrcTask != full.SrcTask ||
			hdr.StreamID != full.StreamID || hdr.Key != full.Key || len(hdr.Roots) != len(full.Roots) {
			t.Fatalf("header %+v, DecodeData %+v", hdr, full)
		}
		if d, err := PeekDest(b); err != nil || d != hdr.DestTask {
			t.Fatalf("PeekDest = %d, %v; DecodeHeader dest %d", d, err, hdr.DestTask)
		}
		checkGetters(t, RawValues(body[8*len(hdr.Roots):]), full.Values)
		var again DataTuple
		if err := (FastCodec{}).DecodeData(FastCodec{}.EncodeData(nil, &full), &again); err != nil {
			t.Fatalf("re-encoded %+v: %v", full, err)
		}
		if !sameTuple(&full, &again) {
			t.Fatalf("%+v re-encodes to %+v", full, again)
		}
	})
}

// sameTuple is tuplesEqual with values compared by sameValue, so NaN
// equals NaN.
func sameTuple(a, b *DataTuple) bool {
	x, y := *a, *b
	x.Values, y.Values = nil, nil
	if !tuplesEqual(&x, &y) || len(a.Values) != len(b.Values) {
		return false
	}
	for i := range a.Values {
		if !sameValue(a.Values[i], b.Values[i]) {
			return false
		}
	}
	return true
}
