package wire

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

func TestUvarintRoundTrip(t *testing.T) {
	cases := []uint64{0, 1, 127, 128, 300, 1 << 14, 1<<21 - 1, 1 << 32, math.MaxUint64}
	for _, v := range cases {
		b := AppendUvarint(nil, v)
		got, n, err := Uvarint(b)
		if err != nil {
			t.Fatalf("Uvarint(%d): %v", v, err)
		}
		if got != v || n != len(b) {
			t.Errorf("Uvarint(%d) = %d (n=%d, len=%d)", v, got, n, len(b))
		}
	}
}

func TestUvarintProperty(t *testing.T) {
	f := func(v uint64) bool {
		b := AppendUvarint(nil, v)
		got, n, err := Uvarint(b)
		return err == nil && got == v && n == len(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUvarintLen(t *testing.T) {
	for _, v := range []uint64{0, 1, 127, 128, 1<<14 - 1, 1 << 14, 1 << 63, math.MaxUint64} {
		if got, want := UvarintLen(v), len(AppendUvarint(nil, v)); got != want {
			t.Errorf("UvarintLen(%d) = %d, want %d", v, got, want)
		}
	}
	f := func(v uint64) bool { return UvarintLen(v) == len(AppendUvarint(nil, v)) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUvarintTruncated(t *testing.T) {
	b := AppendUvarint(nil, math.MaxUint64)
	for i := 0; i < len(b); i++ {
		if _, _, err := Uvarint(b[:i]); err != ErrTruncated {
			t.Errorf("prefix %d: want ErrTruncated, got %v", i, err)
		}
	}
}

func TestUvarintOverflow(t *testing.T) {
	// Eleven continuation bytes can never be a valid 64-bit varint.
	b := bytes.Repeat([]byte{0xff}, 11)
	if _, _, err := Uvarint(b); err != ErrOverflow {
		t.Errorf("want ErrOverflow, got %v", err)
	}
	// Ten bytes whose final byte carries more than one bit also overflows.
	b = append(bytes.Repeat([]byte{0xff}, 9), 0x02)
	if _, _, err := Uvarint(b); err != ErrOverflow {
		t.Errorf("10-byte case: want ErrOverflow, got %v", err)
	}
}

func TestZigzagProperty(t *testing.T) {
	f := func(v int64) bool { return Unzigzag(Zigzag(v)) == v }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Small magnitudes must stay small on the wire.
	if Zigzag(-1) != 1 || Zigzag(1) != 2 || Zigzag(0) != 0 {
		t.Errorf("zigzag small values wrong: %d %d %d", Zigzag(-1), Zigzag(1), Zigzag(0))
	}
}

func TestScanAllFieldTypes(t *testing.T) {
	var b []byte
	b = AppendVarintField(b, 1, 42)
	b = AppendIntField(b, 2, -7)
	b = AppendBoolField(b, 3, true)
	b = AppendFloat64Field(b, 4, 3.25)
	b = AppendFixed32Field(b, 5, 0xdeadbeef)
	b = AppendBytesField(b, 6, []byte{9, 8, 7})
	b = AppendStringField(b, 7, "heron")

	var seen []int
	err := Scan(b, func(f Field) bool {
		seen = append(seen, f.Num)
		switch f.Num {
		case 1:
			if v, _ := f.Varint(); v != 42 {
				t.Errorf("field 1 = %d", v)
			}
		case 2:
			if v, _ := f.Int(); v != -7 {
				t.Errorf("field 2 = %d", v)
			}
		case 3:
			if v, _ := f.Bool(); !v {
				t.Error("field 3 = false")
			}
		case 4:
			if v, _ := f.Float64(); v != 3.25 {
				t.Errorf("field 4 = %v", v)
			}
		case 5:
			if v, _ := Fixed32(f.Data); v != 0xdeadbeef {
				t.Errorf("field 5 = %x", v)
			}
		case 6:
			if !bytes.Equal(f.Data, []byte{9, 8, 7}) {
				t.Errorf("field 6 = %v", f.Data)
			}
		case 7:
			if f.String() != "heron" {
				t.Errorf("field 7 = %q", f.String())
			}
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 7 {
		t.Errorf("saw %d fields, want 7: %v", len(seen), seen)
	}
}

func TestScanEarlyStop(t *testing.T) {
	var b []byte
	b = AppendVarintField(b, 1, 1)
	b = AppendVarintField(b, 2, 2)
	b = AppendVarintField(b, 3, 3)
	var visited int
	if err := Scan(b, func(f Field) bool {
		visited++
		return f.Num != 2
	}); err != nil {
		t.Fatal(err)
	}
	if visited != 2 {
		t.Errorf("visited %d fields, want 2 (early stop)", visited)
	}
}

func TestFindField(t *testing.T) {
	var b []byte
	b = AppendStringField(b, 1, "skip")
	b = AppendVarintField(b, 9, 77)
	f, ok, err := FindField(b, 9)
	if err != nil || !ok {
		t.Fatalf("FindField: ok=%v err=%v", ok, err)
	}
	if v, _ := f.Varint(); v != 77 {
		t.Errorf("FindField value = %d", v)
	}
	if _, ok, _ := FindField(b, 4); ok {
		t.Error("FindField found absent field")
	}
}

func TestScanMalformed(t *testing.T) {
	// Field number zero is invalid.
	bad := AppendUvarint(nil, 0) // tag with num=0, type=varint
	bad = append(bad, 1)
	if err := Scan(bad, func(Field) bool { return true }); err != ErrBadTag {
		t.Errorf("want ErrBadTag, got %v", err)
	}
	// Truncated length-delimited payload.
	b := AppendTag(nil, 1, TypeBytes)
	b = AppendUvarint(b, 100) // claims 100 bytes, provides none
	if err := Scan(b, func(Field) bool { return true }); err != ErrTruncated {
		t.Errorf("want ErrTruncated, got %v", err)
	}
	// Unsupported wire type.
	b = AppendUvarint(nil, uint64(1)<<3|3) // deprecated group type
	if err := Scan(b, func(Field) bool { return true }); err == nil {
		t.Error("want error for unsupported wire type")
	}
	// Truncated fixed64.
	b = AppendTag(nil, 1, TypeFixed64)
	b = append(b, 1, 2, 3)
	if err := Scan(b, func(Field) bool { return true }); err != ErrTruncated {
		t.Errorf("fixed64: want ErrTruncated, got %v", err)
	}
	// Truncated fixed32.
	b = AppendTag(nil, 1, TypeFixed32)
	b = append(b, 1)
	if err := Scan(b, func(Field) bool { return true }); err != ErrTruncated {
		t.Errorf("fixed32: want ErrTruncated, got %v", err)
	}
}

func TestScanPropertyMixedFields(t *testing.T) {
	f := func(u uint64, i int64, s []byte, fl float64) bool {
		var b []byte
		b = AppendVarintField(b, 1, u)
		b = AppendIntField(b, 2, i)
		b = AppendBytesField(b, 3, s)
		b = AppendFloat64Field(b, 4, fl)
		var gu uint64
		var gi int64
		var gs []byte
		var gf float64
		err := Scan(b, func(fd Field) bool {
			switch fd.Num {
			case 1:
				gu, _ = fd.Varint()
			case 2:
				gi, _ = fd.Int()
			case 3:
				gs = append([]byte(nil), fd.Data...)
			case 4:
				gf, _ = fd.Float64()
			}
			return true
		})
		if err != nil {
			return false
		}
		floatsEqual := gf == fl || (math.IsNaN(gf) && math.IsNaN(fl))
		return gu == u && gi == i && bytes.Equal(gs, s) && floatsEqual
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBufferPool(t *testing.T) {
	b := GetBuffer()
	b.B = AppendStringField(b.B, 1, "x")
	if b.Len() == 0 {
		t.Fatal("empty after append")
	}
	PutBuffer(b)
	b2 := GetBuffer()
	if b2.Len() != 0 {
		t.Error("pooled buffer not reset")
	}
	PutBuffer(b2)
	// Oversized buffers must be dropped, not pooled.
	big := &Buffer{B: make([]byte, 0, maxPooledCap+1)}
	PutBuffer(big) // must not panic, silently dropped
	PutBuffer(nil) // nil safe
}

// TestOwnPoolKeepsItsBuffers: a buffer from a Pool goes back to that
// Pool, whoever recycles it, and never reaches GetBuffer's shared pool.
func TestOwnPoolKeepsItsBuffers(t *testing.T) {
	p := NewPool(4)
	var kept []*Buffer
	for range 6 {
		b := p.Get()
		if b.pool != p || b.Len() != 0 {
			t.Fatalf("Pool.Get returned pool=%p len=%d, want pool=%p len=0", b.pool, b.Len(), p)
		}
		b.B = append(b.B, "frame"...)
		kept = append(kept, b)
	}
	for _, b := range kept {
		PutBuffer(b) // the last two find the free list full and are dropped
	}
	for i := range 4 {
		if b := p.Get(); b != kept[i] || b.Len() != 0 {
			t.Fatalf("Get %d after recycling: got %p len %d, want the recycled %p, reset", i, b, b.Len(), kept[i])
		}
	}
	for range 64 {
		b := GetBuffer()
		if b.pool != nil {
			t.Fatal("GetBuffer returned a buffer that belongs to a Pool")
		}
		defer PutBuffer(b)
	}
}

func TestSlicePool(t *testing.T) {
	s := GetSlice(100)
	if len(s) != 100 {
		t.Fatalf("len=%d", len(s))
	}
	for i := range s {
		s[i] = byte(i)
	}
	PutSlice(s)
	s2 := GetSlice(50)
	if len(s2) != 50 {
		t.Fatalf("len=%d", len(s2))
	}
	PutSlice(s2)
	PutSlice(nil) // safe
}

func BenchmarkAppendUvarint(b *testing.B) {
	buf := make([]byte, 0, 16)
	for i := 0; i < b.N; i++ {
		buf = AppendUvarint(buf[:0], uint64(i)*2654435761)
	}
}

func BenchmarkScanFindDestination(b *testing.B) {
	// Simulates the Stream Manager's lazy routing scan: a small header
	// field followed by a large payload the router never touches.
	var msg []byte
	msg = AppendVarintField(msg, 1, 123456) // destination
	msg = AppendBytesField(msg, 2, bytes.Repeat([]byte{0xab}, 1024))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, ok, err := FindField(msg, 1)
		if err != nil || !ok {
			b.Fatal("lost destination")
		}
		if v, _ := f.Varint(); v != 123456 {
			b.Fatal("bad destination")
		}
	}
}
