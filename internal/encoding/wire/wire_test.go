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

func TestBufferPool(t *testing.T) {
	b := GetBuffer()
	b.B = AppendUvarint(b.B, 1)
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
