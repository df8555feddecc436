package wire

import "sync"

// Buffer is a reusable byte buffer for encoding messages. Obtain one with
// GetBuffer or from a Pool and return it with PutBuffer; the pool keeps
// steady-state encoding allocation-free, which is the paper's memory-pool
// optimization for Protocol Buffer objects.
type Buffer struct {
	B    []byte
	pool *Pool // where PutBuffer returns it; nil = the shared pool
}

// Reset truncates the buffer without releasing its capacity.
func (b *Buffer) Reset() { b.B = b.B[:0] }

// Bytes returns the encoded contents. The slice aliases the buffer.
func (b *Buffer) Bytes() []byte { return b.B }

// Sized resizes the buffer to exactly n bytes, growing the capacity if
// needed, and returns the backing slice. Contents are unspecified; use it
// as a read target (e.g. a framed transport read).
func (b *Buffer) Sized(n int) []byte {
	if cap(b.B) < n {
		b.B = make([]byte, n)
	} else {
		b.B = b.B[:n]
	}
	return b.B
}

// Len returns the number of encoded bytes.
func (b *Buffer) Len() int { return len(b.B) }

// pool sizes are bucketed so a single giant message does not pin a huge
// backing array under a pool entry forever.
const maxPooledCap = 1 << 20

var bufPool = sync.Pool{New: func() any { return &Buffer{B: make([]byte, 0, 512)} }}

// GetBuffer returns an empty pooled buffer.
func GetBuffer() *Buffer {
	b := bufPool.Get().(*Buffer)
	b.Reset()
	return b
}

// PutBuffer returns a buffer to the pool. Buffers that grew beyond
// maxPooledCap are dropped so the pool's memory footprint stays bounded.
func PutBuffer(b *Buffer) {
	if b == nil || cap(b.B) > maxPooledCap {
		return
	}
	if b.pool != nil {
		select {
		case b.pool.free <- b:
		default: // the free list is full: drop it
		}
		return
	}
	bufPool.Put(b)
}

// Pool is a bounded free list of buffers for one kind of frame. A buffer
// from Get goes back to its Pool on PutBuffer, whoever recycles it, so a
// sender of large frames gets back buffers at the sizes it built instead
// of the small control-frame buffers that mostly fill the shared pool.
// Unlike the shared pool, the collector does not empty it, so how often
// such a sender allocates a frame does not depend on how often the
// collector runs.
type Pool struct{ free chan *Buffer }

// NewPool returns a Pool that keeps up to n idle buffers.
func NewPool(n int) *Pool { return &Pool{free: make(chan *Buffer, n)} }

// Get returns an empty buffer that PutBuffer returns to p.
func (p *Pool) Get() *Buffer {
	select {
	case b := <-p.free:
		b.Reset()
		return b
	default:
		return &Buffer{pool: p}
	}
}

// slicePool pools raw byte slices used for payload copies (e.g. framed
// reads). Entries are length-reset on Get.
var slicePool = sync.Pool{New: func() any {
	s := make([]byte, 0, 4096)
	return &s
}}

// GetSlice returns a pooled byte slice with length n (capacity at least n).
// Return it with PutSlice when done.
func GetSlice(n int) []byte {
	sp := slicePool.Get().(*[]byte)
	s := *sp
	if cap(s) < n {
		s = make([]byte, n)
	}
	return s[:n]
}

// PutSlice returns a slice obtained from GetSlice to the pool.
func PutSlice(s []byte) {
	if cap(s) == 0 || cap(s) > maxPooledCap {
		return
	}
	s = s[:0]
	slicePool.Put(&s)
}
