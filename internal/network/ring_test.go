package network

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"heron/internal/encoding/wire"
)

func ringFrame(i int) *wire.Buffer {
	buf := wire.GetBuffer()
	buf.B = append(buf.B, []byte(fmt.Sprintf("frame-%06d", i))...)
	return buf
}

func TestFrameRingFIFO(t *testing.T) {
	r := NewFrameRing(64, 0)
	const n = 50
	for i := 0; i < n; i++ {
		if err := r.Enqueue(MsgData, ringFrame(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		kind, stamp, buf, ok := r.TryDequeue()
		if !ok {
			t.Fatalf("frame %d missing", i)
		}
		if kind != MsgData || stamp != 0 {
			t.Fatalf("frame %d: kind=%v stamp=%d", i, kind, stamp)
		}
		if want := fmt.Sprintf("frame-%06d", i); string(buf.B) != want {
			t.Fatalf("frame %d out of order: %q", i, buf.B)
		}
		wire.PutBuffer(buf)
	}
	if _, _, _, ok := r.TryDequeue(); ok {
		t.Fatal("dequeue from empty ring succeeded")
	}
}

func TestFrameRingCapacityRounding(t *testing.T) {
	// Capacity rounds up to a power of two with a minimum of 2; the ring
	// must hold exactly that many frames before a producer would block.
	r := NewFrameRing(3, 0)
	for i := 0; i < 4; i++ {
		done := make(chan error, 1)
		go func(i int) { done <- r.Enqueue(MsgData, ringFrame(i)) }(i)
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(time.Second):
			t.Fatalf("enqueue %d blocked below capacity", i)
		}
	}
	r.Close()
	if got := r.Drain(); got != 4 {
		t.Fatalf("drained %d frames, want 4", got)
	}
}

func TestFrameRingFullBlocksUntilDequeue(t *testing.T) {
	r := NewFrameRing(2, 0)
	for i := 0; i < 2; i++ {
		if err := r.Enqueue(MsgData, ringFrame(i)); err != nil {
			t.Fatal(err)
		}
	}
	unblocked := make(chan error, 1)
	go func() { unblocked <- r.Enqueue(MsgData, ringFrame(2)) }()
	select {
	case <-unblocked:
		t.Fatal("enqueue into a full ring did not block")
	case <-time.After(50 * time.Millisecond):
	}
	_, _, buf, ok := r.TryDequeue()
	if !ok {
		t.Fatal("dequeue failed")
	}
	wire.PutBuffer(buf)
	select {
	case err := <-unblocked:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("producer still blocked after consumer freed a slot")
	}
	r.Close()
	r.Drain()
}

func TestFrameRingClose(t *testing.T) {
	r := NewFrameRing(8, 0)
	for i := 0; i < 3; i++ {
		if err := r.Enqueue(MsgData, ringFrame(i)); err != nil {
			t.Fatal(err)
		}
	}
	r.Close()
	if !r.Closed() {
		t.Fatal("Closed() false after Close")
	}
	if err := r.Enqueue(MsgData, ringFrame(9)); err != ErrClosed {
		t.Fatalf("enqueue after close: %v, want ErrClosed", err)
	}
	// Frames enqueued before Close stay dequeueable; Drain recycles them.
	if got := r.Drain(); got != 3 {
		t.Fatalf("drained %d frames, want 3", got)
	}
	r.Close() // idempotent
}

func TestFrameRingAwait(t *testing.T) {
	r := NewFrameRing(8, 0)
	start := time.Now()
	if r.Await(30 * time.Millisecond) {
		t.Fatal("Await reported ready on an empty ring")
	}
	if time.Since(start) < 20*time.Millisecond {
		t.Fatal("Await returned before the timeout")
	}
	// A frame arriving while the consumer is parked must wake it promptly.
	go func() {
		time.Sleep(20 * time.Millisecond)
		r.Enqueue(MsgData, ringFrame(0))
	}()
	if !r.Await(5 * time.Second) {
		t.Fatal("Await missed the wakeup")
	}
	_, _, buf, ok := r.TryDequeue()
	if !ok {
		t.Fatal("frame not dequeueable after Await")
	}
	wire.PutBuffer(buf)
}

func TestFrameRingSampling(t *testing.T) {
	r := NewFrameRing(64, 4)
	const n = 32
	for i := 0; i < n; i++ {
		if err := r.Enqueue(MsgData, ringFrame(i)); err != nil {
			t.Fatal(err)
		}
	}
	stamped := 0
	for i := 0; i < n; i++ {
		_, stamp, buf, ok := r.TryDequeue()
		if !ok {
			t.Fatalf("frame %d missing", i)
		}
		if stamp != 0 {
			stamped++
			if now := NowNanos(); stamp > now {
				t.Fatalf("stamp %d after now %d", stamp, now)
			}
		}
		wire.PutBuffer(buf)
	}
	if want := n / 4; stamped != want {
		t.Fatalf("stamped %d of %d frames, want %d", stamped, n, want)
	}
}

func TestFrameRingConcurrentProducers(t *testing.T) {
	r := NewFrameRing(16, 0) // smaller than the load: producers must block
	const producers, per = 8, 400
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := r.Enqueue(MsgData, ringFrame(p*per+i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	got := 0
	deadline := time.Now().Add(10 * time.Second)
	for got < producers*per {
		_, _, buf, ok := r.TryDequeue()
		if ok {
			wire.PutBuffer(buf)
			got++
			continue
		}
		if time.Now().After(deadline) {
			t.Fatalf("got %d of %d frames", got, producers*per)
		}
		r.Await(time.Millisecond)
	}
	wg.Wait()
}
