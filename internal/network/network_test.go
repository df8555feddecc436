package network

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"heron/internal/encoding/wire"
)

// transports is the conformance matrix. "ring" is reached through
// ByName, as configurations reach it, so the alias is held to the same
// contract as the transport it names.
func transports(t *testing.T) map[string]Transport {
	t.Helper()
	ring, err := ByName("ring")
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Transport{"inproc": InprocTransport{}, "tcp": TCPTransport{}, "ring": ring}
}

// echoPair returns a connected (client, server) pair over tr.
func connPair(t *testing.T, tr Transport) (Conn, Conn, func()) {
	t.Helper()
	l, err := tr.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	var server Conn
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := l.Accept()
		if err != nil {
			t.Error(err)
			return
		}
		server = c
	}()
	client, err := tr.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	cleanup := func() {
		client.Close()
		if server != nil {
			server.Close()
		}
		l.Close()
	}
	return client, server, cleanup
}

func TestSendReceiveAllKinds(t *testing.T) {
	for name, tr := range transports(t) {
		t.Run(name, func(t *testing.T) {
			client, server, cleanup := connPair(t, tr)
			defer cleanup()

			type rec struct {
				kind MsgKind
				data []byte
			}
			got := make(chan rec, 8)
			server.Start(func(kind MsgKind, payload []byte) {
				// Payload is only valid during the call: copy.
				got <- rec{kind, append([]byte(nil), payload...)}
			})
			msgs := []rec{
				{MsgData, []byte("tuples")},
				{MsgAck, []byte("acks")},
				{MsgControl, []byte(`{"op":"register"}`)},
				{MsgData, nil}, // empty payload is legal
			}
			for _, m := range msgs {
				if err := client.Send(m.kind, m.data); err != nil {
					t.Fatal(err)
				}
			}
			for _, want := range msgs {
				select {
				case r := <-got:
					if r.kind != want.kind || !bytes.Equal(r.data, want.data) {
						t.Errorf("got %v %q, want %v %q", r.kind, r.data, want.kind, want.data)
					}
				case <-time.After(2 * time.Second):
					t.Fatal("timeout waiting for frame")
				}
			}
		})
	}
}

func TestBidirectional(t *testing.T) {
	for name, tr := range transports(t) {
		t.Run(name, func(t *testing.T) {
			client, server, cleanup := connPair(t, tr)
			defer cleanup()
			fromServer := make(chan []byte, 1)
			fromClient := make(chan []byte, 1)
			client.Start(func(_ MsgKind, p []byte) { fromServer <- append([]byte(nil), p...) })
			server.Start(func(_ MsgKind, p []byte) { fromClient <- append([]byte(nil), p...) })
			if err := client.Send(MsgData, []byte("ping")); err != nil {
				t.Fatal(err)
			}
			if err := server.Send(MsgData, []byte("pong")); err != nil {
				t.Fatal(err)
			}
			if got := <-fromClient; string(got) != "ping" {
				t.Errorf("server got %q", got)
			}
			if got := <-fromServer; string(got) != "pong" {
				t.Errorf("client got %q", got)
			}
		})
	}
}

func TestSendAfterClose(t *testing.T) {
	for name, tr := range transports(t) {
		t.Run(name, func(t *testing.T) {
			client, server, cleanup := connPair(t, tr)
			defer cleanup()
			server.Start(func(MsgKind, []byte) {})
			client.Close()
			// TCP may need a beat for the close to surface; retry briefly.
			deadline := time.Now().Add(2 * time.Second)
			for {
				err := client.Send(MsgData, []byte("x"))
				if err != nil {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("Send succeeded after Close")
				}
				time.Sleep(10 * time.Millisecond)
			}
		})
	}
}

func TestManyFramesOrdered(t *testing.T) {
	const n = 5000
	for name, tr := range transports(t) {
		t.Run(name, func(t *testing.T) {
			client, server, cleanup := connPair(t, tr)
			defer cleanup()
			var mu sync.Mutex
			var got []int
			done := make(chan struct{})
			server.Start(func(_ MsgKind, p []byte) {
				mu.Lock()
				got = append(got, int(p[0])<<16|int(p[1])<<8|int(p[2]))
				if len(got) == n {
					close(done)
				}
				mu.Unlock()
			})
			for i := 0; i < n; i++ {
				p := []byte{byte(i >> 16), byte(i >> 8), byte(i)}
				if err := client.Send(MsgData, p); err != nil {
					t.Fatal(err)
				}
			}
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("timeout")
			}
			for i, v := range got {
				if v != i {
					t.Fatalf("frame %d out of order: %d", i, v)
				}
			}
		})
	}
}

func TestFrameTooBig(t *testing.T) {
	for name, tr := range transports(t) {
		t.Run(name, func(t *testing.T) {
			client, _, cleanup := connPair(t, tr)
			defer cleanup()
			huge := make([]byte, MaxFrameSize+1)
			if err := client.Send(MsgData, huge); err != ErrFrameTooBig {
				t.Errorf("want ErrFrameTooBig, got %v", err)
			}
		})
	}
}

func TestListenerCloseUnblocksAccept(t *testing.T) {
	for name, tr := range transports(t) {
		t.Run(name, func(t *testing.T) {
			l, err := tr.Listen("")
			if err != nil {
				t.Fatal(err)
			}
			errc := make(chan error, 1)
			go func() {
				_, err := l.Accept()
				errc <- err
			}()
			time.Sleep(20 * time.Millisecond)
			l.Close()
			select {
			case err := <-errc:
				if err != ErrClosed {
					t.Errorf("want ErrClosed, got %v", err)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("Accept did not unblock")
			}
		})
	}
}

func TestInprocAddressReuseAfterClose(t *testing.T) {
	tr := InprocTransport{}
	l, err := tr.Listen("reuse-test")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Listen("reuse-test"); err == nil {
		t.Fatal("double bind should fail")
	}
	l.Close()
	l2, err := tr.Listen("reuse-test")
	if err != nil {
		t.Fatalf("rebind after close: %v", err)
	}
	l2.Close()
}

func TestInprocDialUnknown(t *testing.T) {
	if _, err := (InprocTransport{}).Dial("no-such-endpoint"); err == nil {
		t.Fatal("want error")
	}
}

func TestByName(t *testing.T) {
	for n, want := range map[string]string{"": "inproc", "inproc": "inproc", "tcp": "tcp", "ring": "inproc"} {
		tr, err := ByName(n)
		if err != nil || tr == nil {
			t.Errorf("ByName(%q): %v", n, err)
			continue
		}
		if tr.Name() != want {
			t.Errorf("ByName(%q).Name() = %q, want %q", n, tr.Name(), want)
		}
	}
	if _, err := ByName("rdma"); err == nil {
		t.Error("want error for unknown transport")
	}
}

func TestConcurrentSenders(t *testing.T) {
	for name, tr := range transports(t) {
		t.Run(name, func(t *testing.T) {
			client, server, cleanup := connPair(t, tr)
			defer cleanup()
			const senders, per = 8, 500
			var count atomic.Int64
			done := make(chan struct{})
			server.Start(func(_ MsgKind, p []byte) {
				if count.Add(1) == senders*per {
					close(done)
				}
			})
			var wg sync.WaitGroup
			for s := 0; s < senders; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					payload := []byte(fmt.Sprintf("sender-%d", s))
					for i := 0; i < per; i++ {
						if err := client.Send(MsgData, payload); err != nil {
							t.Error(err)
							return
						}
					}
				}(s)
			}
			wg.Wait()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatalf("got %d of %d frames", count.Load(), senders*per)
			}
		})
	}
}

func TestStartTwicePanics(t *testing.T) {
	for name, tr := range transports(t) {
		t.Run(name, func(t *testing.T) {
			_, server, cleanup := connPair(t, tr)
			defer cleanup()
			server.Start(func(MsgKind, []byte) {})
			defer func() {
				if recover() == nil {
					t.Fatal("second Start did not panic")
				}
			}()
			server.StartOwned(func(_ MsgKind, buf *wire.Buffer) { wire.PutBuffer(buf) })
		})
	}
}

func TestSendOwnedDelivers(t *testing.T) {
	for name, tr := range transports(t) {
		t.Run(name, func(t *testing.T) {
			client, server, cleanup := connPair(t, tr)
			defer cleanup()
			got := make(chan string, 1)
			server.StartOwned(func(kind MsgKind, buf *wire.Buffer) {
				got <- string(buf.B)
				wire.PutBuffer(buf)
			})
			buf := wire.GetBuffer()
			buf.B = append(buf.B, "owned-frame"...)
			if err := client.SendOwned(MsgData, buf); err != nil {
				t.Fatal(err)
			}
			if err := client.Flush(); err != nil {
				t.Fatal(err)
			}
			select {
			case s := <-got:
				if s != "owned-frame" {
					t.Fatalf("got %q", s)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("owned frame not delivered")
			}
		})
	}
}

// TestHandlerMayReplyOnItsConn echoes every frame from inside the
// server's handler: on inproc the reply runs the client's handler on the
// client's own sending goroutine, which must neither deadlock nor reorder.
func TestHandlerMayReplyOnItsConn(t *testing.T) {
	const n = 200
	for name, tr := range transports(t) {
		t.Run(name, func(t *testing.T) {
			client, server, cleanup := connPair(t, tr)
			defer cleanup()
			server.Start(func(kind MsgKind, p []byte) {
				if err := server.Send(kind, p); err != nil {
					t.Error(err)
				}
			})
			echoes := make(chan byte, n)
			client.Start(func(_ MsgKind, p []byte) { echoes <- p[0] })
			for i := 0; i < n; i++ {
				if err := client.Send(MsgControl, []byte{byte(i)}); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < n; i++ {
				select {
				case b := <-echoes:
					if b != byte(i) {
						t.Fatalf("echo %d carried %d", i, b)
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("echo %d missing", i)
				}
			}
		})
	}
}

// TestSendBeforeStartIsDelivered sends from another goroutine before the
// receiver starts: the frame arrives once it does. On inproc that Send
// waits for Start, and closing either end meanwhile fails it.
func TestSendBeforeStartIsDelivered(t *testing.T) {
	for name, tr := range transports(t) {
		t.Run(name, func(t *testing.T) {
			client, server, cleanup := connPair(t, tr)
			defer cleanup()
			sent := make(chan error, 1)
			go func() { sent <- client.Send(MsgData, []byte("early")) }()
			inproc := tr.Name() == "inproc"
			if inproc {
				// A head start for the Send; the checks hold however far it got.
				time.Sleep(10 * time.Millisecond)
				select {
				case err := <-sent:
					t.Fatalf("inproc Send returned %v before the receiver started", err)
				default:
				}
			}
			got := make(chan string, 1)
			server.Start(func(_ MsgKind, p []byte) { got <- string(p) })
			select {
			case s := <-got:
				if s != "early" {
					t.Fatalf("got %q", s)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("frame sent before Start not delivered")
			}
			if err := <-sent; err != nil {
				t.Fatal(err)
			}
			if !inproc {
				return
			}
			for _, closer := range []string{"sender", "receiver"} {
				client, server, cleanup := connPair(t, tr)
				go func() { sent <- client.Send(MsgData, []byte("never")) }()
				time.Sleep(10 * time.Millisecond)
				if closer == "sender" {
					client.Close()
				} else {
					server.Close()
				}
				select {
				case err := <-sent:
					if err != ErrClosed {
						t.Errorf("closing the %s: waiting Send returned %v, want ErrClosed", closer, err)
					}
				case <-time.After(2 * time.Second):
					t.Errorf("closing the %s did not release the waiting Send", closer)
				}
				cleanup()
			}
		})
	}
}

// TestInprocStartsNoGoroutine: an inproc connection delivers on its
// senders' goroutines, so dialing, starting both ends and exchanging
// frames leaves the goroutine count where it was.
func TestInprocStartsNoGoroutine(t *testing.T) {
	const frames = 1000
	tr := InprocTransport{}
	l, err := tr.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	before := runtime.NumGoroutine()
	client, err := tr.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	server, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	var toServer, toClient int
	server.Start(func(MsgKind, []byte) { toServer++ })
	client.Start(func(MsgKind, []byte) { toClient++ })
	payload := []byte("frame")
	for i := 0; i < frames; i++ {
		if err := client.Send(MsgData, payload); err != nil {
			t.Fatal(err)
		}
		if err := server.Send(MsgData, payload); err != nil {
			t.Fatal(err)
		}
	}
	if toServer != frames || toClient != frames {
		t.Fatalf("delivered %d and %d frames, want %d each", toServer, toClient, frames)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines after exchanging frames, %d before Dial", n, before)
	}
}

// TestInprocListenerCloseFailsUnaccepted: a connection dialed but never
// accepted is closed with its listener, so a Send waiting for the
// acceptor's Start returns instead of waiting forever.
func TestInprocListenerCloseFailsUnaccepted(t *testing.T) {
	tr := InprocTransport{}
	l, err := tr.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	client, err := tr.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	sent := make(chan error, 1)
	go func() { sent <- client.Send(MsgControl, []byte("register")) }()
	l.Close()
	select {
	case err := <-sent:
		if err != ErrClosed {
			t.Fatalf("Send on an unaccepted connection returned %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("closing the listener did not release the Send")
	}
}

func BenchmarkSendRecv(b *testing.B) {
	for name, tr := range map[string]Transport{"inproc": InprocTransport{}, "tcp": TCPTransport{}} {
		b.Run(name, func(b *testing.B) {
			l, err := tr.Listen("")
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			acceptErr := make(chan error, 1)
			var server Conn
			go func() {
				c, err := l.Accept()
				server = c
				acceptErr <- err
			}()
			client, err := tr.Dial(l.Addr())
			if err != nil {
				b.Fatal(err)
			}
			if err := <-acceptErr; err != nil {
				b.Fatal(err)
			}
			defer client.Close()
			defer server.Close()
			var seen atomic.Int64
			server.Start(func(MsgKind, []byte) { seen.Add(1) })
			payload := bytes.Repeat([]byte{0xaa}, 256)
			b.SetBytes(int64(len(payload)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := client.Send(MsgData, payload); err != nil {
					b.Fatal(err)
				}
			}
			for int(seen.Load()) < b.N {
				time.Sleep(time.Millisecond)
			}
		})
	}
}
