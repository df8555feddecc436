package stmgr

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"heron/internal/core"
	"heron/internal/encoding/wire"
	"heron/internal/network"
	"heron/internal/tuple"
)

// countingConn records every delivered frame in order and counts flushes.
// A gate channel, when set, blocks the first SendOwned until released so a
// test can pile frames into the outbox queue and observe them drain as one
// batch. Setting failAfter >= 0 makes the (failAfter+1)-th SendOwned fail.
type countingConn struct {
	mu        sync.Mutex
	frames    [][]byte
	kinds     []network.MsgKind
	flushes   int
	gate      chan struct{}
	gateOnce  sync.Once
	failAfter int

	sent chan struct{} // signaled once per accepted frame
}

func newCountingConn() *countingConn {
	return &countingConn{failAfter: -1, sent: make(chan struct{}, 4096)}
}

var errConnDown = errors.New("countingConn: down")

func (c *countingConn) Send(kind network.MsgKind, payload []byte) error {
	buf := wire.GetBuffer()
	buf.B = append(buf.B, payload...)
	return c.SendOwned(kind, buf)
}

func (c *countingConn) SendOwned(kind network.MsgKind, buf *wire.Buffer) error {
	if c.gate != nil {
		c.gateOnce.Do(func() { <-c.gate })
	}
	c.mu.Lock()
	if c.failAfter >= 0 && len(c.frames) >= c.failAfter {
		c.mu.Unlock()
		wire.PutBuffer(buf)
		return errConnDown
	}
	c.frames = append(c.frames, append([]byte(nil), buf.B...))
	c.kinds = append(c.kinds, kind)
	c.mu.Unlock()
	wire.PutBuffer(buf)
	c.sent <- struct{}{}
	return nil
}

func (c *countingConn) Flush() error {
	c.mu.Lock()
	c.flushes++
	c.mu.Unlock()
	return nil
}

func (c *countingConn) Start(network.Handler)           {}
func (c *countingConn) StartOwned(network.OwnedHandler) {}
func (c *countingConn) Close() error                    { return nil }

func (c *countingConn) snapshot() (frames [][]byte, flushes int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([][]byte(nil), c.frames...), c.flushes
}

func waitFrames(t *testing.T, c *countingConn, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case <-c.sent:
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out waiting for frame %d of %d", i+1, n)
		}
	}
}

// TestOutboxDrainCoalescesFlushes checks the vectored-send contract: a
// queue of N frames drains through SendOwned in order and ends with a
// single Flush for the whole batch, not one per frame.
func TestOutboxDrainCoalescesFlushes(t *testing.T) {
	conn := newCountingConn()
	conn.gate = make(chan struct{})
	o := newOutbox(conn, nil, nil)
	defer o.close()

	// First frame occupies the sender (blocked on the gate); the rest
	// accumulate in the queue and must drain as one batch.
	const queued = 16
	var want [][]byte
	for i := 0; i < queued+1; i++ {
		buf := wire.GetBuffer()
		buf.B = append(buf.B, byte(i), byte(i>>8))
		want = append(want, append([]byte(nil), buf.B...))
		o.enqueueOwned(network.MsgData, buf)
	}
	close(conn.gate)
	waitFrames(t, conn, queued+1)

	frames, flushes := conn.snapshot()
	if len(frames) != queued+1 {
		t.Fatalf("delivered %d frames, want %d", len(frames), queued+1)
	}
	for i, f := range frames {
		if string(f) != string(want[i]) {
			t.Fatalf("frame %d out of order or corrupted", i)
		}
	}
	// Two drains happened (the gated single frame, then the batch): at
	// most one flush each.
	if flushes > 2 {
		t.Errorf("drained %d frames with %d flushes, want <= 2", queued+1, flushes)
	}
}

// TestOutboxSendErrorParksAndDrops drives the send-error branch: the
// sender must recycle everything still queued, stay closed, and drop (not
// deadlock on) later enqueues.
func TestOutboxSendErrorParksAndDrops(t *testing.T) {
	conn := newCountingConn()
	conn.gate = make(chan struct{})
	conn.failAfter = 1 // second SendOwned fails
	o := newOutbox(conn, nil, nil)

	for i := 0; i < 8; i++ {
		buf := wire.GetBuffer()
		buf.B = append(buf.B, byte(i))
		o.enqueueOwned(network.MsgData, buf)
	}
	close(conn.gate)
	waitFrames(t, conn, 1) // only the first frame lands

	// The sender parks after the error; queue must empty without delivery.
	// (Depth alone reads 0 while the failing batch is still in the
	// sender's hands, so wait for the park itself.)
	parked := func() bool {
		o.mu.Lock()
		defer o.mu.Unlock()
		return o.closed && len(o.queue) == 0
	}
	deadline := time.Now().Add(5 * time.Second)
	for !parked() {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth %d after send error, want 0 and parked", o.depth())
		}
		time.Sleep(time.Millisecond)
	}
	// Later enqueues are dropped and recycled, not queued.
	buf := wire.GetBuffer()
	buf.B = append(buf.B, 0xff)
	o.enqueueOwned(network.MsgData, buf)
	if d := o.depth(); d != 0 {
		t.Errorf("enqueue after park queued %d frames, want 0", d)
	}
	frames, _ := conn.snapshot()
	if len(frames) != 1 {
		t.Errorf("delivered %d frames, want 1 (rest dropped on error)", len(frames))
	}
	o.close() // must not hang on a parked sender
}

// TestRouteSnapshotRace hammers the lock-free data path — concurrent
// receive goroutines entering through routeFrameOwned, the shard workers
// behind them — while the control plane keeps republishing the routing
// snapshots; the race detector (make verify runs -race) is the assertion.
func TestRouteSnapshotRace(t *testing.T) {
	for _, shards := range shardCounts {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			topo, packing := twoContainerPlan()
			s := newBenchSMShards(t, topo, packing, shards)
			local := benchFrame(2, 8)
			remote := benchFrame(3, 8)
			single := benchFrame(2, 1)
			marker := tuple.AppendMarker(nil, 1, 0, 2)
			ack := tuple.AppendAckFrameHeader(nil, 1)
			ack = tuple.AppendFrameEntry(ack, tuple.EncodeAck(nil, &tuple.AckTuple{
				Kind: tuple.AckAck, SpoutTask: 1, Root: 42,
			}))

			stop := make(chan struct{})
			var wg sync.WaitGroup
			for i := 0; i < 4; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						ingestOwned(s, network.MsgData, local)
						ingestOwned(s, network.MsgData, remote)
						ingestOwned(s, network.MsgData, single)
						ingestOwned(s, network.MsgMarker, marker)
						ingestOwned(s, network.MsgAck, ack)
						s.notifyCommitted(3)
					}
				}()
			}
			// Control plane: churn the snapshots — an instance comes and
			// goes, the plan is republished — as registerInstance and
			// applyPlan would. (A published plan never goes back to nil.)
			inst := s.instances[2]
			for i := 0; i < 2000; i++ {
				s.mu.Lock()
				if i%2 == 0 {
					delete(s.instances, 2)
				} else {
					s.instances[2] = inst
				}
				s.publishRoutesLocked()
				s.mu.Unlock()
			}
			s.mu.Lock()
			s.instances[2] = inst
			s.publishRoutesLocked()
			s.mu.Unlock()
			close(stop)
			wg.Wait()
		})
	}
}

// assertRouteZeroAlloc asserts the data path's headline number: once the
// pools and outbox arrays are warm, the worker's per-frame function routes
// a pre-batched frame for dest (a local task to its instance, a remote
// one to the peer) without allocating — the frame's pooled buffer rides
// the outbox to the transport and back to the pool.
func assertRouteZeroAlloc(t *testing.T, s *StreamManager, dest int32) {
	t.Helper()
	localConn := s.instances[2].conn.(*nullConn)
	peerConn := s.peers[2].conn.(*nullConn)
	frame := benchFrame(dest, 8)
	sent := localConn.sends.Load() + peerConn.sends.Load()
	route := func() {
		process(s, dest, frame)
		sent++
		for localConn.sends.Load()+peerConn.sends.Load() < sent {
			runtime.Gosched() // keep the queue at steady-state depth
		}
	}
	// Warm up the buffer pool and the outbox's ping-pong batch arrays.
	for i := 0; i < 256; i++ {
		route()
	}
	if avg := testing.AllocsPerRun(512, route); avg != 0 {
		t.Errorf("processData allocates %.3f per frame for task %d in steady state, want 0", avg, dest)
	}
}

// TestRouteLazyPrebatchedZeroAlloc: a pre-batched frame for a local
// instance crosses the router without an allocation.
func TestRouteLazyPrebatchedZeroAlloc(t *testing.T) {
	assertRouteZeroAlloc(t, newBenchSM(t), 2)
}

// TestRemoteBatchZeroAlloc is the same assertion for the peer leg (task 3
// lives on container 2).
func TestRemoteBatchZeroAlloc(t *testing.T) {
	assertRouteZeroAlloc(t, newBenchSM(t), 3)
}

// TestCacheFramesReturnToTheirCache: a frame the tuple cache or the
// remote-ack batcher built comes back to it when its receiver recycles
// it, and the next batch is built in it without growing, so their frame
// allocations do not depend on what the shared pool holds.
func TestCacheFramesReturnToTheirCache(t *testing.T) {
	cfg := core.NewConfig()
	cfg.CacheMaxBatchTuples = 64
	var sealed *wire.Buffer
	tc := newTupleCache(cfg, func(_ int32, _ int, buf *wire.Buffer) { sealed = buf })
	entry := make([]byte, 100)
	fill := func() *wire.Buffer {
		for range cfg.CacheMaxBatchTuples {
			tc.add(7, entry)
		}
		return sealed
	}
	first := fill()
	size := cap(first.B)
	wire.PutBuffer(first)
	// Another sender holds the shared pool's newest buffer meanwhile.
	held := wire.GetBuffer()
	if again := fill(); again != first || cap(again.B) != size {
		t.Errorf("tuple cache: next batch in %p (cap %d), want the recycled frame %p (cap %d)", again, cap(again.B), first, size)
	}
	wire.PutBuffer(held)

	s := newBenchSM(t)
	peer := stallPeer(s, 2)
	acks := ackFrameOf(remoteAcks(1, 64)) // spout 1 lives on container 2
	route := func() *wire.Buffer {
		s.routeAck(acks)
		q := queued(peer)
		if len(q) != 1 {
			t.Fatalf("%d ack frames for the peer, want 1", len(q))
		}
		return q[0].buf
	}
	frame := route()
	size = cap(frame.B)
	wire.PutBuffer(frame)
	held = wire.GetBuffer()
	if again := route(); again != frame || cap(again.B) != size {
		t.Errorf("ack batcher: next batch in %p (cap %d), want the recycled frame %p (cap %d)", again, cap(again.B), frame, size)
	}
	wire.PutBuffer(held)
}
