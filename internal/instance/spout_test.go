package instance

import (
	"math/rand"
	"testing"
	"time"

	"heron/api"
	"heron/internal/core"
	"heron/internal/encoding/wire"
	"heron/internal/metrics"
	"heron/internal/network"
	"heron/internal/tuple"
)

// ackConn stands in for a spout executor's Stream Manager connection: it
// recycles every frame it is handed and keeps, in order, the root of every
// tree the spout anchors.
type ackConn struct{ roots []uint64 }

func (c *ackConn) Send(kind network.MsgKind, p []byte) error {
	c.record(kind, p)
	return nil
}

func (c *ackConn) SendOwned(kind network.MsgKind, buf *wire.Buffer) error {
	c.record(kind, buf.B)
	wire.PutBuffer(buf)
	return nil
}

func (c *ackConn) record(kind network.MsgKind, frame []byte) {
	if kind != network.MsgAck {
		return
	}
	_ = tuple.WalkAckFrame(frame, func(ab []byte) error {
		var a tuple.AckTuple
		if tuple.DecodeAck(ab, &a) == nil && a.Kind == tuple.AckAnchor {
			c.roots = append(c.roots, a.Root)
		}
		return nil
	})
}

func (*ackConn) Flush() error                    { return nil }
func (*ackConn) Start(network.Handler)           {}
func (*ackConn) StartOwned(network.OwnedHandler) {}
func (*ackConn) Close() error                    { return nil }

// newSpoutExecutor builds spout task 0 of planPayload, acking on, over an
// ackConn: just enough state to drive Emit and spoutFrame on the caller's
// goroutine, with no executor loop.
func newSpoutExecutor(tb testing.TB, sp api.Spout) (*Instance, *spoutCollector, *ackConn) {
	tb.Helper()
	ps, err := newPlanState(planPayload(1), 0)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := core.NewConfig()
	cfg.AckingEnabled = true
	reg := metrics.NewRegistry()
	tags := metrics.Tags{Component: "s", Task: 0}
	conn := &ackConn{}
	in := &Instance{
		opts: Options{ID: core.InstanceID{Component: "s", TaskID: 0},
			Kind: core.KindSpout, Spout: sp, Cfg: cfg},
		conn:        conn,
		codec:       tuple.FastCodec{},
		rng:         rand.New(rand.NewSource(1)),
		batchOut:    true,
		outBatchMax: defaultOutBatchTuples,
		mEmitted:    reg.Counter(metrics.MEmitCount, tags),
		mAcked:      reg.Counter(metrics.MAckCount, tags),
		mFailed:     reg.Counter(metrics.MFailCount, tags),
		mLatency:    reg.Histogram(metrics.MCompleteLatency, tags),
		mPending:    reg.Gauge(metrics.MSpoutPending, tags),
	}
	in.plan.Store(ps)
	return in, &spoutCollector{in: in}, conn
}

// emitTrees emits n reliable tuples and flushes them, so their anchors
// reach the ackConn.
func emitTrees(in *Instance, col *spoutCollector, n int) {
	for i := 0; i < n; i++ {
		col.Emit("", "id", "word")
	}
	in.flushOut()
}

// appendAckFrame appends an ack frame carrying one kind notification per
// root, as a Stream Manager sends finished trees to their spout.
func appendAckFrame(dst []byte, kind tuple.AckKind, roots []uint64) []byte {
	dst = tuple.AppendAckFrameHeader(dst, len(roots))
	var enc [tuple.AckSize]byte
	for _, r := range roots {
		dst = tuple.AppendFrameEntry(dst, tuple.EncodeAck(enc[:0], &tuple.AckTuple{Kind: kind, Root: r}))
	}
	return dst
}

// notify delivers one ack frame to the spout executor.
func notify(in *Instance, kind tuple.AckKind, roots ...uint64) {
	buf := wire.GetBuffer()
	buf.B = appendAckFrame(buf.B, kind, roots)
	in.spoutFrame(inFrame{network.MsgAck, buf})
}

// TestCompletionForReusedSlotMisses: with one tree in flight at a time,
// as MaxSpoutPending 1 keeps a running spout, tree B takes the slot tree A
// freed. Late notifications for A — an expiry, then an ack — must miss B,
// which completes only on its own.
func TestCompletionForReusedSlotMisses(t *testing.T) {
	sp := &testSpout{}
	in, col, conn := newSpoutExecutor(t, sp)

	emitTrees(in, col, 1)
	notify(in, tuple.AckAck, conn.roots[0])
	emitTrees(in, col, 1)
	a, b := conn.roots[0], conn.roots[1]
	if uint32(a) != uint32(b) || a == b {
		t.Fatalf("tree B's root %#x does not reuse the slot of A's %#x", b, a)
	}
	if RootSpout(a) != 0 || RootSpout(b) != 0 {
		t.Fatalf("roots %#x, %#x do not name spout task 0", a, b)
	}

	notify(in, tuple.AckExpired, a)
	notify(in, tuple.AckAck, a)
	if got := in.mPending.Value(); got != 1 || len(in.pending) != 1 {
		t.Fatalf("spout.pending = %d, table %d slots; want B alone pending in 1 slot", got, len(in.pending))
	}
	if acked, failed := sp.acked.Load(), sp.failed.Load(); acked != 1 || failed != 0 {
		t.Fatalf("after A's late notifications the spout saw %d acks, %d fails; want A's 1 ack only", acked, failed)
	}

	notify(in, tuple.AckAck, b)
	if acked, failed := sp.acked.Load(), sp.failed.Load(); acked != 2 || failed != 0 {
		t.Fatalf("B's completion: the spout saw %d acks, %d fails; want 2, 0", acked, failed)
	}
	if got := in.mPending.Value(); got != 0 {
		t.Fatalf("spout.pending = %d after B completed, want 0", got)
	}
}

// TestPendingTableBoundedByWindow runs a spout through 10,000 trees at a
// window of 3, the fake Stream Manager completing every tree it anchors:
// freed slots are reused, so the table never outgrows the window plus one
// NextTuple batch (one emit for testSpout).
func TestPendingTableBoundedByWindow(t *testing.T) {
	const trees, window = 10000, 3
	sim := newStmgrSim(t)
	cfg := core.NewConfig()
	cfg.AckingEnabled = true
	cfg.MaxSpoutPending = window
	sp := &testSpout{limit: trees}
	inst := startSpout(t, sim, cfg, sp)
	sim.waitRegistered(t, 1)
	sim.sendPlan(t, 1)
	conn := sim.conn(t)

	deadline := time.NewTimer(60 * time.Second)
	defer deadline.Stop()
	poll := time.NewTicker(time.Millisecond) // rechecks acked after the last frame
	defer poll.Stop()
	var roots []uint64
	for sp.acked.Load() < trees {
		select {
		case f := <-sim.frames:
			if f.kind != network.MsgAck {
				continue
			}
			roots = roots[:0]
			_ = tuple.WalkAckFrame(f.data, func(ab []byte) error {
				var a tuple.AckTuple
				if tuple.DecodeAck(ab, &a) == nil && a.Kind == tuple.AckAnchor {
					roots = append(roots, a.Root)
				}
				return nil
			})
			if err := conn.Send(network.MsgAck, appendAckFrame(nil, tuple.AckAck, roots)); err != nil {
				t.Fatal(err)
			}
		case <-poll.C:
		case <-deadline.C:
			t.Fatalf("%d of %d trees acked", sp.acked.Load(), trees)
		}
	}
	inst.Stop() // the table is read after the executor has exited
	if n := len(inst.pending); n > window+1 {
		t.Errorf("pending table grew to %d slots, want <= %d", n, window+1)
	}
	if sp.failed.Load() != 0 {
		t.Errorf("%d trees failed", sp.failed.Load())
	}
}

// TestCompleteLatencySampled: complete latency is clocked on one reliable
// emit in latencySampleEvery, the first included, so n completed trees
// record exactly ⌈n/8⌉ samples while ack-count stays exact.
func TestCompleteLatencySampled(t *testing.T) {
	const n, perFrame = 100, 10
	in, col, conn := newSpoutExecutor(t, &testSpout{})
	for i := 0; i < n/perFrame; i++ {
		conn.roots = conn.roots[:0]
		emitTrees(in, col, perFrame)
		notify(in, tuple.AckAck, conn.roots...)
	}
	want := int64((n + latencySampleEvery - 1) / latencySampleEvery)
	s := in.mLatency.Snapshot()
	if s.Count != want {
		t.Errorf("complete-latency count = %d for %d trees, want %d", s.Count, n, want)
	}
	if s.Max <= 0 {
		t.Errorf("complete-latency max = %d, want > 0", s.Max)
	}
	if got := in.mAcked.Value(); got != n {
		t.Errorf("ack-count = %d, want %d", got, n)
	}
}

// BenchmarkSpoutEmitAck is the spout's per-tree work: 64 reliable emits,
// then one completion frame for all of them. In steady state it allocates
// nothing.
func BenchmarkSpoutEmitAck(b *testing.B) {
	in, col, conn := newSpoutExecutor(b, &testSpout{})
	vals := []any{"word"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conn.roots = conn.roots[:0]
		for j := 0; j < 64; j++ {
			col.Emit("", "id", vals...)
		}
		in.flushOut()
		buf := wire.GetBuffer()
		buf.B = appendAckFrame(buf.B, tuple.AckAck, conn.roots)
		in.spoutFrame(inFrame{network.MsgAck, buf})
	}
}
