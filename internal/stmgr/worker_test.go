package stmgr

import (
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"heron/internal/acker"
	"heron/internal/core"
	"heron/internal/ctrl"
	"heron/internal/encoding/wire"
	"heron/internal/metrics"
	"heron/internal/network"
	"heron/internal/tuple"
)

// ingestOwned feeds one frame through routeFrameOwned, the way a
// transport's StartOwned handler does.
func ingestOwned(s *StreamManager, kind network.MsgKind, frame []byte) {
	s.routeFrameOwned(kind, owned(frame))
}

// oneWorker runs body as the subtest "shards=1". These tests once ran at
// several worker counts; the Stream Manager now has exactly one worker,
// and the one-worker case keeps the subtest name it always had so its
// results line up with earlier runs.
func oneWorker(t *testing.T, body func(t *testing.T)) {
	t.Run("shards=1", body)
}

// recordedKinds returns the frame kinds conn has seen, in order.
func recordedKinds(conn *countingConn) []network.MsgKind {
	conn.mu.Lock()
	defer conn.mu.Unlock()
	return append([]network.MsgKind(nil), conn.kinds...)
}

// TestAckPath: an anchor then a final ack for a tracked tree must complete
// it and notify the spout's instance.
func TestAckPath(t *testing.T) {
	oneWorker(t, func(t *testing.T) {
		s := newWorkerSM(t)
		conn := installRecorder(t, s, 0) // task 0: local spout

		ackFrame := func(kind tuple.AckKind, spout int32, root uint64, delta uint64) []byte {
			b := tuple.AppendAckFrameHeader(nil, 1)
			return tuple.AppendFrameEntry(b, tuple.EncodeAck(nil, &tuple.AckTuple{
				Kind: kind, SpoutTask: spout, Root: root, Delta: delta,
			}))
		}
		ingestOwned(s, network.MsgAck, ackFrame(tuple.AckAnchor, 0, 99, 0x5a5a))
		ingestOwned(s, network.MsgAck, ackFrame(tuple.AckAck, 0, 99, 0x5a5a))

		waitFrames(t, conn, 1)
		frames, _ := conn.snapshot()
		if kind := recordedKinds(conn)[0]; kind != network.MsgAck {
			t.Fatalf("notification kind = %v, want MsgAck", kind)
		}
		var got tuple.AckTuple
		if err := tuple.WalkAckFrame(frames[0], func(ab []byte) error {
			return tuple.DecodeAck(ab, &got)
		}); err != nil {
			t.Fatal(err)
		}
		if got.Kind != tuple.AckAck || got.SpoutTask != 0 || got.Root != 99 {
			t.Fatalf("spout notification = %+v, want AckAck for root 99 at task 0", got)
		}
	})
}

// TestTreeDoneZeroAlloc: notifying a spout of finished trees costs
// nothing beyond the pooled frame the notifications ride in — each ack is
// encoded on the stack and appended to its spout's batch, and the flushed
// frame comes back to the batcher's pool.
func TestTreeDoneZeroAlloc(t *testing.T) {
	s := newBenchSM(t)
	conn := s.instances[2].conn.(*nullConn)
	const trees = 64
	sent := conn.sends.Load()
	batch := func() {
		for i := uint64(1); i <= trees; i++ {
			s.onTreeDone(core.MakeRoot(2, i), acker.Completed)
		}
		s.done.flush()
		sent++
		for conn.sends.Load() < sent {
			runtime.Gosched()
		}
	}
	for i := 0; i < 256; i++ {
		batch()
	}
	if avg := testing.AllocsPerRun(512, batch); avg != 0 {
		t.Errorf("a flushed batch of %d finished trees allocates %.3f, want 0", trees, avg)
	}
}

// ackFrameOf encodes acks as one inbound ack frame.
func ackFrameOf(acks []tuple.AckTuple) []byte {
	b := tuple.AppendAckFrameHeader(nil, len(acks))
	for i := range acks {
		b = tuple.AppendFrameEntry(b, tuple.EncodeAck(nil, &acks[i]))
	}
	return b
}

// decodeAckFrame returns the ack tuples of one recorded frame.
func decodeAckFrame(t *testing.T, frame []byte) []tuple.AckTuple {
	t.Helper()
	var out []tuple.AckTuple
	if err := tuple.WalkAckFrame(frame, func(ab []byte) error {
		var a tuple.AckTuple
		if err := tuple.DecodeAck(ab, &a); err != nil {
			return err
		}
		out = append(out, a)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// expectOnlyFrame waits for one frame on conn, checks that no second one
// follows and returns it.
func expectOnlyFrame(t *testing.T, conn *countingConn) []byte {
	t.Helper()
	waitFrames(t, conn, 1)
	select {
	case <-conn.sent:
		t.Fatalf("%d frames delivered, want 1", len(recordedKinds(conn)))
	case <-time.After(50 * time.Millisecond):
	}
	if kind := recordedKinds(conn)[0]; kind != network.MsgAck {
		t.Fatalf("frame kind = %v, want MsgAck", kind)
	}
	frames, _ := conn.snapshot()
	return frames[0]
}

// TestOneCompletionFramePerAckFramePerSpout: one inbound ack frame that
// finishes N trees of a local spout answers that spout with one frame of
// N AckAck entries, and a second spout's trees in the same frame with one
// frame of its own. (The Stream Manager does not know component kinds:
// local task 2 stands in for the second spout.)
func TestOneCompletionFramePerAckFramePerSpout(t *testing.T) {
	oneWorker(t, func(t *testing.T) {
		const trees = 16
		s := newWorkerSM(t)
		conns := map[int32]*countingConn{0: installRecorder(t, s, 0), 2: installRecorder(t, s, 2)}
		var acks []tuple.AckTuple
		want := map[int32]map[uint64]bool{0: {}, 2: {}}
		for i := uint64(1); i <= trees; i++ {
			for _, spout := range []int32{0, 2} {
				root := core.MakeRoot(spout, i)
				key := i*7919 + uint64(spout)
				want[spout][root] = true
				acks = append(acks,
					tuple.AckTuple{Kind: tuple.AckAnchor, SpoutTask: spout, Root: root, Delta: key},
					tuple.AckTuple{Kind: tuple.AckAck, SpoutTask: spout, Root: root, Delta: key})
			}
		}
		ingestOwned(s, network.MsgAck, ackFrameOf(acks))

		for spout, conn := range conns {
			got := decodeAckFrame(t, expectOnlyFrame(t, conn))
			if len(got) != trees {
				t.Fatalf("spout %d: one frame of %d notifications, want %d", spout, len(got), trees)
			}
			for _, a := range got {
				if a.Kind != tuple.AckAck || a.SpoutTask != spout || !want[spout][a.Root] {
					t.Fatalf("spout %d: unexpected notification %+v", spout, a)
				}
				delete(want[spout], a.Root)
			}
		}
	})
}

// TestExpiredTreeReachesSpout: a tree that is anchored and never acked
// reaches its spout as exactly one AckExpired once acker.DefaultBuckets
// rotations have passed, and not before. No worker runs: the test's
// goroutine owns the acker and rotates it.
func TestExpiredTreeReachesSpout(t *testing.T) {
	oneWorker(t, func(t *testing.T) {
		s := newBenchSM(t)
		conn := installRecorder(t, s, 0)
		root := core.MakeRoot(0, 42)
		process(s, network.MsgAck, ackFrameOf([]tuple.AckTuple{
			{Kind: tuple.AckAnchor, SpoutTask: 0, Root: root, Delta: 0x5a5a}}))
		for i := 1; i < acker.DefaultBuckets; i++ {
			s.rotateAckers()
		}
		if got, _ := conn.snapshot(); len(got) != 0 {
			t.Fatalf("%d frames before the tree's last bucket rotated out", len(got))
		}
		s.rotateAckers()
		got := decodeAckFrame(t, expectOnlyFrame(t, conn))
		if len(got) != 1 || got[0].Kind != tuple.AckExpired || got[0].SpoutTask != 0 || got[0].Root != root {
			t.Fatalf("expiry notifications = %+v, want one AckExpired for root %x at task 0", got, root)
		}
		s.rotateAckers()
		select {
		case <-conn.sent:
			t.Fatal("the tree expired twice")
		case <-time.After(20 * time.Millisecond):
		}
	})
}

// TestWorkerRotatesAckers: with acking on, the worker rotates the acker
// itself. A tree anchored and never acked reaches its spout as exactly
// one AckExpired within a few message timeouts, and the test never
// rotates.
func TestWorkerRotatesAckers(t *testing.T) {
	s := newWorkerSM(t, func(cfg *core.Config) {
		cfg.AckingEnabled = true
		cfg.MessageTimeout = 40 * time.Millisecond
	})
	conn := installRecorder(t, s, 0)
	root := core.MakeRoot(0, 42)
	ingestOwned(s, network.MsgAck, ackFrameOf([]tuple.AckTuple{
		{Kind: tuple.AckAnchor, SpoutTask: 0, Root: root, Delta: 0x5a5a}}))
	got := decodeAckFrame(t, expectOnlyFrame(t, conn))
	if len(got) != 1 || got[0].Kind != tuple.AckExpired || got[0].SpoutTask != 0 || got[0].Root != root {
		t.Fatalf("expiry notifications = %+v, want one AckExpired for root %x at task 0", got, root)
	}
}

// TestExpiryBacklogSplitsIntoCappedFrames: a rotation that expires more
// of one spout's trees than one completion frame holds sends them in
// frames of at most maxAckEntries entries, and every root reaches the
// spout as exactly one AckExpired. No worker runs: the test's goroutine
// owns the acker and rotates it.
func TestExpiryBacklogSplitsIntoCappedFrames(t *testing.T) {
	oneWorker(t, func(t *testing.T) {
		const trees = 2*maxAckEntries + 5
		s := newBenchSM(t)
		conn := installRecorder(t, s, 0)
		anchors := make([]tuple.AckTuple, trees)
		for i := range anchors {
			anchors[i] = tuple.AckTuple{Kind: tuple.AckAnchor, SpoutTask: 0, Root: core.MakeRoot(0, uint64(i+1)), Delta: 1}
		}
		process(s, network.MsgAck, ackFrameOf(anchors))
		for i := 0; i < acker.DefaultBuckets; i++ {
			s.rotateAckers()
		}
		const frames = (trees + maxAckEntries - 1) / maxAckEntries
		waitFrames(t, conn, frames)
		got, _ := conn.snapshot()
		if len(got) != frames {
			t.Fatalf("%d expiry frames, want %d", len(got), frames)
		}
		seen := map[uint64]int{}
		for _, f := range got {
			acks := decodeAckFrame(t, f)
			if len(acks) > maxAckEntries {
				t.Fatalf("a frame of %d notifications, cap %d", len(acks), maxAckEntries)
			}
			for _, a := range acks {
				if a.Kind != tuple.AckExpired || a.SpoutTask != 0 {
					t.Fatalf("unexpected notification %+v", a)
				}
				seen[a.Root]++
			}
		}
		for i := range anchors {
			if n := seen[anchors[i].Root]; n != 1 {
				t.Fatalf("root %x expired %d times, want once", anchors[i].Root, n)
			}
		}
	})
}

// TestCompletionForUnregisteredSpoutDropped: a finished tree whose spout
// task has no local instance is dropped without a panic, and its frame
// goes back to the batcher's pool — dropping it again allocates nothing.
// No worker runs: the test's goroutine owns the completion batches.
func TestCompletionForUnregisteredSpoutDropped(t *testing.T) {
	oneWorker(t, func(t *testing.T) {
		s := newBenchSM(t)
		root := core.MakeRoot(0, 7) // task 0 is local in the plan, but never registers
		process(s, network.MsgAck, ackFrameOf([]tuple.AckTuple{
			{Kind: tuple.AckAnchor, SpoutTask: 0, Root: root, Delta: 9},
			{Kind: tuple.AckAck, SpoutTask: 0, Root: root, Delta: 9}}))
		drop := func() {
			s.onTreeDone(root, acker.Completed)
			s.done.flush()
		}
		if avg := testing.AllocsPerRun(256, drop); avg != 0 {
			t.Errorf("dropping a completion allocates %.3f, want 0: its frame is not recycled", avg)
		}
	})
}

// TestDrainAcksZeroAlloc: an ack frame whose acks all belong to one
// peer's spout leaves as one sealed frame on the peer's outbox, and
// routing it allocates nothing.
func TestDrainAcksZeroAlloc(t *testing.T) {
	s := newBenchSM(t)
	detachPeer(s)
	conn := &nullConn{}
	s.attachPeer(2, "null-peer", conn)
	frame := ackFrameOf(remoteAcks(1, 8))
	sent := conn.sends.Load()
	route := func() {
		s.routeAck(frame)
		sent++
		for conn.sends.Load() < sent {
			runtime.Gosched()
		}
	}
	for i := 0; i < 256; i++ {
		route()
	}
	if avg := testing.AllocsPerRun(512, route); avg != 0 {
		t.Errorf("routing a frame of acks for one peer allocates %.3f per frame, want 0", avg)
	}
}

// remoteAcks returns n acks for distinct trees of spout.
func remoteAcks(spout int32, n int) []tuple.AckTuple {
	acks := make([]tuple.AckTuple, n)
	for i := range acks {
		acks[i] = tuple.AckTuple{Kind: tuple.AckAck, SpoutTask: spout, Root: core.MakeRoot(spout, uint64(i+1)), Delta: uint64(i) + 5}
	}
	return acks
}

// stallPeer makes container's control outbox, the one remote acks take,
// an outbox without a sender: every frame enqueued on it stays in its
// queue, where queued reads it. It keeps the peer's connection, if any,
// for Stop to close through it.
func stallPeer(s *StreamManager, container int32) *outbox {
	s.mu.Lock()
	old := s.peers[container]
	o := &outbox{conn: &nullConn{}}
	if old != nil {
		o.conn = old.conn
	}
	o.cond = sync.NewCond(&o.mu)
	s.peers[container] = o
	s.publishRoutesLocked()
	s.mu.Unlock()
	if old != nil {
		old.close()
	}
	return o
}

// queued takes the frames waiting in a stalled outbox.
func queued(o *outbox) []frame {
	o.mu.Lock()
	defer o.mu.Unlock()
	q := o.queue
	o.queue = nil
	return q
}

// threeContainerPlan places spout task c-1 and bolt task c+2 on each
// container c of 1, 2 and 3.
func threeContainerPlan() (*core.Topology, *core.PackingPlan) {
	topo, packing := twoContainerPlan()
	for i := range topo.Components {
		topo.Components[i].Parallelism = 3
	}
	req := core.Resource{CPU: 1, RAMMB: 128, DiskMB: 128}
	packing.Containers = nil
	for c := int32(1); c <= 3; c++ {
		packing.Containers = append(packing.Containers, core.ContainerPlan{
			ID: c, Required: core.Resource{CPU: 4, RAMMB: 4096, DiskMB: 4096},
			Instances: []core.InstancePlacement{
				{ID: core.InstanceID{Component: "s", ComponentIndex: c - 1, TaskID: c - 1}, Resources: req},
				{ID: core.InstanceID{Component: "b", ComponentIndex: c - 1, TaskID: c + 2}, Resources: req},
			}})
	}
	return topo, packing
}

// TestRemoteAcksLeaveWithTheirFrame: the acks one inbound frame carries
// for spouts on two peer containers leave as exactly one frame per peer,
// every entry in it once, enqueued before the worker's frame function
// returns — no worker runs, so nothing else can have sent them.
func TestRemoteAcksLeaveWithTheirFrame(t *testing.T) {
	oneWorker(t, func(t *testing.T) {
		topo, packing := threeContainerPlan()
		s := newBenchSMPlan(t, topo, packing)
		peers := map[int32]*outbox{2: stallPeer(s, 2), 3: stallPeer(s, 3)}
		want := map[int32]map[tuple.AckTuple]bool{2: {}, 3: {}}
		var acks []tuple.AckTuple
		for i := 0; i < 8; i++ {
			for c := range want {
				a := tuple.AckTuple{Kind: tuple.AckAck, SpoutTask: c - 1, Root: core.MakeRoot(c-1, uint64(i+1)), Delta: uint64(i)}
				want[c][a] = true
				acks = append(acks, a)
			}
		}
		process(s, network.MsgAck, ackFrameOf(acks))

		for c, o := range peers {
			frames := queued(o)
			if len(frames) != 1 || frames[0].kind != network.MsgAck {
				t.Fatalf("peer %d: %d frames queued when the ack frame was routed, want 1 MsgAck", c, len(frames))
			}
			got := decodeAckFrame(t, frames[0].buf.B)
			wire.PutBuffer(frames[0].buf)
			for _, a := range got {
				if !want[c][a] {
					t.Fatalf("peer %d: unexpected or repeated ack %+v", c, a)
				}
				delete(want[c], a)
			}
			if len(want[c]) != 0 {
				t.Fatalf("peer %d: %d acks missing from its frame", c, len(want[c]))
			}
		}
	})
}

// TestDroppedAcksAreCounted: remote acks for a container with no peer
// outbox (a dial race) and entries DecodeAck rejects each raise
// stmgr.acks-dropped, and the dropped frame goes back to the batcher's
// pool: dropping again allocates nothing.
func TestDroppedAcksAreCounted(t *testing.T) {
	s := newBenchSM(t)
	detachPeer(s)
	acks := remoteAcks(1, 3) // spout 1 lives on container 2
	frame := tuple.AppendAckFrameHeader(nil, len(acks)+1)
	for i := range acks {
		frame = tuple.AppendFrameEntry(frame, tuple.EncodeAck(nil, &acks[i]))
	}
	frame = tuple.AppendFrameEntry(frame, make([]byte, tuple.AckSize-1))
	s.routeAck(frame)
	if got := s.mAcksDropped.Value(); got != 4 {
		t.Fatalf("stmgr.acks-dropped = %d, want 4 (3 unroutable, 1 corrupt)", got)
	}
	if avg := testing.AllocsPerRun(256, func() { s.routeAck(frame) }); avg != 0 {
		t.Errorf("dropping a frame of acks allocates %.3f, want 0: its frame is not recycled", avg)
	}
}

// seqFrame is a pre-batched two-tuple frame for dest whose payload is seq.
func seqFrame(dest int32, seq int) []byte {
	enc := tuple.FastCodec{}.EncodeData(nil, &tuple.DataTuple{
		DestTask: dest, Values: tuple.Values{strconv.Itoa(seq)},
	})
	frame := tuple.AppendFrameHeader(nil, dest, 2)
	return tuple.AppendFrameEntry(tuple.AppendFrameEntry(frame, enc), enc)
}

// frameSeq reads back seqFrame's sequence number.
func frameSeq(t *testing.T, frame []byte) int {
	t.Helper()
	seq := -1
	if _, _, err := tuple.WalkFrame(frame, func(tb []byte) error {
		var dt tuple.DataTuple
		if err := (tuple.FastCodec{}).DecodeData(tb, &dt); err != nil {
			return err
		}
		seq, _ = strconv.Atoi(dt.Values.String(0))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return seq
}

// newPlanlessSM builds a Stream Manager that has heard no plan yet, its
// worker started and local task 2 registered behind a recorder. Each tune
// edits the configuration first.
func newPlanlessSM(t *testing.T, tune ...func(*core.Config)) (*StreamManager, *countingConn) {
	t.Helper()
	cfg := core.NewConfig()
	cfg.StreamManagerOptimized = true
	for _, f := range tune {
		f(cfg)
	}
	s, err := newCore(Options{Topology: "t", Container: 1, Cfg: cfg, Registry: metrics.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Stop)
	s.startWorker()
	return s, installRecorder(t, s, 2)
}

// TestFramesBeforeFirstPlanWaitAndDeliverInOrder is the plan-before-data
// contract: frames from a peer that got its plan sooner are neither
// dropped nor reordered. They wait in the bounded inbox — more of them
// than the inbox holds block the sender — and once applyPlan has
// published the first plan every one is delivered, in order, the marker
// behind the data.
func TestFramesBeforeFirstPlanWaitAndDeliverInOrder(t *testing.T) {
	oneWorker(t, func(t *testing.T) {
		s, conn := newPlanlessSM(t)
		const frames = inboxFrames + 100
		sent := make(chan struct{})
		go func() {
			defer close(sent)
			for i := 0; i < frames; i++ {
				ingestOwned(s, network.MsgData, seqFrame(2, i))
			}
			ingestOwned(s, network.MsgMarker, tuple.AppendMarker(nil, 7, 0, 2))
		}()
		select {
		case <-sent:
			t.Fatalf("%d frames fit a %d-frame inbox: the sender was not held back", frames, inboxFrames)
		case <-time.After(50 * time.Millisecond):
		}
		if got, _ := conn.snapshot(); len(got) != 0 {
			t.Fatalf("%d frames delivered before any plan", len(got))
		}

		applyFirstPlan(s)
		<-sent
		waitFrames(t, conn, frames+2) // the plan for the instance, the data, the marker

		got, _ := conn.snapshot()
		kinds := recordedKinds(conn)
		next := 0
		for i, kind := range kinds {
			switch kind {
			case network.MsgData:
				if next == frames {
					t.Fatalf("more than %d data frames delivered", frames)
				}
				if seq := frameSeq(t, got[i]); seq != next {
					t.Fatalf("data frame %d arrived where %d was due", seq, next)
				}
				next++
			case network.MsgMarker:
				if next != frames {
					t.Fatalf("marker overtook data: only %d of %d frames ahead of it", next, frames)
				}
			}
		}
		if next != frames || kinds[len(kinds)-1] != network.MsgMarker {
			t.Fatalf("delivered %d of %d data frames, last kind %v", next, frames, kinds[len(kinds)-1])
		}
	})
}

// TestAcksBeforeFirstPlanComplete: acks take the inbox data takes, so an
// ack frame from a peer that got its plan sooner waits for the first plan
// instead of being dropped. Once applyPlan publishes it, the tree the
// frame anchored and acked completes, and its spout (local task 2 stands
// in for one) gets one completion frame.
func TestAcksBeforeFirstPlanComplete(t *testing.T) {
	s, conn := newPlanlessSM(t)
	root := core.MakeRoot(2, 1)
	ingestOwned(s, network.MsgAck, ackFrameOf([]tuple.AckTuple{
		{Kind: tuple.AckAnchor, SpoutTask: 2, Root: root, Delta: 0x77},
		{Kind: tuple.AckAck, SpoutTask: 2, Root: root, Delta: 0x77}}))
	applyFirstPlan(s)
	waitFrames(t, conn, 2) // the plan for the instance, the completion
	select {
	case <-conn.sent:
		t.Fatalf("%d frames delivered, want the plan and one completion", len(recordedKinds(conn)))
	case <-time.After(50 * time.Millisecond):
	}
	got, _ := conn.snapshot()
	var completions []tuple.AckTuple
	for i, kind := range recordedKinds(conn) {
		if kind == network.MsgAck {
			completions = append(completions, decodeAckFrame(t, got[i])...)
		}
	}
	if len(completions) != 1 || completions[0].Kind != tuple.AckAck || completions[0].SpoutTask != 2 || completions[0].Root != root {
		t.Fatalf("completions = %+v, want one AckAck for root %x at task 2", completions, root)
	}
}

// TestStopBeforeFirstPlan: Stop releases the worker still waiting for a
// plan and senders blocked on the full inbox; nothing is routed.
func TestStopBeforeFirstPlan(t *testing.T) {
	s, conn := newPlanlessSM(t)
	sent := make(chan struct{})
	go func() {
		defer close(sent)
		for i := 0; i < inboxFrames+1; i++ {
			ingestOwned(s, network.MsgData, seqFrame(2, i))
		}
	}()
	time.Sleep(10 * time.Millisecond) // let the inbox fill; the test holds either way
	stopped := make(chan struct{})
	go func() { s.Stop(); close(stopped) }()
	for _, ch := range []chan struct{}{stopped, sent} {
		select {
		case <-ch:
		case <-time.After(5 * time.Second):
			t.Fatal("Stop before the first plan hung the worker or a sender")
		}
	}
	if got, _ := conn.snapshot(); len(got) != 0 {
		t.Fatalf("%d frames routed without a plan", len(got))
	}
}

// applyFirstPlan hands a planless Stream Manager its first plan, as the
// TMaster's broadcast would.
func applyFirstPlan(s *StreamManager) {
	topo, packing := twoContainerPlan()
	s.applyPlan(&ctrl.PlanPayload{Epoch: 1, Topology: topo, Packing: packing,
		Stmgrs: map[int32]string{1: "self"}})
}

// waitTuples waits until the data frames conn has seen carry n tuples.
func waitTuples(t *testing.T, conn *countingConn, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		got := 0
		conn.mu.Lock()
		for i, kind := range conn.kinds {
			if kind == network.MsgData {
				_, count, _, _ := tuple.FrameHeader(conn.frames[i])
				got += count
			}
		}
		conn.mu.Unlock()
		if got == n {
			return
		}
		if got > n || time.Now().After(deadline) {
			t.Fatalf("%d tuples delivered, want %d", got, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCacheDrainCountFollowsPeriod: stmgr.cache-drain-count counts the
// worker's idle and period drains that sealed a batch, nothing else.
// inboxFrames single-tuple frames wait in the inbox for the first plan, so
// the worker takes them back to back, checking the clock every drainCheck
// (512) frames. At a 1 µs period both checks drain 512 tuples. At 1 h
// neither does, and the size trigger (CacheMaxBatchTuples, 1,024) seals
// the batch uncounted. Either way the idle drain finds nothing left, until
// one more frame leaves it one tuple.
func TestCacheDrainCountFollowsPeriod(t *testing.T) {
	for _, tc := range []struct {
		period       time.Duration
		backlog, all int64 // drains after the backlog, and after one more frame
	}{
		{time.Microsecond, 2, 3},
		{time.Hour, 0, 1},
	} {
		t.Run(tc.period.String(), func(t *testing.T) {
			s, conn := newPlanlessSM(t, func(cfg *core.Config) {
				cfg.CacheDrainFrequency = tc.period
				cfg.CacheMaxBatchTuples = inboxFrames
			})
			for i := 0; i < inboxFrames; i++ {
				ingestOwned(s, network.MsgData, benchFrame(2, 1))
			}
			applyFirstPlan(s)
			waitTuples(t, conn, inboxFrames)
			if got := s.mCacheDrains.Value(); got != tc.backlog {
				t.Errorf("after the backlog: %d drains, want %d", got, tc.backlog)
			}
			ingestOwned(s, network.MsgData, benchFrame(2, 1))
			waitTuples(t, conn, inboxFrames+1)
			if got := s.mCacheDrains.Value(); got != tc.all {
				t.Errorf("after one more frame: %d drains, want %d", got, tc.all)
			}
		})
	}
}

// TestRouteLatencySampled: the route-latency histogram observes one
// dispatched frame in routeSampleEvery.
func TestRouteLatencySampled(t *testing.T) {
	s := newWorkerSM(t)
	conn := installRecorder(t, s, 2)
	const n = 8 * routeSampleEvery
	for i := 0; i < n; i++ {
		ingestOwned(s, network.MsgData, benchFrame(2, 8))
	}
	waitFrames(t, conn, n)
	// The last frame is a sampled one, observed after its delivery.
	deadline := time.Now().Add(5 * time.Second)
	for s.mRouteLat.Snapshot().Count < n/routeSampleEvery && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := s.mRouteLat.Snapshot().Count; got != n/routeSampleEvery {
		t.Fatalf("route latency observed %d of %d frames, want %d", got, n, n/routeSampleEvery)
	}
}
