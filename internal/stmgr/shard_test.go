package stmgr

import (
	"fmt"
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

// shardCounts is the table every ordering test runs over: the shard count
// is a count, not a code path, so each contract must hold at all of them.
var shardCounts = []int{1, 2, 4}

// forEachShardCount runs test once per shard count against container 1's
// Stream Manager of twoContainerPlan (local tasks 0 and 2, peer container
// 2 hosting tasks 1 and 3). Each tune, if any, edits the configuration
// first.
func forEachShardCount(t *testing.T, test func(t *testing.T, s *StreamManager), tune ...func(*core.Config)) {
	for _, shards := range shardCounts {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			topo, packing := twoContainerPlan()
			test(t, newBenchSMShards(t, topo, packing, shards, tune...))
		})
	}
}

// ingestOwned feeds one frame through routeFrameOwned, the way a
// transport's StartOwned handler does.
func ingestOwned(s *StreamManager, kind network.MsgKind, frame []byte) {
	s.routeFrameOwned(kind, owned(frame))
}

// recordedKinds returns the frame kinds conn has seen, in order.
func recordedKinds(conn *countingConn) []network.MsgKind {
	conn.mu.Lock()
	defer conn.mu.Unlock()
	return append([]network.MsgKind(nil), conn.kinds...)
}

// TestShardMappingStableAcrossRescale pins the property checkpoint and
// repartition logic rely on: shardOf is a pure function of the task id and
// the shard count, so a rescale (new physical plan, new tasks) never moves
// an existing task to a different shard — and the shard count itself never
// changes at runtime.
func TestShardMappingStableAcrossRescale(t *testing.T) {
	s, _ := newParallelSM(t, 4)
	before := map[int32]int{}
	for task := int32(0); task < 16; task++ {
		before[task] = s.shardOf(task)
	}

	// Rescale: bolt parallelism 8 → 12, the four new instances (tasks
	// 16–19) land on container 1. Existing tasks keep their ids, exactly
	// as ScaleComponent repacking does.
	topo, packing := parallelPlan()
	topo.Components[1].Parallelism = 12
	req := core.Resource{CPU: 1, RAMMB: 128, DiskMB: 128}
	for i := 8; i < 12; i++ {
		packing.Containers[0].Instances = append(packing.Containers[0].Instances,
			core.InstancePlacement{
				ID: core.InstanceID{Component: "b", ComponentIndex: int32(i), TaskID: int32(8 + i)}, Resources: req})
	}
	pp, err := core.NewPhysicalPlan(topo, packing)
	if err != nil {
		t.Fatal(err)
	}
	conn := newCountingConn()
	s.mu.Lock()
	s.plan = pp
	s.instances[16] = newOutbox(conn, nil, s.onBytesSent)
	s.publishRoutesLocked()
	s.mu.Unlock()

	for task := int32(0); task < 16; task++ {
		if got := s.shardOf(task); got != before[task] {
			t.Fatalf("task %d moved from shard %d to %d across rescale", task, before[task], got)
		}
	}
	if s.nShards != 4 {
		t.Fatalf("shard count changed to %d", s.nShards)
	}
	// New task ids route end to end through their shard.
	ingestOwned(s, network.MsgData, benchFrame(16, 4))
	waitFrames(t, conn, 1)
	frames, _ := conn.snapshot()
	if dest, count, _, err := tuple.FrameHeader(frames[0]); err != nil || dest != 16 || count != 4 {
		t.Fatalf("post-rescale frame = dest %d count %d err %v", dest, count, err)
	}
}

// TestAckPath: ack traffic is shard-addressed by spout task — an anchor
// then a final ack for a tracked tree must complete it and notify the
// spout's instance, whatever shard count is configured.
func TestAckPath(t *testing.T) {
	forEachShardCount(t, func(t *testing.T, s *StreamManager) {
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
// frame comes back to the shard's pool.
func TestTreeDoneZeroAlloc(t *testing.T) {
	s := newBenchSM(t)
	conn := s.instances[2].conn.(*nullConn)
	sh := s.shards[s.shardOf(2)]
	const trees = 64
	sent := conn.sends.Load()
	batch := func() {
		for i := uint64(1); i <= trees; i++ {
			sh.onTreeDone(core.MakeRoot(2, i), acker.Completed)
		}
		sh.flushDone()
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
	const trees = 16
	forEachShardCount(t, func(t *testing.T, s *StreamManager) {
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
// rotations have passed, and not before.
func TestExpiredTreeReachesSpout(t *testing.T) {
	forEachShardCount(t, func(t *testing.T, s *StreamManager) {
		conn := installRecorder(t, s, 0)
		root := core.MakeRoot(0, 42)
		ingestOwned(s, network.MsgAck, ackFrameOf([]tuple.AckTuple{
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

// TestExpiryBacklogSplitsIntoCappedFrames: a rotation that expires more
// of one spout's trees than one completion frame holds sends them in
// frames of at most maxAckEntries entries, and every root reaches the
// spout as exactly one AckExpired.
func TestExpiryBacklogSplitsIntoCappedFrames(t *testing.T) {
	const trees = 2*maxAckEntries + 5
	forEachShardCount(t, func(t *testing.T, s *StreamManager) {
		conn := installRecorder(t, s, 0)
		anchors := make([]tuple.AckTuple, trees)
		for i := range anchors {
			anchors[i] = tuple.AckTuple{Kind: tuple.AckAnchor, SpoutTask: 0, Root: core.MakeRoot(0, uint64(i+1)), Delta: 1}
		}
		ingestOwned(s, network.MsgAck, ackFrameOf(anchors))
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
// goes back to the shard's pool — dropping it again allocates nothing.
func TestCompletionForUnregisteredSpoutDropped(t *testing.T) {
	forEachShardCount(t, func(t *testing.T, s *StreamManager) {
		root := core.MakeRoot(0, 7) // task 0 is local in the plan, but never registers
		ingestOwned(s, network.MsgAck, ackFrameOf([]tuple.AckTuple{
			{Kind: tuple.AckAnchor, SpoutTask: 0, Root: root, Delta: 9},
			{Kind: tuple.AckAck, SpoutTask: 0, Root: root, Delta: 9}}))
		sh := s.shards[s.shardOf(0)]
		drop := func() {
			sh.onTreeDone(root, acker.Completed)
			sh.flushDone()
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
// queue, where queued reads it.
func stallPeer(s *StreamManager, container int32) *outbox {
	o := &outbox{}
	o.cond = sync.NewCond(&o.mu)
	s.mu.Lock()
	old := s.peers[container]
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
// every entry in it once, enqueued before routeAck returns — with the
// drain period at an hour, no timer can have sent them.
func TestRemoteAcksLeaveWithTheirFrame(t *testing.T) {
	forEachShardCount(t, func(t *testing.T, s *StreamManager) {
		pp, err := core.NewPhysicalPlan(threeContainerPlan())
		if err != nil {
			t.Fatal(err)
		}
		s.mu.Lock()
		s.plan = pp
		s.publishRoutesLocked()
		s.mu.Unlock()
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
		ingestOwned(s, network.MsgAck, ackFrameOf(acks))

		for c, o := range peers {
			frames := queued(o)
			if len(frames) != 1 || frames[0].kind != network.MsgAck {
				t.Fatalf("peer %d: %d frames queued when routeAck returned, want 1 MsgAck", c, len(frames))
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
	}, func(cfg *core.Config) { cfg.CacheDrainFrequency = time.Hour })
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

// newPlanlessSM builds a Stream Manager that has heard no plan yet, with
// local task 2 registered behind a recorder.
func newPlanlessSM(t *testing.T, shards int) (*StreamManager, *countingConn) {
	t.Helper()
	cfg := core.NewConfig()
	cfg.StreamManagerOptimized = true
	cfg.StmgrShards = shards
	s, err := newCore(Options{Topology: "t", Container: 1, Cfg: cfg, Registry: metrics.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Stop)
	return s, installRecorder(t, s, 2)
}

// TestFramesBeforeFirstPlanWaitAndDeliverInOrder is the plan-before-data
// contract: frames from a peer that got its plan sooner are neither
// dropped nor reordered. They wait in the bounded shard ring — more of
// them than the ring holds block the sender — and once applyPlan has
// published the first plan every one is delivered, in order, the marker
// behind the data.
func TestFramesBeforeFirstPlanWaitAndDeliverInOrder(t *testing.T) {
	for _, shards := range shardCounts {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			s, conn := newPlanlessSM(t, shards)
			const frames = shardRingFrames + 100
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
				t.Fatalf("%d frames fit a %d-frame ring: the sender was not held back", frames, shardRingFrames)
			case <-time.After(50 * time.Millisecond):
			}
			if got, _ := conn.snapshot(); len(got) != 0 {
				t.Fatalf("%d frames delivered before any plan", len(got))
			}

			topo, packing := twoContainerPlan()
			s.applyPlan(&ctrl.PlanPayload{Epoch: 1, Topology: topo, Packing: packing,
				Stmgrs: map[int32]string{1: "self"}})
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
}

// TestStopBeforeFirstPlan: Stop releases workers still waiting for a plan
// and senders blocked on their full rings; nothing is routed.
func TestStopBeforeFirstPlan(t *testing.T) {
	s, conn := newPlanlessSM(t, 2)
	sent := make(chan struct{})
	go func() {
		defer close(sent)
		for i := 0; i < shardRingFrames+1; i++ {
			ingestOwned(s, network.MsgData, seqFrame(2, i))
		}
	}()
	time.Sleep(10 * time.Millisecond) // let the ring fill; the test holds either way
	stopped := make(chan struct{})
	go func() { s.Stop(); close(stopped) }()
	for _, ch := range []chan struct{}{stopped, sent} {
		select {
		case <-ch:
		case <-time.After(5 * time.Second):
			t.Fatal("Stop before the first plan hung a worker or a sender")
		}
	}
	if got, _ := conn.snapshot(); len(got) != 0 {
		t.Fatalf("%d frames routed without a plan", len(got))
	}
}
