package stmgr

import (
	"fmt"
	"runtime"
	"strconv"
	"testing"
	"time"

	"heron/internal/acker"
	"heron/internal/core"
	"heron/internal/ctrl"
	"heron/internal/metrics"
	"heron/internal/network"
	"heron/internal/tuple"
)

// shardCounts is the table every ordering test runs over: the shard count
// is a count, not a code path, so each contract must hold at all of them.
var shardCounts = []int{1, 2, 4}

// forEachShardCount runs test once per shard count against container 1's
// Stream Manager of twoContainerPlan (local tasks 0 and 2, peer container
// 2 hosting tasks 1 and 3).
func forEachShardCount(t *testing.T, test func(t *testing.T, s *StreamManager)) {
	for _, shards := range shardCounts {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			topo, packing := twoContainerPlan()
			test(t, newBenchSMShards(t, topo, packing, shards))
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

// TestTreeDoneZeroAlloc: notifying a spout of a finished tree costs
// nothing beyond the pooled frame the notification rides in — the ack is
// encoded on the stack, not appended from nil.
func TestTreeDoneZeroAlloc(t *testing.T) {
	s := newBenchSM(t)
	conn := s.instances[2].conn.(*nullConn)
	sh := s.shards[s.shardOf(2)]
	const root = 99
	sent := conn.sends.Load()
	done := func() {
		sh.rootMu.Lock()
		sh.rootSpout[root] = 2
		sh.rootMu.Unlock()
		sh.onTreeDone(root, acker.Completed)
		sent++
		for conn.sends.Load() < sent {
			runtime.Gosched()
		}
	}
	for i := 0; i < 256; i++ {
		done()
	}
	if avg := testing.AllocsPerRun(512, done); avg != 0 {
		t.Errorf("onTreeDone allocates %.3f per completed tree, want 0", avg)
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
