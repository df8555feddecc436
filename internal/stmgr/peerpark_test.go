package stmgr

import (
	"testing"
	"time"

	"heron/internal/network"
	"heron/internal/tuple"
)

// detachPeer removes container 2's outboxes from a bench Stream Manager,
// recreating the rescale-relaunch window: the plan still places tasks on
// the container, but no peer connection exists yet.
func detachPeer(s *StreamManager) {
	s.mu.Lock()
	old := []*outbox{s.peers[2], s.peerData[2]}
	delete(s.peers, 2)
	delete(s.peerData, 2)
	delete(s.peerAddrs, 2)
	s.publishRoutesLocked()
	s.mu.Unlock()
	for _, o := range old {
		o.close()
	}
}

// waitParked waits until want frames are parked for container 2.
func waitParked(t *testing.T, s *StreamManager, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		parked := len(s.peerPending[2])
		s.mu.Unlock()
		if parked == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("parked %d frames for container 2, want %d", parked, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDataForUnconnectedPeerParksAndReplays is the loss bug behind rescale
// convergence: a data frame routed to a container that is in the plan but
// not yet dialed must be parked — not dropped — and replayed once the
// connection lands, into the peer's data outbox, in order per destination
// and ahead of any traffic routed after the attach.
func TestDataForUnconnectedPeerParksAndReplays(t *testing.T) {
	oneWorker(t, func(t *testing.T) {
		s := newWorkerSM(t)
		detachPeer(s)

		// Frames for tasks 1 and 3 (container 2), distinguishable by count,
		// through both remote slow paths: pre-batched frames park straight
		// from processData, the single-tuple frame goes via the tuple cache
		// and flushBatch (wait for the idle drain to park it, so the
		// frames behind it cannot pass it in the cache).
		ingestOwned(s, network.MsgData, benchFrame(1, 2))
		ingestOwned(s, network.MsgData, benchFrame(3, 5))
		ingestOwned(s, network.MsgData, benchFrame(3, 1))
		waitParked(t, s, 3)
		ingestOwned(s, network.MsgData, benchFrame(1, 4))
		ingestOwned(s, network.MsgData, benchFrame(3, 6))
		waitParked(t, s, 5)

		conn := newCountingConn()
		s.attachPeer(2, "bench-peer", conn)
		// Traffic routed after the attach must land behind the replay.
		ingestOwned(s, network.MsgData, benchFrame(3, 7))
		waitFrames(t, conn, 6)

		frames, _ := conn.snapshot()
		perDest := map[int32][]int{}
		for _, f := range frames {
			dest, count, _, err := tuple.FrameHeader(f)
			if err != nil {
				t.Fatal(err)
			}
			perDest[dest] = append(perDest[dest], count)
		}
		if got := perDest[1]; len(got) != 2 || got[0] != 2 || got[1] != 4 {
			t.Fatalf("task 1 frames = %v, want [2 4] in order", got)
		}
		if got := perDest[3]; len(got) != 4 || got[0] != 5 || got[1] != 1 || got[2] != 6 || got[3] != 7 {
			t.Fatalf("task 3 frames = %v, want [5 1 6 7] in order", got)
		}
		waitParked(t, s, 0)
	})
}

// TestPeerPendingCapBoundsMemory: the parked queue shares the local
// pending cap; frames past it are dropped (and their buffers recycled)
// rather than growing without bound if the dial never lands.
func TestPeerPendingCapBoundsMemory(t *testing.T) {
	s := newBenchSM(t)
	detachPeer(s)

	frame := benchFrame(3, 2)
	for i := 0; i < pendingFrameCap+16; i++ {
		process(s, network.MsgData, frame)
	}

	s.mu.Lock()
	parked := len(s.peerPending[2])
	s.mu.Unlock()
	if parked != pendingFrameCap {
		t.Fatalf("parked %d frames, want cap %d", parked, pendingFrameCap)
	}
}
