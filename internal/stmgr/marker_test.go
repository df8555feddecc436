package stmgr

import (
	"testing"

	"heron/internal/network"
	"heron/internal/tuple"
)

// installRecorder registers a counting conn as local task's instance,
// closing the outbox it replaces, so a test can observe the exact frame
// order the instance would receive. Returns the conn; the outbox is
// closed on test cleanup.
func installRecorder(t *testing.T, s *StreamManager, task int32) *countingConn {
	t.Helper()
	conn := newCountingConn()
	o := newOutbox(conn, nil, s.onBytesSent)
	s.mu.Lock()
	if old := s.instances[task]; old != nil {
		old.close()
	}
	s.instances[task] = o
	s.publishRoutesLocked()
	s.mu.Unlock()
	t.Cleanup(o.close)
	return conn
}

// installPeerRecorder replaces container 2's connection with a counting
// conn, through the same attachPeer a dial uses.
func installPeerRecorder(s *StreamManager) *countingConn {
	detachPeer(s)
	conn := newCountingConn()
	s.attachPeer(2, "recorder", conn)
	return conn
}

// assertDataThenControl waits for two frames on conn and checks they are
// one single-tuple data frame for dest followed by a marker-encoded frame
// of the given kind (id, src, dest).
func assertDataThenControl(t *testing.T, conn *countingConn, kind network.MsgKind, id int64, src, dest int32) {
	t.Helper()
	waitFrames(t, conn, 2)
	if kinds := recordedKinds(conn); len(kinds) != 2 || kinds[0] != network.MsgData || kinds[1] != kind {
		t.Fatalf("frame order = %v, want [MsgData %v]", kinds, kind)
	}
	frames, _ := conn.snapshot()
	if d, count, _, err := tuple.FrameHeader(frames[0]); err != nil || d != dest || count != 1 {
		t.Fatalf("flushed frame header = dest %d count %d err %v", d, count, err)
	}
	if gotID, gotSrc, gotDest, err := tuple.DecodeMarker(frames[1]); err != nil || gotID != id || gotSrc != src || gotDest != dest {
		t.Fatalf("%v frame = (%d,%d,%d) err %v, want (%d,%d,%d)", kind, gotID, gotSrc, gotDest, err, id, src, dest)
	}
}

// TestMarkerNeverOvertakesCachedData is the barrier-alignment contract: a
// tuple parked in the batching cache for a destination must be flushed
// and delivered BEFORE a checkpoint marker for the same destination —
// both ride the inbox in arrival order — or the snapshot would miss
// pre-barrier tuples.
func TestMarkerNeverOvertakesCachedData(t *testing.T) {
	oneWorker(t, func(t *testing.T) {
		s := newWorkerSM(t)
		conn := installRecorder(t, s, 2)
		// The single-tuple frame enters the tuple cache; the marker chases
		// it through the same inbox.
		ingestOwned(s, network.MsgData, benchFrame(2, 1))
		ingestOwned(s, network.MsgMarker, tuple.AppendMarker(nil, 7, 0, 2))
		assertDataThenControl(t, conn, network.MsgMarker, 7, 0, 2)
	})
}

// TestMarkerForwardedToPeerAfterFlush is the same contract on the
// stmgr→stmgr hop: data batched for a remote task flushes to the peer
// outbox before the marker frame.
func TestMarkerForwardedToPeerAfterFlush(t *testing.T) {
	oneWorker(t, func(t *testing.T) {
		s := newWorkerSM(t)
		conn := installPeerRecorder(s) // container 2 hosts task 3
		ingestOwned(s, network.MsgData, benchFrame(3, 1))
		ingestOwned(s, network.MsgMarker, tuple.AppendMarker(nil, 4, 2, 3))
		assertDataThenControl(t, conn, network.MsgMarker, 4, 2, 3)
	})
}

// TestMarkerForUnregisteredInstanceDropped: dropping is the safe outcome
// (the barrier stays incomplete and the checkpoint is abandoned); the
// router must not park markers like data frames nor panic.
func TestMarkerForUnregisteredInstanceDropped(t *testing.T) {
	s := newBenchSM(t)
	s.mu.Lock()
	s.instances[2].close()
	delete(s.instances, 2)
	s.publishRoutesLocked()
	s.mu.Unlock()
	process(s, network.MsgMarker, tuple.AppendMarker(nil, 1, 0, 2))
	s.mu.Lock()
	parked := len(s.pending[2])
	s.mu.Unlock()
	if parked != 0 {
		t.Fatalf("marker parked in pending queue (%d frames)", parked)
	}
}

// TestTriggerCheckpointTargetsLocalSpouts: a TMaster trigger becomes a
// marker on every LOCAL spout's outbox (src −1 = stmgr-injected) and
// nothing else.
func TestTriggerCheckpointTargetsLocalSpouts(t *testing.T) {
	s := newBenchSM(t)
	spoutConn := installRecorder(t, s, 0) // task 0: local spout
	boltConn := installRecorder(t, s, 2)  // task 2: local bolt

	s.triggerCheckpoint(9)
	waitFrames(t, spoutConn, 1)

	frames, _ := spoutConn.snapshot()
	if id, src, dest, err := tuple.DecodeMarker(frames[0]); err != nil || id != 9 || src != -1 || dest != 0 {
		t.Fatalf("spout trigger marker = (%d,%d,%d) err %v", id, src, dest, err)
	}
	if frames, _ := boltConn.snapshot(); len(frames) != 0 {
		t.Fatalf("bolt received %d trigger frames, want 0", len(frames))
	}
}
