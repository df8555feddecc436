package stmgr

import (
	"testing"

	"heron/internal/network"
)

// TestCommittedNeverOvertakesCachedData is the ordering contract of the
// global-commit notification: a tuple parked in the batching cache for a
// destination must deliver BEFORE the MsgCommitted frame for the same
// destination, or a transactional sink could commit an epoch without
// having staged all of that epoch's tuples. The notification rides the
// inbox behind the cached data, and processCommitted flushes the cache
// before handing the frame to the instance outbox.
func TestCommittedNeverOvertakesCachedData(t *testing.T) {
	oneWorker(t, func(t *testing.T) {
		s := newWorkerSM(t)
		conn := installRecorder(t, s, 2)
		ingestOwned(s, network.MsgData, benchFrame(2, 1))
		s.notifyCommitted(9)
		assertDataThenControl(t, conn, network.MsgCommitted, 9, -1, 2)
	})
}
