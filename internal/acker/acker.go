// Package acker implements Heron's at-least-once delivery tracking: the
// XOR tuple-tree algorithm over a rotating-bucket map, as introduced by
// Storm and retained by Heron's Stream Manager.
//
// Every spout tuple starts a tree identified by a random 64-bit root id.
// The tree's entry holds the XOR of (a) every tuple key created in the
// tree and (b) every tuple key acknowledged in it. Each ack carries
// delta = ackedKey ⊕ (keys of tuples emitted while processing it), so the
// entry reaches zero exactly when every tuple in the tree has been both
// created and acked — regardless of arrival order. Timeouts are tracked
// by bucket rotation: entries live in the newest bucket and expire when
// their bucket falls off the end.
//
// An Acker is owned by one goroutine (the Stream Manager's worker, or an
// acker executor in the Storm baseline): every Anchor, Ack, Fail, Rotate
// and Pending call comes from it, and onDone runs on it.
package acker

// Result describes a completed tuple tree.
type Result uint8

// Tree outcomes reported to the completion callback.
const (
	// Completed: every tuple in the tree was acked.
	Completed Result = iota + 1
	// Failed: a bolt explicitly failed a tuple of the tree.
	Failed
	// TimedOut: the tree did not complete within the rotation window.
	TimedOut
)

// String implements fmt.Stringer.
func (r Result) String() string {
	switch r {
	case Completed:
		return "completed"
	case Failed:
		return "failed"
	case TimedOut:
		return "timedout"
	default:
		return "unknown"
	}
}

// Acker tracks the tuple trees rooted at one set of spout tasks (in Heron,
// the acker state lives in the Stream Manager of the container hosting
// the spout). It takes no lock.
type Acker struct {
	buckets []map[uint64]uint64 // buckets[0] is newest
	// onDone is called with each finished tree's outcome.
	onDone func(root uint64, r Result)
}

// DefaultBuckets is the rotation granularity: a tree times out after
// between (buckets-1) and buckets rotations.
const DefaultBuckets = 3

// New creates an Acker with n rotation buckets (minimum 2) that reports
// every finished tree to onDone.
func New(n int, onDone func(root uint64, r Result)) *Acker {
	if n < 2 {
		n = 2
	}
	a := &Acker{buckets: make([]map[uint64]uint64, n), onDone: onDone}
	for i := range a.buckets {
		a.buckets[i] = map[uint64]uint64{}
	}
	return a
}

// find locates root's bucket index, or -1.
func (a *Acker) find(root uint64) int {
	for i, b := range a.buckets {
		if _, ok := b[root]; ok {
			return i
		}
	}
	return -1
}

// Anchor registers tuple keys created in root's tree: the spout's initial
// emission or a bolt's children. The entry is refreshed into the newest
// bucket (progress resets the timeout clock, as in Heron).
func (a *Acker) Anchor(root uint64, delta uint64) {
	a.xor(root, delta)
}

// Ack processes an acknowledgement delta for root's tree. When the entry
// reaches zero the tree is complete.
func (a *Acker) Ack(root uint64, delta uint64) {
	a.xor(root, delta)
}

func (a *Acker) xor(root uint64, delta uint64) {
	cur := delta
	if i := a.find(root); i >= 0 {
		cur ^= a.buckets[i][root]
		delete(a.buckets[i], root)
	}
	if cur != 0 {
		a.buckets[0][root] = cur
	} else if a.onDone != nil {
		a.onDone(root, Completed)
	}
}

// Fail terminates root's tree immediately with a Failed outcome. Unknown
// roots are ignored (the tree may have completed or timed out already).
func (a *Acker) Fail(root uint64) {
	i := a.find(root)
	if i < 0 {
		return
	}
	delete(a.buckets[i], root)
	if a.onDone != nil {
		a.onDone(root, Failed)
	}
}

// Rotate expires the oldest bucket: every tree still in it times out.
// Callers rotate once every messageTimeout / (buckets - 1).
func (a *Acker) Rotate() {
	oldest := a.buckets[len(a.buckets)-1]
	copy(a.buckets[1:], a.buckets[:len(a.buckets)-1])
	a.buckets[0] = map[uint64]uint64{}
	if a.onDone != nil {
		for root := range oldest {
			a.onDone(root, TimedOut)
		}
	}
}

// Pending returns the number of in-flight trees (test/metrics helper).
func (a *Acker) Pending() int {
	n := 0
	for _, b := range a.buckets {
		n += len(b)
	}
	return n
}
