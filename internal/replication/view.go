package replication

import "heron/internal/core"

// View is a standby's warm replica of the control-plane state machine:
// the deterministic fold of the control log. Tailing keeps it current;
// at promotion the winner replays the suffix and initializes its
// checkpoint coordinator and rescale bookkeeping from it.
type View struct {
	// AppliedSeq is the last record folded in.
	AppliedSeq int64
	// Term is the highest term observed in applied records.
	Term int64
	// Ledger mirrors the leader's checkpoint ledger: Next is the floor
	// for epoch ids a successor may hand out — an in-flight
	// prepared-but-uncommitted epoch below Next is re-driven or
	// abandoned, never reused.
	Ledger core.CheckpointLedger
	// LastCommit is the highest globally committed epoch. A successor
	// re-drives the backend commit if the log committed an epoch the
	// backend never heard finished, then re-broadcasts it.
	LastCommit int64
	// Rescale is an open rescale (begin without commit/rollback), nil
	// otherwise. A successor must abort it via the existing rollback
	// path before trusting the statemgr's topology records.
	Rescale *RescaleRecord
	// MaxSpoutPending is the window the last tune record set; it is
	// meaningful only when Tunes > 0. A successor re-sends it with every
	// plan broadcast, so a relaunched spout starts at the tuned window.
	MaxSpoutPending int64
	// Plans, HealthActions, Tunes count applied records (observability).
	Plans, HealthActions, Tunes int
}

// Apply folds one record into the view. Records must arrive in sequence
// order.
func (v *View) Apply(r *Record) {
	if r.Seq > v.AppliedSeq {
		v.AppliedSeq = r.Seq
	}
	if r.Term > v.Term {
		v.Term = r.Term
	}
	switch r.Kind {
	case KindLedger:
		if r.Ledger != nil {
			if r.Ledger.Next > v.Ledger.Next {
				v.Ledger.Next = r.Ledger.Next
			}
			v.Ledger.Pending = r.Ledger.Pending
		}
	case KindCommit:
		if r.Value > v.LastCommit {
			v.LastCommit = r.Value
		}
		if v.Ledger.Pending == r.Value {
			v.Ledger.Pending = 0
		}
	case KindPlan:
		v.Plans++
	case KindHealth:
		v.HealthActions++
	case KindTune:
		v.Tunes++
		v.MaxSpoutPending = r.Value
	case KindRescaleBegin:
		v.Rescale = r.Rescale
	case KindRescaleCommit, KindRescaleRollback:
		v.Rescale = nil
	}
}

// Clone returns an independent copy (the promotion path hands one to the
// new TMaster while the replica keeps tailing).
func (v *View) Clone() *View {
	out := *v
	if v.Rescale != nil {
		r := *v.Rescale
		out.Rescale = &r
	}
	return &out
}
