// Control-plane failover surface: the topology's TMaster is always one
// generation of a control-plane replica set (internal/replication) of
// Config.ControlReplicas replicas, one by default. Control operations
// issued while no generation is active — the failover window — fail with
// an error matching ErrNotLeader via errors.Is; RetryNotLeader wraps
// such calls with a bounded retry.

package heron

import (
	"errors"
	"fmt"
	"time"

	"heron/internal/core"
	"heron/internal/metrics"
	"heron/internal/replication"
	"heron/internal/tmaster"
)

// ErrNotLeader marks a control operation that hit a TMaster generation
// which lost (or has not yet won) leadership. Match with errors.Is; the
// operation is safe to retry once a new leader is up (see
// RetryNotLeader).
var ErrNotLeader = core.ErrNotLeader

// RetryNotLeader runs fn, retrying while it fails with ErrNotLeader,
// until timeout. Any other error (or success) returns immediately: only
// the leadership gap is worth waiting out.
func RetryNotLeader(timeout time.Duration, fn func() error) error {
	deadline := time.Now().Add(timeout)
	for {
		err := fn()
		if err == nil || !errors.Is(err, ErrNotLeader) {
			return err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("heron: still no leader after %v: %w", timeout, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// ControlStatus reports every live control replica's last known status,
// leader first.
func (h *Handle) ControlStatus() []replication.Status {
	return h.engine.ControlStatus()
}

// leaderTM returns the active TMaster, mapping its absence (a failover
// is in progress) to ErrNotLeader.
func (h *Handle) leaderTM() (*tmaster.TMaster, error) {
	if tm := h.engine.TMaster(); tm != nil {
		return tm, nil
	}
	return nil, fmt.Errorf("%w: control plane failing over", ErrNotLeader)
}

// waitLeaderTM waits out a failover window for an active TMaster.
func (h *Handle) waitLeaderTM(timeout time.Duration) (tm *tmaster.TMaster, err error) {
	err = RetryNotLeader(timeout, func() error {
		tm, err = h.leaderTM()
		return err
	})
	return tm, err
}

// appendControlMark appends a control-log record through the current
// leader, waiting out a failover window if one is in progress. Used for
// rescale phase markers, whose writer (the Handle) outlives any one
// TMaster generation.
func (h *Handle) appendControlMark(rec *replication.Record, wait time.Duration) error {
	return RetryNotLeader(wait, func() error {
		tm, err := h.leaderTM()
		if err != nil {
			return err
		}
		return tm.AppendControl(rec)
	})
}

// KillLeader hard-crashes the control-plane leader replica: the lease
// lapses by TTL, a standby fences the dead generation and takes over,
// and a replacement standby joins the pool — at ControlReplicas 1 that
// replacement is the successor. Returns false when no replica currently
// leads (mid-failover).
// This is the chaos harness's TMaster-kill primitive.
func (h *Handle) KillLeader() (bool, error) {
	return h.engine.CrashLeader(h.name)
}

// CommittedEpoch reports the newest globally committed checkpoint epoch
// through the current leader (0 while no leader is active) — what the
// failover harness polls to time kill → first post-failover commit.
func (h *Handle) CommittedEpoch() int64 {
	tm := h.engine.TMaster()
	if tm == nil {
		return 0
	}
	return tm.LatestCommittedEpoch()
}

// addControlMetrics folds the replication.* series into the merged
// metrics view, one gauge set per replica (component tag = node id).
func (h *Handle) addControlMetrics(v *metrics.TopologyView) {
	sts := h.engine.ControlStatus()
	if len(sts) == 0 {
		return
	}
	var s metrics.Snapshot
	for _, st := range sts {
		tags := metrics.Tags{Component: st.NodeID}
		var role int64
		if st.Role == replication.RoleLeader {
			role = 1
		}
		s.Gauges = append(s.Gauges,
			metrics.GaugePoint{ID: metrics.ID{Name: metrics.MReplicationRole, Tags: tags}, Value: role},
			metrics.GaugePoint{ID: metrics.ID{Name: metrics.MReplicationTerm, Tags: tags}, Value: st.Term},
		)
		if st.LastFailoverNs > 0 {
			s.Gauges = append(s.Gauges, metrics.GaugePoint{
				ID: metrics.ID{Name: metrics.MReplicationFailoverLatency, Tags: tags}, Value: st.LastFailoverNs,
			})
		}
	}
	v.Add(&s)
}

// healthActionLog adapts the control log for the health manager: every
// resolver action is logged before it runs.
func (h *Handle) healthActionLog() func(action, component, detail string) error {
	return func(action, component, detail string) error {
		tm, err := h.leaderTM()
		if err != nil {
			return err
		}
		return tm.AppendControl(&replication.Record{
			Kind: replication.KindHealth,
			Health: &replication.HealthRecord{
				Action: action, Component: component, Detail: detail,
			},
		})
	}
}
