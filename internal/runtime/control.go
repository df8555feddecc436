// The control plane is a replica set of Config.ControlReplicas (0 counts
// as 1): container 0 launches a leader *candidate*, and the engine keeps
// ControlReplicas-1 hot standbys alive for the topology's lifetime. Every
// replica tails the control log; whichever wins the lease election
// promotes a real TMaster from its warm view, at a fencing term that also
// identifies its advertised location. Killing the leader (cleanly or by
// simulated crash) hands leadership to a standby, or, with no standby, to
// the candidate container 0 relaunches.

package runtime

import (
	"strconv"
	"sync/atomic"
	"time"

	"heron/internal/replication"
	"heron/internal/statemgr"
	"heron/internal/tmaster"
)

// controlReplica pairs a replica with the session it elects through, so
// a clean stop can release the session.
type controlReplica struct {
	rep   *replication.Replica
	state *statemgr.Manager
}

var nodeSeq atomic.Int64

// launchControl is container 0's launch path: a candidate that campaigns
// immediately plus an engine-lifetime standby pool (created once) that
// yields the first election to the candidate. It returns once the
// candidate's first campaign is decided, so a candidate that wins has
// already installed its TMaster.
func (e *Engine) launchControl(topology string) (func(), error) {
	cand, err := e.newControlReplica(topology, 0)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	needPool := !e.poolStarted
	e.poolStarted = true
	n := e.cfg.ControlReplicas - 1
	e.mu.Unlock()
	if needPool {
		for i := 0; i < n; i++ {
			// Standbys defer their first campaign by one lease TTL so the
			// container-0 candidate wins the initial election.
			if _, err := e.newControlReplica(topology, e.cfg.ResolveControlLeaseTTL()); err != nil {
				e.StopControl()
				cand.rep.Stop()
				_ = cand.state.Close()
				return nil, err
			}
		}
	}
	<-cand.rep.Settled()
	return func() {
		// Only this candidate dies with the container; the standby pool
		// outlives container restarts (that is the whole point).
		cand.rep.Stop()
		_ = cand.state.Close()
		e.dropReplica(cand)
	}, nil
}

// newControlReplica opens a fresh statemgr session and starts one
// replica on it.
func (e *Engine) newControlReplica(topology string, deferFirst time.Duration) (*controlReplica, error) {
	state, err := statemgr.Open(e.cfg)
	if err != nil {
		return nil, err
	}
	nodeID := "replica-" + strconv.FormatInt(nodeSeq.Add(1), 10)
	rep, err := replication.NewReplica(replication.Options{
		Topology: topology,
		NodeID:   nodeID,
		Store:    state,
		TTL:      e.cfg.ResolveControlLeaseTTL(),
		Promote:  e.promoteTMaster(topology),
		Abandon:  state.Abandon,
		Defer:    deferFirst,
	})
	if err != nil {
		_ = state.Close()
		return nil, err
	}
	cr := &controlReplica{rep: rep, state: state}
	e.mu.Lock()
	e.ctrlReplicas = append(e.ctrlReplicas, cr)
	e.mu.Unlock()
	return cr, nil
}

// activeTM adapts a TMaster to replication.Active and keeps the
// engine's leader pointer honest across teardowns.
type activeTM struct {
	tm *tmaster.TMaster
	e  *Engine
}

func (a activeTM) Stop() {
	a.tm.Stop()
	a.e.clearTM(a.tm)
}

func (a activeTM) Crash() {
	a.tm.Crash()
	a.e.clearTM(a.tm)
}

func (e *Engine) clearTM(tm *tmaster.TMaster) {
	e.mu.Lock()
	if e.tm == tm {
		e.tm = nil
	}
	e.mu.Unlock()
}

// promoteTMaster returns the replica's Promote callback: build a real
// TMaster at the won term, appending through a log handle fenced on the
// TMaster's own session.
func (e *Engine) promoteTMaster(topology string) func(int64, *replication.View, func()) (replication.Active, error) {
	return func(term int64, view *replication.View, depose func()) (replication.Active, error) {
		state, err := statemgr.Open(e.cfg)
		if err != nil {
			return nil, err
		}
		lg := replication.NewLog(state, topology)
		// Idempotent at our own term; fails only if a higher term won.
		if err := lg.Fence(term); err != nil {
			_ = state.Close()
			return nil, err
		}
		tm, err := tmaster.New(tmaster.Options{
			Topology: topology,
			Cfg:      e.cfg,
			State:    state,
			Lead: &tmaster.Leadership{
				Term:      term,
				Log:       lg,
				Recovered: view,
				OnDeposed: depose,
			},
		})
		if err != nil {
			_ = state.Close()
			return nil, err
		}
		e.mu.Lock()
		e.tm = tm
		e.mu.Unlock()
		return activeTM{tm: tm, e: e}, nil
	}
}

// ControlStatus snapshots every LIVE replica's current status (leader
// first when present) — the /health leadership block and the
// replication.* metrics both read it. Dead replicas (crashed leaders,
// stopped candidates) drop out of the listing with their process.
func (e *Engine) ControlStatus() []replication.Status {
	e.mu.Lock()
	reps := append([]*controlReplica(nil), e.ctrlReplicas...)
	e.mu.Unlock()
	out := make([]replication.Status, 0, len(reps))
	for _, cr := range reps {
		st := cr.rep.Status()
		if st.Role == replication.RoleLeader {
			out = append([]replication.Status{st}, out...)
			continue
		}
		out = append(out, st)
	}
	return out
}

// CrashLeader hard-kills the current leader replica (lease lapses by
// TTL, session abandoned) and spins up a replacement standby so the
// pool keeps its size — the chaos harness's KillLeader. False when no
// replica currently leads.
func (e *Engine) CrashLeader(topology string) (bool, error) {
	e.mu.Lock()
	var victim *controlReplica
	for _, cr := range e.ctrlReplicas {
		if cr.rep.IsLeader() {
			victim = cr
			break
		}
	}
	e.mu.Unlock()
	if victim == nil {
		return false, nil
	}
	victim.rep.Crash()
	e.dropReplica(victim)
	if _, err := e.newControlReplica(topology, e.cfg.ResolveControlLeaseTTL()); err != nil {
		return true, err
	}
	return true, nil
}

func (e *Engine) dropReplica(cr *controlReplica) {
	e.mu.Lock()
	for i, o := range e.ctrlReplicas {
		if o == cr {
			e.ctrlReplicas = append(e.ctrlReplicas[:i], e.ctrlReplicas[i+1:]...)
			break
		}
	}
	e.mu.Unlock()
}

// StopControl stops every replica (topology kill): the leader's TMaster
// stops, leases release, sessions close.
func (e *Engine) StopControl() {
	e.mu.Lock()
	reps := append([]*controlReplica(nil), e.ctrlReplicas...)
	e.ctrlReplicas = nil
	e.poolStarted = false
	e.mu.Unlock()
	for _, cr := range reps {
		cr.rep.Stop()
		_ = cr.state.Close()
	}
}
