package replication

import (
	"fmt"
	"sync"
	"time"

	"heron/internal/core"
)

// Roles a replica reports.
const (
	RoleStandby = "standby"
	RoleLeader  = "leader"
)

// Status is a replica's externally visible state (served on /health and
// merged into the metrics view).
type Status struct {
	NodeID         string `json:"nodeId"`
	Role           string `json:"role"`
	Term           int64  `json:"term"`
	AppliedSeq     int64  `json:"appliedSeq"`
	Failovers      int64  `json:"failovers"`
	LastFailoverNs int64  `json:"lastFailoverNs,omitempty"`
}

// Active is the handle a Promote callback returns for the TMaster it
// started; Stop tears it down cleanly. If it also implements
// Crash(), a chaos-kill uses that instead (no session cleanup).
type Active interface {
	Stop()
}

// Options configure one Replica.
type Options struct {
	Topology string
	NodeID   string
	// Store provides CAS, leases, and watches; the replica's session.
	Store core.VersionedStore
	// TTL is the leader lease's time-to-live.
	TTL time.Duration
	// Promote starts an active TMaster at term from the recovered view.
	// depose is the TMaster's way to signal it lost fencing (a log append
	// returned ErrNotLeader) — the replica then tears it down and rejoins
	// as a standby. Promote runs on the replica's goroutine.
	Promote func(term int64, view *View, depose func()) (Active, error)
	// Abandon, if set, is invoked on Crash instead of any cleanup: it
	// must abandon the statemgr session so ephemerals linger and the
	// lease lapses by TTL (the hard-crash failure model).
	Abandon func()
	// Defer delays this replica's first campaign when no leader has ever
	// been observed — pool standbys yield the initial election to the
	// container-0 candidate.
	Defer time.Duration
}

// Replica is one control-plane node: standby until elected, active
// leader until deposed, crashed, or stopped.
type Replica struct {
	opts Options
	log  *Log
	el   *Elector

	mu      sync.Mutex
	status  Status
	view    *View
	lossAt  time.Time // when the current leaderless window was first seen
	sawLive bool      // a leader existed at some point (gates failover timing)

	// settled closes once the first campaign is decided: this replica
	// leads, or it saw a live leader, or it stopped.
	settled    chan struct{}
	settleOnce sync.Once

	stop     chan struct{}
	stopOnce sync.Once
	crashed  bool
	wg       sync.WaitGroup
}

// NewReplica builds and starts a replica.
func NewReplica(opts Options) (*Replica, error) {
	if opts.Store == nil || opts.Promote == nil {
		return nil, fmt.Errorf("replication: replica needs Store and Promote")
	}
	if opts.TTL <= 0 {
		opts.TTL = core.DefaultControlLeaseTTL
	}
	r := &Replica{
		opts:    opts,
		log:     NewLog(opts.Store, opts.Topology),
		el:      NewElector(opts.Store, opts.Topology, opts.NodeID, opts.TTL),
		status:  Status{NodeID: opts.NodeID, Role: RoleStandby},
		view:    &View{},
		settled: make(chan struct{}),
		stop:    make(chan struct{}),
	}
	r.wg.Add(1)
	go r.run()
	return r, nil
}

// Status returns the replica's current status.
func (r *Replica) Status() Status {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.status
}

// View returns a copy of the warm view (tests and promotion plumbing).
func (r *Replica) View() *View {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.view.Clone()
}

// Settled is closed once the replica's first campaign is decided: it
// promoted a TMaster, lost the election, saw a live leader, or stopped.
func (r *Replica) Settled() <-chan struct{} { return r.settled }

func (r *Replica) settle() { r.settleOnce.Do(func() { close(r.settled) }) }

// IsLeader reports whether this replica currently leads.
func (r *Replica) IsLeader() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.status.Role == RoleLeader
}

// Stop cleanly shuts the replica down: the active TMaster (if leading)
// stops, the lease is released so a standby takes over immediately.
func (r *Replica) Stop() {
	r.stopOnce.Do(func() { close(r.stop) })
	r.wg.Wait()
}

// Crash simulates a hard kill: no lease release, no session cleanup —
// the lease lapses at its TTL and a standby fences us out. The chaos
// harness's KillLeader lands here.
func (r *Replica) Crash() {
	r.mu.Lock()
	r.crashed = true
	r.mu.Unlock()
	r.stopOnce.Do(func() { close(r.stop) })
	r.wg.Wait()
	if r.opts.Abandon != nil {
		r.opts.Abandon()
	}
}

func (r *Replica) transition(mut func(*Status)) {
	r.mu.Lock()
	mut(&r.status)
	r.mu.Unlock()
}

// run is the replica's life: tail the log as a standby, campaign when
// the lease is free, lead until deposed, repeat.
func (r *Replica) run() {
	defer r.wg.Done()
	defer r.settle()
	kick := make(chan struct{}, 1)
	nudge := func() {
		select {
		case kick <- struct{}{}:
		default:
		}
	}
	cancelLeader, err := r.opts.Store.WatchNode(leaderPath(r.opts.Topology), func(_ []byte, exists bool) {
		r.mu.Lock()
		if exists {
			r.sawLive = true
			r.lossAt = time.Time{}
		} else if r.sawLive && r.lossAt.IsZero() {
			r.lossAt = time.Now()
		}
		r.mu.Unlock()
		nudge()
	})
	if err != nil {
		return
	}
	defer cancelLeader()
	// Lease renewals rewrite nothing, so the watch does not fire for a
	// leader already holding the lease; read it once, or a standby whose
	// deferred first campaign outlasts that leader never counts the
	// failover that follows.
	if _, live, _ := r.el.Leader(); live {
		r.mu.Lock()
		r.sawLive = true
		r.mu.Unlock()
	}
	cancelHead, err := r.opts.Store.WatchNode(headPath(r.opts.Topology), func(_ []byte, _ bool) { nudge() })
	if err != nil {
		return
	}
	defer cancelHead()

	if r.opts.Defer > 0 {
		// Pool standbys yield the first election to the container replica
		// unless a leader already died before we ever saw one.
		select {
		case <-r.stop:
			return
		case <-time.After(r.opts.Defer):
		}
	}

	ticker := time.NewTicker(r.opts.TTL / 2)
	defer ticker.Stop()
	for {
		r.tail()
		if li, live, _ := r.el.Leader(); !live {
			// Capture the leaderless-window start before campaigning: our
			// own lease grab fires the leader watch (exists=true), which
			// resets lossAt.
			r.mu.Lock()
			if r.sawLive && r.lossAt.IsZero() {
				r.lossAt = time.Now()
			}
			lossAt := r.lossAt
			r.mu.Unlock()
			if term, won, _ := r.el.TryAcquire(0); won {
				r.lead(term, lossAt)
				select {
				case <-r.stop:
					return
				default:
					continue
				}
			}
			r.settle()
		} else {
			r.settle()
			r.mu.Lock()
			r.sawLive = true
			if r.status.Term < li.Term {
				r.status.Term = li.Term
			}
			r.mu.Unlock()
		}
		select {
		case <-r.stop:
			return
		case <-kick:
		case <-ticker.C:
		}
	}
}

// tail folds newly committed records into the warm view, starting from
// the log snapshot when compaction has passed the view. Store reads stay
// outside r.mu: a read can observe a lease lapse and synchronously fire
// this replica's own leader watch, whose callback takes r.mu. Only the
// run goroutine writes r.view, so folding into a copy loses nothing.
func (r *Replica) tail() {
	r.mu.Lock()
	v := r.view.Clone()
	r.mu.Unlock()
	_ = r.log.Replay(v) // a failed read leaves v at its last good record
	r.mu.Lock()
	r.view = v
	r.status.AppliedSeq = v.AppliedSeq
	r.mu.Unlock()
}

// lead fences the log at term, replays the suffix, promotes an active
// TMaster, and renews the lease until deposed, crashed, or stopped.
// lossAt is when the leaderless window this election closes was first
// observed (zero for an initial, non-failover election).
func (r *Replica) lead(term int64, lossAt time.Time) {
	defer r.settle()
	if err := r.log.Fence(term); err != nil {
		// A higher term got there first; back to standby.
		_ = r.el.Resign()
		return
	}
	// After fencing no lower-term append can land: one final tail makes
	// the view complete through the old leader's last effective write.
	r.tail()

	deposed := make(chan struct{})
	var deposeOnce sync.Once
	depose := func() { deposeOnce.Do(func() { close(deposed) }) }

	r.mu.Lock()
	view := r.view.Clone()
	r.lossAt = time.Time{}
	r.mu.Unlock()

	active, err := r.opts.Promote(term, view, depose)
	if err != nil {
		_ = r.el.Resign()
		return
	}
	r.transition(func(st *Status) {
		st.Role = RoleLeader
		st.Term = term
		if !lossAt.IsZero() {
			st.Failovers++
			st.LastFailoverNs = time.Since(lossAt).Nanoseconds()
		}
	})
	r.settle()

	renew := time.NewTicker(r.opts.TTL / 3)
	defer renew.Stop()
	for {
		select {
		case <-r.stop:
			r.mu.Lock()
			crashed := r.crashed
			r.mu.Unlock()
			if crashed {
				if c, ok := active.(interface{ Crash() }); ok {
					c.Crash()
				} else {
					active.Stop()
				}
				// No resign: the lease lapses by TTL.
			} else {
				active.Stop()
				_ = r.el.Resign()
			}
			r.transition(func(st *Status) { st.Role = RoleStandby })
			return
		case <-deposed:
			// A fenced append told the TMaster it lost the log.
			active.Stop()
			r.transition(func(st *Status) { st.Role = RoleStandby })
			return
		case <-renew.C:
			ok, err := r.el.Renew(term)
			if err == nil && ok {
				continue
			}
			// Lease lost (we stalled past the TTL and someone took over).
			active.Stop()
			r.transition(func(st *Status) { st.Role = RoleStandby })
			return
		}
	}
}
