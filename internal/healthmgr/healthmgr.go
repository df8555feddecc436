// Package healthmgr is the self-regulating health manager: a
// policy-driven control loop in the spirit of Dhalion, layered on top of
// the TMaster's merged metrics view.
//
// Each tick the loop runs sensor → detectors → diagnose → resolvers:
// the sensor turns two successive TopologyViews into a windowed Sample;
// detectors raise sustained symptoms (backpressure, processing skew,
// underutilization, a full max-spout-pending window); diagnose maps
// symptoms to root causes (underprovisioned, slow instance,
// overprovisioned, window-limited); resolvers act — from a cheap
// max-spout-pending retune up to a checkpoint-preserving runtime rescale
// through Handle.ScaleComponent. A cooldown after every
// action and sustain windows in every detector keep the loop from
// flapping. Policies, thresholds and the cooldown are fixed: a
// configuration picks a policy by name and nothing else.
package healthmgr

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"heron/internal/metrics"
)

// Options configures a Manager.
type Options struct {
	Topology Topology
	// Policy names one of the policies ("autoscale", "tune-only",
	// "observe"); empty means "autoscale".
	Policy   string
	Interval time.Duration
	// AckingEnabled gates the max-spout-pending resolver.
	AckingEnabled bool
	// ActionLog, when set, write-ahead-logs every resolver action before
	// it runs (the replicated control plane appends it to the control
	// log). An error skips this tick's action without escalation —
	// core.ErrNotLeader during a failover is transient, and the next
	// leader's health manager re-diagnoses from fresh metrics.
	ActionLog func(action, component, detail string) error
}

// cooldownTicks is the pause after any resolver action, in ticks: an
// action must be given time to show up in the metrics before the loop may
// act again.
const cooldownTicks = 8

// policy is the detector and resolver sets of one control strategy.
// Resolvers are ordered cheapest first; the manager escalates along that
// order when a diagnosis survives an action.
type policy struct {
	detectors []detector
	resolvers []Resolver
}

// policies builds each named policy for one manager; resolvers keep state
// (SpoutPendingResolver), so no two managers share one.
var policies = map[string]func(acking bool) policy{
	"autoscale": func(acking bool) policy {
		p := policy{detectors: []detector{detectBackpressure, detectSkew, detectUnderutilization}}
		if acking {
			p.resolvers = append(p.resolvers, &SpoutPendingResolver{})
		}
		p.resolvers = append(p.resolvers, &ScaleUpResolver{}, &RestartResolver{}, &ScaleDownResolver{})
		return p
	},
	// tune-only drives the max-spout-pending window alone: it shrinks it
	// under backpressure and grows it while the spouts are window-limited
	// and growing pays (see SpoutPendingResolver).
	"tune-only": func(bool) policy {
		return policy{
			detectors: []detector{detectBackpressure, detectWindowLimit},
			resolvers: []Resolver{&SpoutPendingResolver{}},
		}
	},
	"observe": func(bool) policy {
		return policy{detectors: []detector{detectBackpressure, detectSkew, detectUnderutilization}}
	},
}

// KnownPolicy reports whether a policy name resolves.
func KnownPolicy(name string) bool {
	_, ok := policies[name]
	return ok || name == ""
}

// Policies returns the sorted policy names.
func Policies() []string {
	out := make([]string, 0, len(policies))
	for n := range policies {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Action records one resolver intervention for the status endpoint.
type Action struct {
	At        time.Time `json:"at"`
	Resolver  string    `json:"resolver"`
	Diagnosis Diagnosis `json:"diagnosis"`
	Detail    string    `json:"detail,omitempty"`
	Err       string    `json:"error,omitempty"`
}

// Status is the manager's externally visible state, served at /health.
type Status struct {
	Policy        string      `json:"policy"`
	Ticks         int64       `json:"ticks"`
	LastSampleAt  time.Time   `json:"lastSampleAt"`
	Symptoms      []Symptom   `json:"symptoms"`
	Diagnoses     []Diagnosis `json:"diagnoses"`
	Actions       []Action    `json:"actions"`
	CooldownUntil time.Time   `json:"cooldownUntil"`
}

const (
	historyCap = 64 // samples kept for detectors
	actionsCap = 32 // actions kept for /health
	// A diagnosis absent for this many consecutive ticks resets its
	// escalation level: the earlier remedy evidently worked.
	escalationResetTicks = 8
)

// Manager runs the control loop for one topology.
type Manager struct {
	opts   Options
	policy policy
	reg    *metrics.Registry
	sensor ViewSensor

	mu            sync.Mutex
	history       []*Sample
	status        Status
	escalation    map[string]int // diagnosis key → next resolver level
	absentTicks   map[string]int // diagnosis key → ticks since last seen
	cooldownUntil time.Time

	stopCh  chan struct{}
	stopped sync.WaitGroup
	started bool
}

// New builds a Manager; the policy name must be one of Policies.
func New(o Options) (*Manager, error) {
	if o.Topology == nil {
		return nil, fmt.Errorf("healthmgr: nil topology")
	}
	name := o.Policy
	if name == "" {
		name = "autoscale"
	}
	build, ok := policies[name]
	if !ok {
		return nil, fmt.Errorf("healthmgr: unknown policy %q (have %v)", name, Policies())
	}
	if o.Interval <= 0 {
		return nil, fmt.Errorf("healthmgr: non-positive interval")
	}
	return &Manager{
		opts:        o,
		policy:      build(o.AckingEnabled),
		reg:         metrics.NewRegistry(),
		status:      Status{Policy: name},
		escalation:  map[string]int{},
		absentTicks: map[string]int{},
		stopCh:      make(chan struct{}),
	}, nil
}

// Start launches the control loop.
func (m *Manager) Start() {
	m.mu.Lock()
	if m.started {
		m.mu.Unlock()
		return
	}
	m.started = true
	m.mu.Unlock()
	m.stopped.Add(1)
	go func() {
		defer m.stopped.Done()
		t := time.NewTicker(m.opts.Interval)
		defer t.Stop()
		for {
			select {
			case <-m.stopCh:
				return
			case now := <-t.C:
				m.tick(now)
			}
		}
	}()
}

// Stop halts the loop and waits for the in-flight tick.
func (m *Manager) Stop() {
	m.mu.Lock()
	if !m.started {
		m.mu.Unlock()
		return
	}
	m.started = false
	m.mu.Unlock()
	close(m.stopCh)
	m.stopped.Wait()
}

// Status returns a copy of the current externally visible state.
func (m *Manager) Status() Status {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.status
	st.Symptoms = append([]Symptom(nil), m.status.Symptoms...)
	st.Diagnoses = append([]Diagnosis(nil), m.status.Diagnoses...)
	st.Actions = append([]Action(nil), m.status.Actions...)
	st.CooldownUntil = m.cooldownUntil
	return st
}

// MetricsSnapshot exports the healthmgr.* series for merging into the
// topology view (container tag 0: the manager runs beside the TMaster).
func (m *Manager) MetricsSnapshot() metrics.Snapshot {
	return m.reg.Snapshot(0)
}

// ObserveRescale records one runtime rescale's wall time.
func (m *Manager) ObserveRescale(component string, d time.Duration) {
	m.reg.Histogram(metrics.MHealthRescaleDuration,
		metrics.Tags{Component: component}).Observe(d.Nanoseconds())
}

// ResetSensor drops windowed state; called after a rescale because every
// relaunched instance restarts its counters.
func (m *Manager) ResetSensor() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sensor.Reset()
	m.history = nil
}

// tick runs one sense→detect→diagnose→resolve evaluation.
func (m *Manager) tick(now time.Time) {
	view := m.opts.Topology.Metrics()
	plan, err := m.opts.Topology.PackingPlan()
	if err != nil {
		return
	}
	// While the control plane fails over the window is unknown: read it
	// as unbounded, which no window-limited symptom fires on.
	window, _ := m.opts.Topology.MaxSpoutPending()
	m.mu.Lock()
	sample := m.sensor.Sample(view, plan, now)
	m.status.Ticks++
	if sample == nil {
		m.mu.Unlock()
		return
	}
	sample.Window = window
	m.history = append(m.history, sample)
	if len(m.history) > historyCap {
		m.history = m.history[len(m.history)-historyCap:]
	}
	sample.WindowAckRate = windowAckRate(m.history)
	history := m.history
	m.mu.Unlock()

	var symptoms []Symptom
	for _, detect := range m.policy.detectors {
		symptoms = append(symptoms, detect(history)...)
	}
	diagnoses := diagnose(symptoms)
	for _, s := range symptoms {
		m.reg.Counter(metrics.MHealthSymptoms, metrics.Tags{Component: s.Component}).Inc(1)
	}
	for _, d := range diagnoses {
		m.reg.Counter(metrics.MHealthDiagnoses, metrics.Tags{Component: d.Component}).Inc(1)
	}

	m.mu.Lock()
	m.status.LastSampleAt = sample.At
	m.status.Symptoms = symptoms
	m.status.Diagnoses = diagnoses
	m.trackEscalation(diagnoses)
	inCooldown := now.Before(m.cooldownUntil)
	m.mu.Unlock()

	if len(m.policy.resolvers) == 0 || len(diagnoses) == 0 || inCooldown {
		return
	}
	m.resolve(now, diagnoses[0], sample)
}

// trackEscalation resets the escalation level of any diagnosis that has
// stayed absent long enough. Caller holds m.mu.
func (m *Manager) trackEscalation(diagnoses []Diagnosis) {
	present := map[string]bool{}
	for _, d := range diagnoses {
		present[d.Key()] = true
		m.absentTicks[d.Key()] = 0
	}
	for key := range m.escalation {
		if present[key] {
			continue
		}
		m.absentTicks[key]++
		if m.absentTicks[key] >= escalationResetTicks {
			delete(m.escalation, key)
			delete(m.absentTicks, key)
		}
	}
}

// resolve applies at most one action: the cheapest not-yet-exhausted
// resolver for the most urgent diagnosis.
func (m *Manager) resolve(now time.Time, d Diagnosis, latest *Sample) {
	var eligible []Resolver
	for _, r := range m.policy.resolvers {
		if r.CanResolve(d) {
			eligible = append(eligible, r)
		}
	}
	if len(eligible) == 0 {
		return
	}
	m.mu.Lock()
	level := m.escalation[d.Key()]
	m.mu.Unlock()
	if level >= len(eligible) {
		level = len(eligible) - 1
	}
	r := eligible[level]
	if m.opts.ActionLog != nil {
		if err := m.opts.ActionLog(r.Name(), d.Component, string(d.Kind)); err != nil {
			return // control log unavailable (failover): act next tick
		}
	}
	detail, err := r.Resolve(d, m.opts.Topology, latest)
	if err != nil {
		// The cheap remedy is exhausted or failed: escalate immediately
		// so the next eligible tick tries the stronger one.
		m.mu.Lock()
		m.escalation[d.Key()] = level + 1
		m.pushAction(Action{At: now, Resolver: r.Name(), Diagnosis: d, Err: err.Error()})
		// Brief pause even on failure so a persistently failing resolver
		// cannot hot-loop.
		if cd := now.Add(cooldownTicks * m.opts.Interval / 4); cd.After(m.cooldownUntil) {
			m.cooldownUntil = cd
		}
		m.mu.Unlock()
		return
	}
	m.reg.Counter(metrics.MHealthActions, metrics.Tags{Component: d.Component}).Inc(1)
	m.mu.Lock()
	m.escalation[d.Key()] = level + 1
	m.pushAction(Action{At: now, Resolver: r.Name(), Diagnosis: d, Detail: detail})
	m.cooldownUntil = now.Add(cooldownTicks * m.opts.Interval)
	m.mu.Unlock()
}

// pushAction appends to the bounded action log. Caller holds m.mu.
func (m *Manager) pushAction(a Action) {
	m.status.Actions = append(m.status.Actions, a)
	if len(m.status.Actions) > actionsCap {
		m.status.Actions = m.status.Actions[len(m.status.Actions)-actionsCap:]
	}
}
