// Package healthmgr is the self-regulating health manager: a
// policy-driven control loop in the spirit of Dhalion, layered on top of
// the TMaster's merged metrics view.
//
// Each tick the loop runs sensors → detectors → diagnosers → resolvers:
// the sensor turns two successive TopologyViews into a windowed Sample;
// detectors raise sustained symptoms (backpressure, processing skew,
// underutilization, a full max-spout-pending window); diagnosers map
// symptoms to root causes (underprovisioned, slow instance,
// overprovisioned, window-limited); resolvers act — from a cheap
// max-spout-pending retune up to a checkpoint-preserving runtime rescale
// through Handle.ScaleComponent. A cooldown after every
// action and sustain windows in every detector keep the loop from
// flapping.
package healthmgr

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"heron/internal/metrics"
)

// Policy bundles the detector/diagnoser/resolver sets of one control
// strategy. Resolvers are ordered cheapest first; the manager escalates
// along that order when a diagnosis survives an action.
type Policy struct {
	Detectors  []Detector
	Diagnosers []Diagnoser
	Resolvers  []Resolver
}

// Options configures a Manager.
type Options struct {
	Topology Topology
	// Policy names a registered policy ("autoscale", "tune-only",
	// "observe"); empty means "autoscale".
	Policy   string
	Interval time.Duration
	// Cooldown is the minimum pause after any resolver action (default
	// 8×Interval): actions must be given time to show up in the metrics
	// before the loop may act again.
	Cooldown time.Duration
	// AckingEnabled gates the max-spout-pending resolver.
	AckingEnabled bool
	// MinParallelism / MaxParallelism bound the rescale resolvers.
	MinParallelism int
	MaxParallelism int
	// Registry receives the healthmgr.* metric series; a private one is
	// created when nil.
	Registry *metrics.Registry
	// ActionLog, when set, write-ahead-logs every resolver action before
	// it runs (the replicated control plane appends it to the control
	// log). An error skips this tick's action without escalation —
	// core.ErrNotLeader during a failover is transient, and the next
	// leader's health manager re-diagnoses from fresh metrics.
	ActionLog func(action, component, detail string) error
}

// PolicyFactory builds a policy for one topology's options.
type PolicyFactory func(Options) *Policy

var (
	policyMu sync.RWMutex
	policies = map[string]PolicyFactory{}
)

// RegisterPolicy adds a named policy to the registry (same pattern as
// the core module registries).
func RegisterPolicy(name string, f PolicyFactory) {
	policyMu.Lock()
	defer policyMu.Unlock()
	policies[name] = f
}

// KnownPolicy reports whether a policy name resolves.
func KnownPolicy(name string) bool {
	if name == "" {
		return true
	}
	policyMu.RLock()
	defer policyMu.RUnlock()
	_, ok := policies[name]
	return ok
}

// Policies returns the sorted registered policy names.
func Policies() []string {
	policyMu.RLock()
	defer policyMu.RUnlock()
	out := make([]string, 0, len(policies))
	for n := range policies {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func init() {
	RegisterPolicy("autoscale", func(o Options) *Policy {
		p := &Policy{
			Detectors: []Detector{
				&BackpressureDetector{},
				&SkewDetector{},
				&UnderutilizationDetector{},
			},
			Diagnosers: []Diagnoser{ResourceDiagnoser{}},
		}
		if o.AckingEnabled {
			p.Resolvers = append(p.Resolvers, &SpoutPendingResolver{})
		}
		p.Resolvers = append(p.Resolvers,
			&ScaleUpResolver{Max: o.MaxParallelism},
			&RestartResolver{},
			&ScaleDownResolver{Min: o.MinParallelism},
		)
		return p
	})
	// tune-only drives the max-spout-pending window alone: it shrinks it
	// under backpressure and grows it while the spouts are window-limited
	// and growing pays (see SpoutPendingResolver).
	RegisterPolicy("tune-only", func(o Options) *Policy {
		return &Policy{
			Detectors:  []Detector{&BackpressureDetector{}, WindowLimitDetector{}},
			Diagnosers: []Diagnoser{ResourceDiagnoser{}},
			Resolvers:  []Resolver{&SpoutPendingResolver{}},
		}
	})
	RegisterPolicy("observe", func(o Options) *Policy {
		return &Policy{
			Detectors: []Detector{
				&BackpressureDetector{},
				&SkewDetector{},
				&UnderutilizationDetector{},
			},
			Diagnosers: []Diagnoser{ResourceDiagnoser{}},
		}
	})
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
	policy *Policy
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

// New builds a Manager; the policy name must be registered.
func New(o Options) (*Manager, error) {
	if o.Topology == nil {
		return nil, fmt.Errorf("healthmgr: nil topology")
	}
	name := o.Policy
	if name == "" {
		name = "autoscale"
	}
	policyMu.RLock()
	factory, ok := policies[name]
	policyMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("healthmgr: unknown policy %q (have %v)", name, Policies())
	}
	if o.Interval <= 0 {
		return nil, fmt.Errorf("healthmgr: non-positive interval")
	}
	if o.Cooldown <= 0 {
		o.Cooldown = 8 * o.Interval
	}
	reg := o.Registry
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	return &Manager{
		opts:        o,
		policy:      factory(o),
		reg:         reg,
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
	for _, d := range m.policy.Detectors {
		symptoms = append(symptoms, d.Detect(history)...)
	}
	var diagnoses []Diagnosis
	for _, dg := range m.policy.Diagnosers {
		diagnoses = append(diagnoses, dg.Diagnose(symptoms)...)
	}
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

	if len(m.policy.Resolvers) == 0 || len(diagnoses) == 0 || inCooldown {
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
	for _, r := range m.policy.Resolvers {
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
		if cd := now.Add(m.opts.Cooldown / 4); cd.After(m.cooldownUntil) {
			m.cooldownUntil = cd
		}
		m.mu.Unlock()
		return
	}
	m.reg.Counter(metrics.MHealthActions, metrics.Tags{Component: d.Component}).Inc(1)
	m.mu.Lock()
	m.escalation[d.Key()] = level + 1
	m.pushAction(Action{At: now, Resolver: r.Name(), Diagnosis: d, Detail: detail})
	m.cooldownUntil = now.Add(m.opts.Cooldown)
	m.mu.Unlock()
}

// pushAction appends to the bounded action log. Caller holds m.mu.
func (m *Manager) pushAction(a Action) {
	m.status.Actions = append(m.status.Actions, a)
	if len(m.status.Actions) > actionsCap {
		m.status.Actions = m.status.Actions[len(m.status.Actions)-actionsCap:]
	}
}
