package healthmgr

import (
	"time"

	"heron/internal/core"
	"heron/internal/metrics"
)

// ComponentStats is one component's health-relevant signal over a single
// sensing window: per-task progress deltas, topology placement, and mean
// execute latency (bolts only).
type ComponentStats struct {
	Spout       bool
	Parallelism int
	// TaskDeltas is the per-task progress over the window: executed
	// tuples for bolts, emitted tuples for spouts. Negative raw deltas
	// (counter reset after a relaunch) clamp to zero.
	TaskDeltas map[int32]int64
	// TaskContainer maps each task to the container hosting it.
	TaskContainer map[int32]int32
	// Rate is tuples/second summed across tasks over the window.
	Rate float64
	// MeanLatencyNs is the component-wide mean execute latency.
	MeanLatencyNs float64
	// Pending is the largest spout.pending gauge of the component's tasks
	// (spouts only): tuples in flight against the max-spout-pending
	// window.
	Pending int64
}

// Delta returns the summed task deltas.
func (c *ComponentStats) Delta() int64 {
	var total int64
	for _, d := range c.TaskDeltas {
		total += d
	}
	return total
}

// ContainerBP is one container's backpressure signal over the window.
type ContainerBP struct {
	// Active reports the stream manager's live backpressure gauge: true
	// while the container currently asserts backpressure.
	Active bool
	// AssertedNsDelta is backpressure time accrued during the window.
	// It only moves when an assert/release cycle completes, so Active is
	// the primary sustained-pressure signal.
	AssertedNsDelta int64
}

// Asserted reports whether the container showed any backpressure in the
// window.
func (b ContainerBP) Asserted() bool { return b.Active || b.AssertedNsDelta > 0 }

// Sample is one evaluated sensing window, the unit detectors consume.
type Sample struct {
	At           time.Time
	Elapsed      time.Duration
	Components   map[string]*ComponentStats
	Backpressure map[int32]ContainerBP
	// Window is the live max-spout-pending window when the sample was
	// taken (0 = unbounded).
	Window int
	// Acked counts the tuple trees the spouts acked over this sample.
	Acked int64
	// WindowAckRate is the spouts' acked trees per second over every
	// trailing sample taken at this Window: the rate the window achieved,
	// measured over as long as it has held. The Manager fills it in.
	WindowAckRate float64
}

// BackpressureAsserted reports whether any container asserted
// backpressure during the window.
func (s *Sample) BackpressureAsserted() bool {
	for _, bp := range s.Backpressure {
		if bp.Asserted() {
			return true
		}
	}
	return false
}

// windowAckRate is the spouts' acked rate over the trailing samples of
// history taken at the newest sample's window. The acked counts telescope,
// so the error is one metrics export, not one per sample.
func windowAckRate(history []*Sample) float64 {
	var acked int64
	var elapsed time.Duration
	w := history[len(history)-1].Window
	for i := len(history) - 1; i >= 0 && history[i].Window == w; i-- {
		acked += history[i].Acked
		elapsed += history[i].Elapsed
	}
	if elapsed <= 0 {
		return 0
	}
	return float64(acked) / elapsed.Seconds()
}

// BuildSample derives one Sample from two successive topology views and
// the active packing plan. It is a pure function so detector tests can
// feed synthetic view sequences. prev may be nil (warmup): deltas then
// read as cumulative counts and rates as zero. The window is the time
// between the two views' snapshots, not between the ticks that read
// them: the counters moved over the former.
func BuildSample(cur, prev *metrics.TopologyView, plan *core.PackingPlan, at time.Time) *Sample {
	var elapsed time.Duration
	if prev != nil {
		elapsed = cur.TakenAt.Sub(prev.TakenAt)
	}
	s := &Sample{
		At:           at,
		Elapsed:      elapsed,
		Components:   map[string]*ComponentStats{},
		Backpressure: map[int32]ContainerBP{},
	}
	// Placement and parallelism come from the plan, not the metrics:
	// tasks that have not reported yet still count toward parallelism.
	for i := range plan.Containers {
		c := &plan.Containers[i]
		for _, inst := range c.Instances {
			comp := s.component(inst.ID.Component)
			comp.Parallelism++
			comp.TaskContainer[inst.ID.TaskID] = c.ID
		}
	}
	// Bolts are the components that report execute counts; spout progress
	// is their emit count.
	for id, val := range cur.Counters {
		switch id.Name {
		case metrics.MExecuteCount:
			comp := s.component(id.Component)
			comp.TaskDeltas[id.Task] = counterDelta(prev, id, val)
		case metrics.MStmgrBPAssertedTime:
			bp := s.Backpressure[id.Task]
			bp.AssertedNsDelta = counterDelta(prev, id, val)
			s.Backpressure[id.Task] = bp
		}
	}
	for id, val := range cur.Counters {
		if id.Name != metrics.MEmitCount {
			continue
		}
		comp := s.component(id.Component)
		if _, bolt := cur.Counters[metrics.ID{Name: metrics.MExecuteCount, Tags: id.Tags}]; bolt {
			continue
		}
		comp.Spout = true
		comp.TaskDeltas[id.Task] = counterDelta(prev, id, val)
		ackID := metrics.ID{Name: metrics.MAckCount, Tags: id.Tags}
		s.Acked += counterDelta(prev, ackID, cur.Counters[ackID])
	}
	for id, val := range cur.Gauges {
		switch id.Name {
		case metrics.MStmgrBPActive:
			bp := s.Backpressure[id.Task]
			bp.Active = val != 0
			s.Backpressure[id.Task] = bp
		case metrics.MSpoutPending:
			comp := s.component(id.Component)
			comp.Pending = max(comp.Pending, val)
		}
	}
	for name, comp := range s.Components {
		if elapsed > 0 {
			comp.Rate = float64(comp.Delta()) / elapsed.Seconds()
		}
		comp.MeanLatencyNs = histWindowMean(cur, prev, metrics.MExecuteLatency, name)
	}
	return s
}

func (s *Sample) component(name string) *ComponentStats {
	if name == "" || name == metrics.StmgrComponent {
		name = metrics.StmgrComponent
	}
	comp, ok := s.Components[name]
	if !ok {
		comp = &ComponentStats{
			TaskDeltas:    map[int32]int64{},
			TaskContainer: map[int32]int32{},
		}
		s.Components[name] = comp
	}
	return comp
}

// counterDelta returns cur-prev for one counter identity, clamped at
// zero: relaunched instances reset their counters.
func counterDelta(prev *metrics.TopologyView, id metrics.ID, cur int64) int64 {
	if prev == nil {
		return cur
	}
	d := cur - prev.Counters[id]
	if d < 0 {
		return 0
	}
	return d
}

// histWindowMean is the component-wide windowed mean of a histogram.
func histWindowMean(cur, prev *metrics.TopologyView, name, component string) float64 {
	c := cur.Histogram(name, component)
	if prev != nil {
		p := prev.Histogram(name, component)
		if dc := c.Count - p.Count; dc > 0 && c.Sum >= p.Sum {
			return float64(c.Sum-p.Sum) / float64(dc)
		}
	}
	if c.Count > 0 {
		return float64(c.Sum) / float64(c.Count)
	}
	return 0
}

// ViewSensor turns successive topology views into Samples, keeping the
// previous view for windowed deltas. The first observation is warmup and
// produces no sample; so does a tick during which no fresh container
// snapshot arrived (the view's TakenAt did not advance).
type ViewSensor struct {
	prev *metrics.TopologyView
}

// Sample evaluates the current view; nil when there is nothing fresh.
func (v *ViewSensor) Sample(cur *metrics.TopologyView, plan *core.PackingPlan, at time.Time) *Sample {
	if cur == nil || plan == nil {
		return nil
	}
	if v.prev == nil {
		v.prev = cur
		return nil
	}
	if !cur.TakenAt.After(v.prev.TakenAt) {
		return nil // no new snapshots merged since last tick
	}
	s := BuildSample(cur, v.prev, plan, at)
	v.prev = cur
	return s
}

// Reset drops sensor history (after a rescale, counters restart and the
// old window is meaningless).
func (v *ViewSensor) Reset() { v.prev = nil }
