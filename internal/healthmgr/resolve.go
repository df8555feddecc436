package healthmgr

import (
	"fmt"

	"heron/internal/core"
	"heron/internal/metrics"
)

// Topology is the control surface resolvers act through. *heron.Handle
// implements it, so a resolver-initiated rescale takes exactly the code
// path a user calling Handle.ScaleComponent takes.
type Topology interface {
	Name() string
	Metrics() *metrics.TopologyView
	PackingPlan() (*core.PackingPlan, error)
	ScaleComponent(component string, parallelism int) error
	// MaxSpoutPending reads the live max-spout-pending window, the one
	// SetMaxSpoutPending last set (0 = unbounded).
	MaxSpoutPending() (int, error)
	SetMaxSpoutPending(n int) error
	Restart(containerID int32) error
}

// Resolver turns a diagnosis into one corrective action. Policies order
// resolvers cheapest first; the manager escalates to the next one when a
// diagnosis recurs after a cooldown.
type Resolver interface {
	Name() string
	CanResolve(d Diagnosis) bool
	// Resolve acts on the diagnosis using the latest sample for sizing
	// decisions. It returns a human-readable description of the action.
	Resolve(d Diagnosis, t Topology, latest *Sample) (string, error)
}

// SpoutPendingResolver is the one controller of the max-spout-pending
// window, the knob the paper's §V-B leaves to be tuned from real-time
// observations, and the cheapest intervention: a control-plane retune,
// no restarts. It reads the live window through the Topology and keeps
// none of its own. Requires acking (the window is meaningless without
// it).
//
//   - Underprovisioned (sustained backpressure): halve the window, down
//     to backpressureFloor; an unbounded window becomes half of
//     defaultWindow.
//   - Window-limited (a spout holds a full window in flight and nothing
//     backpressures): grow it ×1.5 (rounded up), ScaleUpResolver's step,
//     and keep growing while each growth raises the spouts' acked rate at
//     the window (Sample.WindowAckRate) by more than the growthGain
//     margin. A growth that did not is followed by a halving.
//
// Growing while it pays and halving past it finds the knee of the
// throughput/latency curve (Figs 10–11) by measurement, with no latency
// target to pick.
type SpoutPendingResolver struct {
	// grownFrom is the spouts' acked rate at the window the last growth
	// left, the baseline that growth is judged against; 0 after a halving.
	grownFrom float64
}

const (
	// growthGain is the factor by which a growth must raise the spouts'
	// acked rate for the window to grow again.
	growthGain = 1.05
	// backpressureFloor is the smallest window backpressure halves to.
	backpressureFloor = 32
	// defaultWindow stands in for an unbounded window when backpressure
	// halves it.
	defaultWindow = 1024
)

// Name implements Resolver.
func (*SpoutPendingResolver) Name() string { return "spout-pending-retune" }

// CanResolve implements Resolver.
func (*SpoutPendingResolver) CanResolve(d Diagnosis) bool {
	return d.Kind == DiagUnderprovisioned || d.Kind == DiagWindowLimited
}

// Resolve implements Resolver.
func (r *SpoutPendingResolver) Resolve(d Diagnosis, t Topology, latest *Sample) (string, error) {
	cur, err := t.MaxSpoutPending()
	if err != nil {
		return "", err
	}
	var next int
	switch {
	case d.Kind != DiagWindowLimited:
		next = cur / 2
		if cur == 0 {
			next = defaultWindow / 2
		}
		if next < backpressureFloor {
			return "", fmt.Errorf("healthmgr: max-spout-pending %d already at floor %d", cur, backpressureFloor)
		}
	case r.grownFrom == 0 || latest.WindowAckRate > r.grownFrom*growthGain:
		next = cur + (cur+1)/2
	default:
		next = max(cur/2, 1)
	}
	if err := t.SetMaxSpoutPending(next); err != nil {
		return "", err
	}
	r.grownFrom = 0
	if next > cur {
		r.grownFrom = latest.WindowAckRate
	}
	return fmt.Sprintf("max-spout-pending %d → %d", cur, next), nil
}

// The rescale resolvers' parallelism bounds.
const (
	minParallelism = 1
	maxParallelism = 16
)

// ScaleUpResolver resolves an underprovisioned component by growing its
// parallelism ~1.5× through the runtime rescale path, up to
// maxParallelism.
type ScaleUpResolver struct{}

// Name implements Resolver.
func (*ScaleUpResolver) Name() string { return "scale-up" }

// CanResolve implements Resolver.
func (*ScaleUpResolver) CanResolve(d Diagnosis) bool {
	return d.Kind == DiagUnderprovisioned
}

// Resolve implements Resolver.
func (*ScaleUpResolver) Resolve(d Diagnosis, t Topology, latest *Sample) (string, error) {
	comp, ok := latest.Components[d.Component]
	if !ok || comp.Parallelism <= 0 {
		return "", fmt.Errorf("healthmgr: no stats for component %q", d.Component)
	}
	cur := comp.Parallelism
	next := min(cur+max(cur/2, 1), maxParallelism)
	if next <= cur {
		return "", fmt.Errorf("healthmgr: %q already at max parallelism %d", d.Component, maxParallelism)
	}
	if err := t.ScaleComponent(d.Component, next); err != nil {
		return "", err
	}
	return fmt.Sprintf("parallelism %d → %d", cur, next), nil
}

// ScaleDownResolver returns capacity from an overprovisioned component
// by halving its parallelism (never below minParallelism).
type ScaleDownResolver struct{}

// Name implements Resolver.
func (*ScaleDownResolver) Name() string { return "scale-down" }

// CanResolve implements Resolver.
func (*ScaleDownResolver) CanResolve(d Diagnosis) bool {
	return d.Kind == DiagOverprovisioned
}

// Resolve implements Resolver.
func (*ScaleDownResolver) Resolve(d Diagnosis, t Topology, latest *Sample) (string, error) {
	comp, ok := latest.Components[d.Component]
	if !ok || comp.Parallelism <= 0 {
		return "", fmt.Errorf("healthmgr: no stats for component %q", d.Component)
	}
	cur := comp.Parallelism
	next := max(cur/2, minParallelism)
	if next >= cur {
		return "", fmt.Errorf("healthmgr: %q already at min parallelism %d", d.Component, minParallelism)
	}
	if err := t.ScaleComponent(d.Component, next); err != nil {
		return "", err
	}
	return fmt.Sprintf("parallelism %d → %d", cur, next), nil
}

// RestartResolver resolves a slow-instance diagnosis by bouncing the
// container hosting the slowest task — the classic remedy for a
// degraded host, which rescaling would not fix.
type RestartResolver struct{}

// Name implements Resolver.
func (*RestartResolver) Name() string { return "restart-slow-container" }

// CanResolve implements Resolver.
func (*RestartResolver) CanResolve(d Diagnosis) bool {
	return d.Kind == DiagSlowInstance
}

// Resolve implements Resolver.
func (RestartResolver) Resolve(d Diagnosis, t Topology, latest *Sample) (string, error) {
	comp, ok := latest.Components[d.Component]
	if !ok {
		return "", fmt.Errorf("healthmgr: no stats for component %q", d.Component)
	}
	// The slow task is the one making the least progress.
	var slow int32 = -1
	var slowDelta int64 = -1
	for task := range comp.TaskContainer {
		delta := comp.TaskDeltas[task]
		if slow < 0 || delta < slowDelta {
			slow, slowDelta = task, delta
		}
	}
	if slow < 0 {
		return "", fmt.Errorf("healthmgr: no tasks for component %q", d.Component)
	}
	container := comp.TaskContainer[slow]
	if err := t.Restart(container); err != nil {
		return "", err
	}
	return fmt.Sprintf("restarted container %d (slow task %d)", container, slow), nil
}
