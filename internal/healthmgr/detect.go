package healthmgr

import (
	"fmt"

	"heron/internal/metrics"
)

// SymptomKind names an observable anomaly class.
type SymptomKind string

// The symptom taxonomy (DESIGN.md §7).
const (
	SymptomBackpressure  SymptomKind = "backpressure"
	SymptomSkew          SymptomKind = "processing-skew"
	SymptomUnderutilized SymptomKind = "underutilization"
	SymptomWindowLimited SymptomKind = "window-limited"
)

// Symptom is one detected anomaly attributed to a component.
type Symptom struct {
	Kind      SymptomKind `json:"kind"`
	Component string      `json:"component"`
	Detail    string      `json:"detail,omitempty"`
}

// detector inspects the recent sample history (oldest first, newest
// last) and raises symptoms. Detectors require the condition to be
// *sustained* across their window: a single noisy sample never raises.
type detector func(history []*Sample) []Symptom

// The detectors' sustain windows, in consecutive samples, and thresholds.
const (
	backpressureSustain  = 3
	skewSustain          = 5
	underutilizedSustain = 12
	windowLimitSustain   = 3
	// skewRatio is the busiest task's load, as a multiple of the per-task
	// mean, from which a component counts as skewed.
	skewRatio = 3.0
	// maxBusy is the per-task busy fraction under which a bolt counts as
	// underutilized.
	maxBusy = 0.2
)

// window returns the last n samples if at least n exist, else nil.
func window(history []*Sample, n int) []*Sample {
	if len(history) < n {
		return nil
	}
	return history[len(history)-n:]
}

// detectBackpressure raises SymptomBackpressure when every one of the
// last backpressureSustain samples shows an asserting container,
// attributed to the slowest bolt hosted in an asserting container
// (falling back to the slowest bolt anywhere).
func detectBackpressure(history []*Sample) []Symptom {
	win := window(history, backpressureSustain)
	if win == nil {
		return nil
	}
	for _, s := range win {
		if !s.BackpressureAsserted() {
			return nil
		}
	}
	latest := win[len(win)-1]
	asserting := map[int32]bool{}
	for c, bp := range latest.Backpressure {
		if bp.Asserted() {
			asserting[c] = true
		}
	}
	comp := slowestBolt(latest, asserting)
	if comp == "" {
		comp = slowestBolt(latest, nil)
	}
	if comp == "" {
		return nil
	}
	return []Symptom{{
		Kind:      SymptomBackpressure,
		Component: comp,
		Detail:    fmt.Sprintf("backpressure sustained over %d samples; slowest bolt %q", backpressureSustain, comp),
	}}
}

// slowestBolt picks the bolt with the highest mean execute latency,
// restricted to bolts with a task in `containers` when non-nil.
func slowestBolt(s *Sample, containers map[int32]bool) string {
	best, bestLat := "", -1.0
	for name, comp := range s.Components {
		if comp.Spout || name == metrics.StmgrComponent {
			continue
		}
		if containers != nil {
			hosted := false
			for _, c := range comp.TaskContainer {
				if containers[c] {
					hosted = true
					break
				}
			}
			if !hosted {
				continue
			}
		}
		if comp.MeanLatencyNs > bestLat {
			best, bestLat = name, comp.MeanLatencyNs
		}
	}
	return best
}

// sustained returns one symptom of kind for every component hit holds
// for in every sample of win (nil when win is).
func sustained(win []*Sample, kind SymptomKind, detail string, hit func(s *Sample, name string, comp *ComponentStats) bool) []Symptom {
	hits := map[string]int{}
	for _, s := range win {
		for name, comp := range s.Components {
			if hit(s, name, comp) {
				hits[name]++
			}
		}
	}
	var out []Symptom
	for name, n := range hits {
		if n == len(win) {
			out = append(out, Symptom{Kind: kind, Component: name, Detail: detail})
		}
	}
	return out
}

// multiTaskBolt reports whether a component is a bolt with at least two
// tasks, the only components skew and underutilization apply to.
func multiTaskBolt(name string, comp *ComponentStats) bool {
	return !comp.Spout && name != metrics.StmgrComponent && comp.Parallelism >= 2
}

// detectSkew raises SymptomSkew for a component whose busiest task
// processes at least skewRatio times the per-task mean in every one of
// the last skewSustain samples — uneven load that extra parallelism alone
// will not fix.
func detectSkew(history []*Sample) []Symptom {
	return sustained(window(history, skewSustain), SymptomSkew,
		fmt.Sprintf("task load max/mean ≥ %.1f over %d samples", skewRatio, skewSustain),
		func(_ *Sample, name string, comp *ComponentStats) bool {
			if !multiTaskBolt(name, comp) {
				return false
			}
			var most, total int64
			for _, delta := range comp.TaskDeltas {
				total += delta
				most = max(most, delta)
			}
			return total > 0 && float64(most) >= skewRatio*float64(total)/float64(comp.Parallelism)
		})
}

// detectUnderutilization raises SymptomUnderutilized for a bolt whose
// estimated per-task busy fraction (rate × mean latency / parallelism)
// stays under maxBusy across the last underutilizedSustain samples while
// tuples keep flowing and no backpressure appears anywhere in the window.
// The long window makes scale-down deliberately conservative.
func detectUnderutilization(history []*Sample) []Symptom {
	win := window(history, underutilizedSustain)
	for _, s := range win {
		if s.BackpressureAsserted() {
			return nil
		}
	}
	return sustained(win, SymptomUnderutilized,
		fmt.Sprintf("busy fraction < %.2f over %d samples", maxBusy, underutilizedSustain),
		func(_ *Sample, name string, comp *ComponentStats) bool {
			return multiTaskBolt(name, comp) && comp.Rate > 0 && comp.MeanLatencyNs > 0 &&
				comp.Rate*comp.MeanLatencyNs/1e9/float64(comp.Parallelism) < maxBusy
		})
}

// detectWindowLimit raises SymptomWindowLimited for a spout whose fullest
// task holds a whole max-spout-pending window in flight in every one of
// the last windowLimitSustain samples while no container asserts
// backpressure: the spout waits on acks, not on the pipeline, so a wider
// window would carry more tuples.
func detectWindowLimit(history []*Sample) []Symptom {
	win := window(history, windowLimitSustain)
	for _, s := range win {
		if s.Window <= 0 || s.BackpressureAsserted() {
			return nil
		}
	}
	return sustained(win, SymptomWindowLimited,
		fmt.Sprintf("spout.pending at the max-spout-pending window over %d samples", windowLimitSustain),
		func(s *Sample, _ string, comp *ComponentStats) bool {
			return comp.Spout && comp.Pending >= int64(s.Window)
		})
}
