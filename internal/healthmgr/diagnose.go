package healthmgr

// DiagnosisKind names a root-cause class.
type DiagnosisKind string

// The diagnosis taxonomy (DESIGN.md §7).
const (
	DiagUnderprovisioned DiagnosisKind = "underprovisioned"
	DiagSlowInstance     DiagnosisKind = "slow-instance"
	DiagOverprovisioned  DiagnosisKind = "overprovisioned"
	DiagWindowLimited    DiagnosisKind = "window-limited"
)

// Diagnosis attributes a set of symptoms to a root cause on a component.
type Diagnosis struct {
	Kind      DiagnosisKind `json:"kind"`
	Component string        `json:"component"`
	Detail    string        `json:"detail,omitempty"`
}

// Key identifies a recurring diagnosis for escalation and cooldown
// bookkeeping.
func (d Diagnosis) Key() string { return string(d.Kind) + "/" + d.Component }

// diagnose maps this tick's symptoms to diagnoses, most urgent first:
//
//   - backpressure + skew on the same component → slow-instance: one task
//     lags its siblings, so adding parallelism would not relieve it;
//   - backpressure alone → underprovisioned: the whole component is the
//     bottleneck;
//   - a spout holding a full max-spout-pending window (never concurrent
//     with backpressure by detector construction) → window-limited;
//   - underutilization (never concurrent with backpressure either) →
//     overprovisioned.
//
// Output order is urgency order: pressure relief, then throughput, then
// capacity return.
func diagnose(symptoms []Symptom) []Diagnosis {
	byKind := map[SymptomKind]map[string]Symptom{}
	for _, s := range symptoms {
		m, ok := byKind[s.Kind]
		if !ok {
			m = map[string]Symptom{}
			byKind[s.Kind] = m
		}
		m[s.Component] = s
	}
	var out []Diagnosis
	for comp, s := range byKind[SymptomBackpressure] {
		if _, skewed := byKind[SymptomSkew][comp]; skewed {
			out = append(out, Diagnosis{Kind: DiagSlowInstance, Component: comp, Detail: s.Detail + "; load skewed"})
		} else {
			out = append(out, Diagnosis{Kind: DiagUnderprovisioned, Component: comp, Detail: s.Detail})
		}
	}
	for comp, s := range byKind[SymptomWindowLimited] {
		out = append(out, Diagnosis{Kind: DiagWindowLimited, Component: comp, Detail: s.Detail})
	}
	for comp, s := range byKind[SymptomUnderutilized] {
		if _, bp := byKind[SymptomBackpressure][comp]; bp {
			continue
		}
		out = append(out, Diagnosis{Kind: DiagOverprovisioned, Component: comp, Detail: s.Detail})
	}
	return out
}
