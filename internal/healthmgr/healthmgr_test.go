package healthmgr

import (
	"fmt"
	"testing"
	"time"

	"heron/internal/core"
	"heron/internal/metrics"
)

// --- synthetic view/plan builders -----------------------------------------

// synthPlan lays out "word" (spout) and "count"/"fast" (bolts) tasks:
// container 1 hosts the spouts, containers 2.. deal the bolts.
func synthPlan(spouts, counts, fasts int) *core.PackingPlan {
	res := core.Resource{CPU: 1, RAMMB: 1024, DiskMB: 1024}
	var task int32
	add := func(c *core.ContainerPlan, comp string, idx int32) {
		c.Instances = append(c.Instances, core.InstancePlacement{
			ID:        core.InstanceID{Component: comp, ComponentIndex: idx, TaskID: task},
			Resources: res,
		})
		task++
	}
	c1 := core.ContainerPlan{ID: 1}
	for i := 0; i < spouts; i++ {
		add(&c1, "word", int32(i))
	}
	c2 := core.ContainerPlan{ID: 2}
	for i := 0; i < counts; i++ {
		add(&c2, "count", int32(i))
	}
	for i := 0; i < fasts; i++ {
		add(&c2, "fast", int32(i))
	}
	return &core.PackingPlan{Topology: "synth", Containers: []core.ContainerPlan{c1, c2}}
}

type viewBuilder struct{ v *metrics.TopologyView }

func newView(at time.Time) *viewBuilder {
	v := metrics.NewView()
	v.TakenAt = at
	return &viewBuilder{v}
}

func (b *viewBuilder) counter(name, comp string, task int32, val int64) *viewBuilder {
	b.v.Counters[metrics.ID{Name: name, Tags: metrics.Tags{Component: comp, Task: task}}] = val
	return b
}

func (b *viewBuilder) gauge(name, comp string, task int32, val int64) *viewBuilder {
	b.v.Gauges[metrics.ID{Name: name, Tags: metrics.Tags{Component: comp, Task: task}}] = val
	return b
}

func (b *viewBuilder) hist(name, comp string, task int32, count, sum int64) *viewBuilder {
	b.v.Histograms[metrics.ID{Name: name, Tags: metrics.Tags{Component: comp, Task: task}}] = metrics.HistogramSnapshot{Count: count, Sum: sum}
	return b
}

// synthViews produces n+1 cumulative views at 1s spacing; perTick sets
// each count task's per-window execute delta (index = component index of
// the 2 "count" tasks and 1 "fast" task appended last), bp flags whether
// container 2 asserts backpressure in that window, latNs the mean
// execute latency per count task.
type tickSpec struct {
	countDeltas []int64
	fastDelta   int64
	bp          bool
	latNs       int64
}

func synthSamples(t *testing.T, plan *core.PackingPlan, ticks []tickSpec) []*Sample {
	t.Helper()
	base := time.Unix(1000, 0)
	cum := map[string]int64{}
	var views []*metrics.TopologyView
	var bpTime int64
	spouts := 0
	for _, inst := range plan.Containers[0].Instances {
		if inst.ID.Component == "word" {
			spouts++
		}
	}
	// View 0: everything at zero.
	mk := func(at time.Time, bpActive bool) *viewBuilder {
		b := newView(at)
		task := int32(0)
		for i := 0; i < spouts; i++ {
			b.counter(metrics.MEmitCount, "word", task, cum[fmt.Sprintf("word%d", i)])
			task++
		}
		for i := range ticks[0].countDeltas {
			key := fmt.Sprintf("count%d", i)
			b.counter(metrics.MExecuteCount, "count", task, cum[key])
			b.counter(metrics.MEmitCount, "count", task, cum[key])
			b.hist(metrics.MExecuteLatency, "count", task, cum[key+"#n"], cum[key+"#sum"])
			task++
		}
		b.counter(metrics.MExecuteCount, "fast", task, cum["fast"])
		b.hist(metrics.MExecuteLatency, "fast", task, cum["fast#n"], cum["fast#sum"])
		active := int64(0)
		if bpActive {
			active = 1
		}
		b.gauge(metrics.MStmgrBPActive, metrics.StmgrComponent, 2, active)
		b.counter(metrics.MStmgrBPAssertedTime, metrics.StmgrComponent, 2, bpTime)
		return b
	}
	views = append(views, mk(base, false).v)
	for n, tick := range ticks {
		for i, d := range tick.countDeltas {
			key := fmt.Sprintf("count%d", i)
			cum[key] += d
			cum[key+"#n"] += d
			cum[key+"#sum"] += d * tick.latNs
		}
		cum["fast"] += tick.fastDelta
		cum["fast#n"] += tick.fastDelta
		cum["fast#sum"] += tick.fastDelta * 100_000 // fast bolt: 0.1ms
		for i := 0; i < spouts; i++ {
			cum[fmt.Sprintf("word%d", i)] += 100
		}
		views = append(views, mk(base.Add(time.Duration(n+1)*time.Second), tick.bp).v)
	}
	var samples []*Sample
	for i := 1; i < len(views); i++ {
		samples = append(samples, BuildSample(views[i], views[i-1], plan, views[i].TakenAt))
	}
	return samples
}

func repeat(n int, spec tickSpec) []tickSpec {
	out := make([]tickSpec, n)
	for i := range out {
		out[i] = spec
	}
	return out
}

// --- sensor ----------------------------------------------------------------

func TestSensorSampleShape(t *testing.T) {
	plan := synthPlan(2, 2, 1)
	samples := synthSamples(t, plan, repeat(1, tickSpec{
		countDeltas: []int64{500, 500}, fastDelta: 1000, bp: true, latNs: 2_000_000,
	}))
	s := samples[0]
	count := s.Components["count"]
	if count == nil || count.Spout {
		t.Fatalf("count stats = %+v", count)
	}
	if count.Parallelism != 2 || count.Delta() != 1000 {
		t.Errorf("parallelism=%d delta=%d", count.Parallelism, count.Delta())
	}
	if count.Rate < 900 || count.Rate > 1100 {
		t.Errorf("rate = %f, want ~1000/s", count.Rate)
	}
	if count.MeanLatencyNs < 1_900_000 || count.MeanLatencyNs > 2_100_000 {
		t.Errorf("mean latency = %f", count.MeanLatencyNs)
	}
	word := s.Components["word"]
	if word == nil || !word.Spout || word.Delta() != 200 {
		t.Fatalf("word stats = %+v", word)
	}
	if !s.Backpressure[2].Active || s.Backpressure[1].Active {
		t.Errorf("backpressure = %+v", s.Backpressure)
	}
}

func TestSensorWarmupAndStaleView(t *testing.T) {
	plan := synthPlan(1, 2, 0)
	var sensor ViewSensor
	at := time.Unix(2000, 0)
	v1 := newView(at).counter(metrics.MExecuteCount, "count", 1, 10).v
	if s := sensor.Sample(v1, plan, at); s != nil {
		t.Error("warmup tick produced a sample")
	}
	// Identical TakenAt → no fresh snapshots → no sample.
	if s := sensor.Sample(v1, plan, at.Add(time.Second)); s != nil {
		t.Error("stale view produced a sample")
	}
	v2 := newView(at.Add(time.Second)).counter(metrics.MExecuteCount, "count", 1, 30).v
	s := sensor.Sample(v2, plan, at.Add(2*time.Second))
	if s == nil || s.Components["count"].TaskDeltas[1] != 20 {
		t.Fatalf("sample = %+v", s)
	}
}

// TestSensorRateUsesSnapshotClock: the counters moved between the two
// views' snapshots, so a rate divides by the time between those, not by
// the time between the ticks that read them.
func TestSensorRateUsesSnapshotClock(t *testing.T) {
	plan := synthPlan(1, 1, 0)
	var sensor ViewSensor
	taken, tick := time.Unix(4000, 0), time.Unix(4000, 0)
	v1 := newView(taken).counter(metrics.MExecuteCount, "count", 1, 100).v
	v2 := newView(taken.Add(40*time.Millisecond)).counter(metrics.MExecuteCount, "count", 1, 500).v
	sensor.Sample(v1, plan, tick)
	s := sensor.Sample(v2, plan, tick.Add(50*time.Millisecond))
	if s == nil {
		t.Fatal("no sample")
	}
	if got, want := s.Components["count"].Rate, 400/0.040; got < want*0.999 || got > want*1.001 {
		t.Errorf("rate = %.0f/s, want %.0f/s (400 tuples over the 40 ms between snapshots)", got, want)
	}
}

func TestSensorClampsCounterReset(t *testing.T) {
	plan := synthPlan(1, 1, 0)
	at := time.Unix(3000, 0)
	prev := newView(at).counter(metrics.MExecuteCount, "count", 1, 5000).v
	cur := newView(at.Add(time.Second)).counter(metrics.MExecuteCount, "count", 1, 40).v // relaunched
	s := BuildSample(cur, prev, plan, at.Add(time.Second))
	if d := s.Components["count"].TaskDeltas[1]; d != 0 {
		t.Errorf("delta after reset = %d, want 0 (clamped)", d)
	}
}

// --- detectors --------------------------------------------------------------

func TestBackpressureDetectorTable(t *testing.T) {
	plan := synthPlan(2, 2, 1)
	busy := tickSpec{countDeltas: []int64{400, 400}, fastDelta: 2000, bp: true, latNs: 5_000_000}
	calm := busy
	calm.bp = false
	cases := []struct {
		name  string
		ticks []tickSpec
		want  int // symptoms
	}{
		{"sustained", repeat(4, busy), 1},
		{"flapping", []tickSpec{busy, calm, busy, calm}, 0},
		{"calm", repeat(4, calm), 0},
		{"too-short", repeat(2, busy), 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := detectBackpressure(synthSamples(t, plan, tc.ticks))
			if len(got) != tc.want {
				t.Fatalf("symptoms = %v, want %d", got, tc.want)
			}
			if tc.want == 1 {
				if got[0].Kind != SymptomBackpressure || got[0].Component != "count" {
					t.Errorf("symptom = %+v, want backpressure on slow bolt 'count'", got[0])
				}
			}
		})
	}
}

func TestSkewDetectorTable(t *testing.T) {
	plan := synthPlan(1, 4, 0)
	skewed := tickSpec{countDeltas: []int64{3000, 100, 100, 100}, latNs: 1_000_000}
	even := tickSpec{countDeltas: []int64{800, 800, 900, 800}, latNs: 1_000_000}
	cases := []struct {
		name  string
		ticks []tickSpec
		want  int
	}{
		{"sustained-skew", repeat(5, skewed), 1},
		{"flapping-skew", []tickSpec{skewed, even, skewed, even, skewed}, 0},
		{"balanced", repeat(5, even), 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := detectSkew(synthSamples(t, plan, tc.ticks))
			if len(got) != tc.want {
				t.Fatalf("symptoms = %v, want %d", got, tc.want)
			}
			if tc.want == 1 && (got[0].Kind != SymptomSkew || got[0].Component != "count") {
				t.Errorf("symptom = %+v", got[0])
			}
		})
	}
}

func TestUnderutilizationDetectorTable(t *testing.T) {
	plan := synthPlan(1, 2, 0)
	// 20 tuples/s at 1ms each over 2 tasks → busy ≈ 0.01.
	idle := tickSpec{countDeltas: []int64{10, 10}, latNs: 1_000_000}
	bpTick := idle
	bpTick.bp = true
	// 2000 tuples/s at 1ms each over 2 tasks → busy ≈ 1.0.
	busy := tickSpec{countDeltas: []int64{1000, 1000}, latNs: 1_000_000}
	cases := []struct {
		name  string
		ticks []tickSpec
		want  int
	}{
		{"sustained-idle", repeat(12, idle), 1},
		{"bp-in-window", append(repeat(11, idle), bpTick), 0},
		{"busy", repeat(12, busy), 0},
		{"too-short", repeat(6, idle), 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := detectUnderutilization(synthSamples(t, plan, tc.ticks))
			if len(got) != tc.want {
				t.Fatalf("symptoms = %v, want %d", got, tc.want)
			}
			if tc.want == 1 && (got[0].Kind != SymptomUnderutilized || got[0].Component != "count") {
				t.Errorf("symptom = %+v", got[0])
			}
		})
	}
}

func TestWindowLimitDetectorTable(t *testing.T) {
	// sample: the spout holds pending tuples at window w; bp marks a
	// container asserting backpressure.
	sample := func(w int, pending int64, bp bool) *Sample {
		return &Sample{
			Window:       w,
			Components:   map[string]*ComponentStats{"word": {Spout: true, Pending: pending}, "count": {Pending: 0}},
			Backpressure: map[int32]ContainerBP{1: {Active: bp}},
		}
	}
	full := sample(8, 8, false)
	cases := []struct {
		name    string
		history []*Sample
		want    int
	}{
		{"sustained-full", []*Sample{full, full, full}, 1},
		{"bp-in-window", []*Sample{full, sample(8, 8, true), full}, 0},
		{"not-full", []*Sample{full, sample(8, 7, false), full}, 0},
		{"unbounded", []*Sample{sample(0, 8, false), sample(0, 8, false), sample(0, 8, false)}, 0},
		{"too-short", []*Sample{full, full}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := detectWindowLimit(tc.history)
			if len(got) != tc.want {
				t.Fatalf("symptoms = %v, want %d", got, tc.want)
			}
			if tc.want == 1 && (got[0].Kind != SymptomWindowLimited || got[0].Component != "word") {
				t.Errorf("symptom = %+v", got[0])
			}
		})
	}
}

// --- diagnoser --------------------------------------------------------------

func TestResourceDiagnoser(t *testing.T) {
	cases := []struct {
		name     string
		symptoms []Symptom
		want     []DiagnosisKind
	}{
		{"bp-alone", []Symptom{{Kind: SymptomBackpressure, Component: "count"}},
			[]DiagnosisKind{DiagUnderprovisioned}},
		{"bp-plus-skew", []Symptom{
			{Kind: SymptomBackpressure, Component: "count"},
			{Kind: SymptomSkew, Component: "count"}},
			[]DiagnosisKind{DiagSlowInstance}},
		{"skew-alone", []Symptom{{Kind: SymptomSkew, Component: "count"}}, nil},
		{"idle", []Symptom{{Kind: SymptomUnderutilized, Component: "count"}},
			[]DiagnosisKind{DiagOverprovisioned}},
		{"none", nil, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := diagnose(tc.symptoms)
			if len(got) != len(tc.want) {
				t.Fatalf("diagnoses = %v, want kinds %v", got, tc.want)
			}
			for i, d := range got {
				if d.Kind != tc.want[i] {
					t.Errorf("diagnosis[%d] = %s, want %s", i, d.Kind, tc.want[i])
				}
			}
		})
	}
}

// --- manager: cooldown and escalation ---------------------------------------

type fakeTopo struct {
	views  []*metrics.TopologyView
	idx    int
	plan   *core.PackingPlan
	window int // the live max-spout-pending window

	scaleCalls   []int
	pendingCalls []int
	restarts     []int32
}

func (f *fakeTopo) Name() string { return "synth" }
func (f *fakeTopo) Metrics() *metrics.TopologyView {
	if f.idx < len(f.views) {
		v := f.views[f.idx]
		f.idx++
		return v
	}
	return f.views[len(f.views)-1]
}
func (f *fakeTopo) PackingPlan() (*core.PackingPlan, error) { return f.plan, nil }
func (f *fakeTopo) ScaleComponent(component string, parallelism int) error {
	f.scaleCalls = append(f.scaleCalls, parallelism)
	return nil
}
func (f *fakeTopo) MaxSpoutPending() (int, error) { return f.window, nil }
func (f *fakeTopo) SetMaxSpoutPending(n int) error {
	f.pendingCalls = append(f.pendingCalls, n)
	f.window = n
	return nil
}
func (f *fakeTopo) Restart(containerID int32) error {
	f.restarts = append(f.restarts, containerID)
	return nil
}

// bpViews builds cumulative views with constant backpressure so the
// detector fires as soon as its window fills.
func bpViews(n int, plan *core.PackingPlan) []*metrics.TopologyView {
	base := time.Unix(5000, 0)
	out := make([]*metrics.TopologyView, n)
	for i := 0; i < n; i++ {
		b := newView(base.Add(time.Duration(i) * time.Second))
		b.counter(metrics.MEmitCount, "word", 0, int64(i)*100)
		b.counter(metrics.MExecuteCount, "count", 1, int64(i)*50)
		b.counter(metrics.MEmitCount, "count", 1, int64(i)*50)
		b.counter(metrics.MExecuteCount, "count", 2, int64(i)*50)
		b.counter(metrics.MEmitCount, "count", 2, int64(i)*50)
		b.hist(metrics.MExecuteLatency, "count", 1, int64(i)*50, int64(i)*50*5_000_000)
		b.gauge(metrics.MStmgrBPActive, metrics.StmgrComponent, 2, 1)
		out[i] = b.v
	}
	return out
}

func TestManagerCooldownAndEscalation(t *testing.T) {
	plan := synthPlan(1, 2, 0)
	ft := &fakeTopo{views: bpViews(40, plan), plan: plan, window: 1024}
	m, err := New(Options{
		Topology:      ft,
		Policy:        "autoscale",
		Interval:      time.Second,
		AckingEnabled: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	base := time.Unix(5000, 0)
	// Drive ticks manually with a synthetic clock: the loop is pure in
	// tick(now).
	for i := 1; i <= 5; i++ {
		m.tick(base.Add(time.Duration(i) * time.Second))
	}
	// Tick 1 = warmup; ticks 2-3 fill the 3-sample sustain window; tick 4
	// fires.
	if len(ft.pendingCalls) != 1 || ft.pendingCalls[0] != 512 {
		t.Fatalf("pending calls = %v, want [512] (cheapest resolver first)", ft.pendingCalls)
	}
	if len(ft.scaleCalls) != 0 {
		t.Fatalf("scale calls = %v before cooldown expiry", ft.scaleCalls)
	}
	// Within the 8 s cooldown (8 ticks of 1 s): more bp ticks, no further
	// actions.
	for i := 6; i <= 8; i++ {
		m.tick(base.Add(time.Duration(i) * time.Second))
	}
	if got := len(ft.pendingCalls) + len(ft.scaleCalls); got != 1 {
		t.Fatalf("actions during cooldown: pending=%v scale=%v", ft.pendingCalls, ft.scaleCalls)
	}
	// The cooldown ends at tick 12: the diagnosis persists → escalate to
	// scale-up.
	for i := 9; i <= 12; i++ {
		m.tick(base.Add(time.Duration(i) * time.Second))
	}
	if len(ft.scaleCalls) != 1 || ft.scaleCalls[0] != 3 {
		t.Fatalf("scale calls = %v, want [3] (2 + max(1, 2/2))", ft.scaleCalls)
	}
	st := m.Status()
	if len(st.Actions) != 2 {
		t.Fatalf("status actions = %+v", st.Actions)
	}
	if st.Actions[0].Resolver != "spout-pending-retune" || st.Actions[1].Resolver != "scale-up" {
		t.Errorf("escalation order = %s, %s", st.Actions[0].Resolver, st.Actions[1].Resolver)
	}
	if m.MetricsSnapshot().Counters == nil {
		t.Error("no health metrics exported")
	}
}

// TestSpoutPendingResolverHalvesLiveWindow: under sustained backpressure
// the resolver halves the window the topology runs at, not a configured
// or remembered one.
func TestSpoutPendingResolverHalvesLiveWindow(t *testing.T) {
	plan := synthPlan(1, 2, 0)
	ft := &fakeTopo{views: bpViews(10, plan), plan: plan, window: 100}
	m, err := New(Options{Topology: ft, Policy: "tune-only", Interval: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	base := time.Unix(5000, 0)
	for i := 1; i <= 5; i++ {
		m.tick(base.Add(time.Duration(i) * time.Second))
	}
	if len(ft.pendingCalls) != 1 || ft.pendingCalls[0] != 50 {
		t.Fatalf("pending calls = %v, want [50] (half the live window 100)", ft.pendingCalls)
	}
}

// TestSpoutPendingResolverBounds: backpressure halves no window below
// backpressureFloor and bounds an unbounded one at half of defaultWindow;
// a growth that did not pay halves the window past the floor.
func TestSpoutPendingResolverBounds(t *testing.T) {
	bp := Diagnosis{Kind: DiagUnderprovisioned, Component: "count"}
	ft := &fakeTopo{window: 2*backpressureFloor - 1}
	if _, err := (&SpoutPendingResolver{}).Resolve(bp, ft, &Sample{}); err == nil || len(ft.pendingCalls) != 0 {
		t.Errorf("window %d: err = %v, calls = %v; want an error and no retune", 2*backpressureFloor-1, err, ft.pendingCalls)
	}
	ft = &fakeTopo{window: 0}
	if _, err := (&SpoutPendingResolver{}).Resolve(bp, ft, &Sample{}); err != nil || ft.window != defaultWindow/2 {
		t.Errorf("unbounded: err = %v, window = %d; want %d", err, ft.window, defaultWindow/2)
	}
	wl := Diagnosis{Kind: DiagWindowLimited, Component: "word"}
	ft = &fakeTopo{window: 4}
	r := &SpoutPendingResolver{}
	for _, rate := range []float64{1000, 1000} {
		if _, err := r.Resolve(wl, ft, &Sample{WindowAckRate: rate}); err != nil {
			t.Fatal(err)
		}
	}
	if want := []int{6, 3}; fmt.Sprint(ft.pendingCalls) != fmt.Sprint(want) {
		t.Errorf("window-limited at 4, no gain: calls = %v, want %v", ft.pendingCalls, want)
	}
}

// kneeTopo is a synthetic pipeline with a throughput knee at window 100:
// its spout always holds a full window, nothing backpressures, and the
// spout's acked rate is min(100 × window, 10 000) per second.
type kneeTopo struct {
	fakeTopo
	at    time.Time
	acked int64
}

func (k *kneeTopo) Metrics() *metrics.TopologyView {
	k.at = k.at.Add(time.Second)
	k.acked += min(100*int64(k.window), 10_000)
	return newView(k.at).
		counter(metrics.MEmitCount, "word", 0, k.acked).
		counter(metrics.MAckCount, "word", 0, k.acked).
		gauge(metrics.MSpoutPending, "word", 0, int64(k.window)).
		gauge(metrics.MStmgrBPActive, metrics.StmgrComponent, 2, 0).v
}

// TestSpoutPendingResolverConvergesNearKnee: starting far below the knee,
// the tune-only policy grows the window while growth raises the acked
// rate and backs off once it does not, so the window ends near the knee
// and the action log shows both directions.
func TestSpoutPendingResolverConvergesNearKnee(t *testing.T) {
	k := &kneeTopo{fakeTopo: fakeTopo{plan: synthPlan(1, 2, 0), window: 10}, at: time.Unix(7000, 0)}
	m, err := New(Options{Topology: k, Policy: "tune-only", Interval: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	base := time.Unix(7000, 0)
	for i := 1; i <= 200; i++ {
		m.tick(base.Add(time.Duration(i) * time.Second))
	}
	t.Logf("windows set: %v", k.pendingCalls)
	if k.window < 50 || k.window > 200 {
		t.Errorf("window = %d, want within [50, 200] around the knee at 100", k.window)
	}
	var grew, backedOff bool
	for _, a := range m.Status().Actions {
		var from, to int
		if _, err := fmt.Sscanf(a.Detail, "max-spout-pending %d → %d", &from, &to); err != nil {
			t.Fatalf("action %+v: %v", a, err)
		}
		grew = grew || to > from
		backedOff = backedOff || to < from
	}
	if !grew || !backedOff {
		t.Errorf("actions grew=%v backed off=%v, want both: %+v", grew, backedOff, m.Status().Actions)
	}
}

func TestManagerObservePolicyNeverActs(t *testing.T) {
	plan := synthPlan(1, 2, 0)
	ft := &fakeTopo{views: bpViews(40, plan), plan: plan}
	m, err := New(Options{Topology: ft, Policy: "observe", Interval: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	base := time.Unix(5000, 0)
	for i := 1; i <= 20; i++ {
		m.tick(base.Add(time.Duration(i) * time.Second))
	}
	if len(ft.pendingCalls)+len(ft.scaleCalls)+len(ft.restarts) != 0 {
		t.Fatalf("observe policy acted: %v %v %v", ft.pendingCalls, ft.scaleCalls, ft.restarts)
	}
	st := m.Status()
	if len(st.Symptoms) == 0 || len(st.Diagnoses) == 0 {
		t.Errorf("observe policy should still diagnose: %+v", st)
	}
}

func TestUnknownPolicyRejected(t *testing.T) {
	_, err := New(Options{Topology: &fakeTopo{plan: synthPlan(1, 1, 0)}, Policy: "nope", Interval: time.Second})
	if err == nil {
		t.Fatal("unknown policy accepted")
	}
	if KnownPolicy("nope") {
		t.Error("KnownPolicy(nope)")
	}
	for _, p := range []string{"", "autoscale", "tune-only", "observe"} {
		if !KnownPolicy(p) {
			t.Errorf("KnownPolicy(%q) = false", p)
		}
	}
}
