package harness

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	heron "heron"
	"heron/internal/extsvc/kafkasim"
	"heron/internal/extsvc/redissim"
	"heron/internal/workloads"
)

// ETLOptions parameterize the Figure 14 experiment.
type ETLOptions struct {
	Partitions      int
	EventsPerPart   int
	Spouts          int
	Filters         int
	Aggregators     int
	Containers      int
	Warmup, Measure time.Duration
}

func (o *ETLOptions) defaults() {
	if o.Partitions <= 0 {
		o.Partitions = 8
	}
	if o.EventsPerPart <= 0 {
		o.EventsPerPart = 100_000
	}
	if o.Spouts <= 0 {
		o.Spouts = 2
	}
	if o.Filters <= 0 {
		o.Filters = 2
	}
	if o.Aggregators <= 0 {
		o.Aggregators = 2
	}
	if o.Containers <= 0 {
		o.Containers = 3
	}
	if o.Warmup <= 0 {
		o.Warmup = 500 * time.Millisecond
	}
	if o.Measure <= 0 {
		o.Measure = 3 * time.Second
	}
}

// ETLResult is the Figure 14 breakdown.
type ETLResult struct {
	FetchPct float64 // reading from Kafka
	UserPct  float64 // filter + aggregation logic
	HeronPct float64 // engine overhead (transfers, serde, metrics)
	WritePct float64 // writing to Redis
	// EventsPerMin is the measured ingest rate (paper: 60-100M events/min).
	EventsPerMin float64
	// RedisKeys sanity-checks that aggregates actually landed.
	RedisKeys int
}

// processCPU reads this process's user+system CPU time from
// /proc/self/stat (fields 14 and 15, in clock ticks; Linux's USER_HZ is
// 100 on all supported configurations).
func processCPU() (time.Duration, error) {
	b, err := os.ReadFile("/proc/self/stat")
	if err != nil {
		return 0, err
	}
	// comm can contain spaces; skip past the closing paren.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("harness: malformed /proc/self/stat")
	}
	fields := strings.Fields(s[i+1:])
	// fields[0] is state; utime is fields[11], stime fields[12]
	// (stat fields 14 and 15, minus pid/comm/state offset).
	if len(fields) < 13 {
		return 0, fmt.Errorf("harness: short /proc/self/stat")
	}
	utime, err := strconv.ParseInt(fields[11], 10, 64)
	if err != nil {
		return 0, err
	}
	stime, err := strconv.ParseInt(fields[12], 10, 64)
	if err != nil {
		return 0, err
	}
	const userHZ = 100
	return time.Duration(utime+stime) * time.Second / userHZ, nil
}

// RunETL reproduces Figure 14: the Kafka → filter → aggregate → Redis
// topology is run at steady state while per-category busy time and total
// process CPU are measured; the engine's share is the remainder.
// Expected shape: fetching ≫ user logic > Heron usage > writing
// (paper: 60 / 21 / 11 / 8 %).
//
// Like the paper's deployment, the measured run is input-bound: a short
// unthrottled calibration pass finds the host's capacity, then the
// measured pass ingests at roughly half that rate (the paper's 60–100M
// events/min was far below Heron's capacity on its hardware). Running
// below saturation also keeps the wall-clock category timers honest on a
// time-sliced host.
func RunETL(o ETLOptions) (ETLResult, error) {
	o.defaults()
	// Calibration pass: measure unthrottled ingest capacity.
	calib := o
	calib.Warmup = 300 * time.Millisecond
	calib.Measure = 700 * time.Millisecond
	capacity, err := runETLOnce(calib, 0)
	if err != nil {
		return ETLResult{}, err
	}
	perSpout := capacity.EventsPerMin / 60 / float64(o.Spouts) * 0.5
	if perSpout < 1 {
		perSpout = 1
	}
	return runETLOnce(o, perSpout)
}

// runETLOnce performs one deploy-warmup-measure cycle.
func runETLOnce(o ETLOptions, ratePerSpout float64) (ETLResult, error) {
	broker := kafkasim.NewBroker(o.Partitions)
	eventTypes := []string{"click", "view", "scroll", "hover"}
	broker.Preload(o.EventsPerPart, func(part, i int) ([]byte, []byte) {
		et := eventTypes[i%len(eventTypes)]
		return []byte(fmt.Sprintf("k%d", i)), workloads.EventValue(i%10_000, et, int64(i%500))
	})
	redis := redissim.NewServer(8)

	spec, timers, err := workloads.BuildETL(workloads.ETLOptions{
		Name:   "etl-bench",
		Broker: broker, Redis: redis,
		Spouts: o.Spouts, Filters: o.Filters, Aggregators: o.Aggregators,
		RatePerSpout: ratePerSpout,
	})
	if err != nil {
		return ETLResult{}, err
	}
	cfg := heron.NewConfig()
	cfg.NumContainers = o.Containers

	h, err := heron.Submit(spec, cfg)
	if err != nil {
		return ETLResult{}, err
	}
	defer h.Kill()
	if err := h.WaitRunning(30 * time.Second); err != nil {
		return ETLResult{}, err
	}
	time.Sleep(o.Warmup)

	cpu0, err := processCPU()
	if err != nil {
		return ETLResult{}, err
	}
	f0, u0, w0 := timers.FetchNs.Load(), timers.UserNs.Load(), timers.WriteNs.Load()
	e0 := timers.Events.Load()
	t0 := time.Now()
	time.Sleep(o.Measure)
	window := time.Since(t0)
	cpu1, err := processCPU()
	if err != nil {
		return ETLResult{}, err
	}
	fetch := time.Duration(timers.FetchNs.Load() - f0)
	user := time.Duration(timers.UserNs.Load() - u0)
	write := time.Duration(timers.WriteNs.Load() - w0)
	events := timers.Events.Load() - e0

	total := cpu1 - cpu0
	engine := total - fetch - user - write
	if engine < 0 {
		engine = 0
	}
	sum := fetch + user + write + engine
	if sum <= 0 {
		return ETLResult{}, fmt.Errorf("harness: no CPU consumed in window")
	}
	pct := func(d time.Duration) float64 { return 100 * float64(d) / float64(sum) }
	return ETLResult{
		FetchPct:     pct(fetch),
		UserPct:      pct(user),
		HeronPct:     pct(engine),
		WritePct:     pct(write),
		EventsPerMin: float64(events) / window.Minutes(),
		RedisKeys:    redis.Keys(),
	}, nil
}

// Fig14 formats the ETL breakdown as a table.
func Fig14(o ETLOptions) (*Table, error) {
	r, err := RunETL(o)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Figure 14: Resource consumption breakdown",
		Columns: []string{"category", "measured %", "paper %"},
		Note: fmt.Sprintf("ingest rate %.1f M events/min; %d aggregate keys in Redis",
			r.EventsPerMin/1e6, r.RedisKeys),
	}
	t.Rows = [][]string{
		{"Fetching data (Kafka)", f1(r.FetchPct), "60"},
		{"User logic", f1(r.UserPct), "21"},
		{"Heron usage", f1(r.HeronPct), "11"},
		{"Writing data (Redis)", f1(r.WritePct), "8"},
	}
	return t, nil
}
