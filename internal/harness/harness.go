// Package harness runs the paper's experiments: it deploys a workload on
// the Heron engine or the Storm baseline, lets it warm up, measures a
// steady-state window, and reports the paper's metrics — throughput in
// million tuples/min, throughput per provisioned CPU core, and end-to-end
// (complete) latency.
//
// Every figure of the evaluation section has a driver here; the
// bench_test.go at the repository root and cmd/heron-bench call them.
package harness

import (
	"fmt"
	"time"

	heron "heron"
	"heron/internal/core"
	"heron/internal/metrics"
	"heron/internal/storm"
	"heron/internal/workloads"
)

// WCOptions parameterize one WordCount measurement.
type WCOptions struct {
	// Parallelism is the spout count and the bolt count (the paper always
	// uses equal spout/bolt parallelism).
	Parallelism int
	Acks        bool
	// Optimized selects the Section V-A Stream Manager fast paths (Heron
	// engine only).
	Optimized bool
	// MaxSpoutPending bounds un-acked tuples per spout (0 = engine
	// default of 1000 when acking).
	MaxSpoutPending int
	// CacheDrain overrides the Stream Manager drain period (0 = default).
	CacheDrain time.Duration
	// CacheMaxBatch overrides the size-based flush threshold (0 = default);
	// the drain-frequency sweeps raise it so the timer governs batching.
	CacheMaxBatch int
	// InstanceBatch overrides the instance-side output batch size
	// (0 = default, 1 = per-tuple; ablation knob).
	InstanceBatch int
	// CodecOverride forces a codec regardless of Optimized ("" = derive
	// from Optimized; ablation knob isolating serialization from routing
	// and batching).
	CodecOverride string
	// Containers for the Heron run / workers for the Storm run
	// (0 = parallelism/25+2, the paper's machine-count scaling).
	Containers int
	Warmup     time.Duration
	Measure    time.Duration
	// DictSize shrinks the 450K dictionary for fast runs (0 = full size).
	DictSize int
}

func (o *WCOptions) defaults() {
	if o.Containers <= 0 {
		o.Containers = o.Parallelism/25 + 2
	}
	if o.Warmup <= 0 {
		o.Warmup = 500 * time.Millisecond
	}
	if o.Measure <= 0 {
		o.Measure = 2 * time.Second
	}
	if o.DictSize <= 0 {
		o.DictSize = workloads.DictionarySize
	}
	if o.Acks && o.MaxSpoutPending <= 0 {
		o.MaxSpoutPending = 1000
	}
}

// Result is one measured run.
type Result struct {
	Engine      string
	Parallelism int
	Acks        bool
	Optimized   bool

	Window time.Duration
	Tuples int64 // tuples counted at the bolts during the window
	// ThroughputMTPM is million tuples/min, the paper's throughput unit.
	ThroughputMTPM float64
	// PerCoreMTPM is million tuples/min per provisioned CPU core (Figs 6, 8).
	PerCoreMTPM float64
	// Latency percentiles in milliseconds (acked runs only).
	LatencyMeanMs float64
	LatencyP50Ms  float64
	LatencyP99Ms  float64
	// Cores provisioned (packing-plan asks for Heron).
	Cores float64
}

func (r Result) String() string {
	s := fmt.Sprintf("%-6s par=%-4d acks=%-5v tput=%8.1f Mtuples/min", r.Engine, r.Parallelism, r.Acks, r.ThroughputMTPM)
	if r.Acks {
		s += fmt.Sprintf("  lat(mean/p50/p99)=%.2f/%.2f/%.2f ms", r.LatencyMeanMs, r.LatencyP50Ms, r.LatencyP99Ms)
	}
	return s
}

// mtpm converts a tuple count over a window into million tuples/min.
func mtpm(tuples int64, window time.Duration) float64 {
	if window <= 0 {
		return 0
	}
	perMin := float64(tuples) / window.Minutes()
	return perMin / 1e6
}

// latencyMs merges every task's latency snapshot into one histogram and
// reads the mean, p50 and p99 (in ms) from it, so the figures are the
// topology's own quantiles.
func latencyMs(snaps []metrics.HistogramSnapshot) (mean, p50, p99 float64) {
	var all metrics.HistogramSnapshot
	for _, s := range snaps {
		all.Merge(s)
	}
	return all.Mean() / 1e6, float64(all.Quantile(0.5)) / 1e6, float64(all.Quantile(0.99)) / 1e6
}

// RunHeronWordCount measures WordCount on the Heron engine.
func RunHeronWordCount(o WCOptions) (Result, error) {
	o.defaults()
	spec, stats, err := workloads.BuildWordCount(workloads.WordCountOptions{
		Name:     "wc-bench",
		Spouts:   o.Parallelism,
		Bolts:    o.Parallelism,
		DictSize: o.DictSize,
		Reliable: o.Acks,
	})
	if err != nil {
		return Result{}, err
	}
	cfg := heron.NewConfig()
	cfg.NumContainers = o.Containers
	cfg.AckingEnabled = o.Acks
	cfg.MaxSpoutPending = o.MaxSpoutPending
	if !o.Acks {
		cfg.MaxSpoutPending = 0
	}
	if o.CacheDrain > 0 {
		cfg.CacheDrainFrequency = o.CacheDrain
	}
	if o.CacheMaxBatch > 0 {
		cfg.CacheMaxBatchTuples = o.CacheMaxBatch
	}
	if o.InstanceBatch > 0 {
		cfg.InstanceBatchTuples = o.InstanceBatch
	}
	cfg.StreamManagerOptimized = o.Optimized
	if o.Optimized {
		cfg.Codec = "fast"
	} else {
		cfg.Codec = "naive"
	}
	if o.CodecOverride != "" {
		cfg.Codec = o.CodecOverride
	}

	h, err := heron.Submit(spec, cfg)
	if err != nil {
		return Result{}, err
	}
	defer h.Kill()
	if err := h.WaitRunning(30 * time.Second); err != nil {
		return Result{}, err
	}
	time.Sleep(o.Warmup)
	start := stats.Executed.Load()
	t0 := time.Now()
	time.Sleep(o.Measure)
	window := time.Since(t0)
	processed := stats.Executed.Load() - start

	res := Result{
		Engine: "heron", Parallelism: o.Parallelism, Acks: o.Acks, Optimized: o.Optimized,
		Window: window, Tuples: processed,
		ThroughputMTPM: mtpm(processed, window),
	}
	if plan, err := h.PackingPlan(); err == nil {
		for i := range plan.Containers {
			res.Cores += plan.Containers[i].Required.CPU
		}
		res.Cores += core.DefaultTMasterResources.CPU
	}
	if res.Cores > 0 {
		res.PerCoreMTPM = res.ThroughputMTPM / res.Cores
	}
	if o.Acks {
		res.LatencyMeanMs, res.LatencyP50Ms, res.LatencyP99Ms =
			latencyMs(h.LatencySnapshots(metrics.MCompleteLatency))
	}
	return res, nil
}

// RunStormWordCount measures WordCount on the Storm baseline.
func RunStormWordCount(o WCOptions) (Result, error) {
	o.defaults()
	spec, stats, err := workloads.BuildWordCount(workloads.WordCountOptions{
		Name:     "wc-storm",
		Spouts:   o.Parallelism,
		Bolts:    o.Parallelism,
		DictSize: o.DictSize,
		Reliable: o.Acks,
	})
	if err != nil {
		return Result{}, err
	}
	cfg := storm.NewConfig()
	cfg.Workers = o.Containers
	cfg.AckingEnabled = o.Acks
	cfg.MaxSpoutPending = o.MaxSpoutPending
	if !o.Acks {
		cfg.MaxSpoutPending = 0
	}
	c, err := storm.Run(spec, cfg)
	if err != nil {
		return Result{}, err
	}
	defer c.Stop()
	time.Sleep(o.Warmup)
	start := stats.Executed.Load()
	t0 := time.Now()
	time.Sleep(o.Measure)
	window := time.Since(t0)
	processed := stats.Executed.Load() - start

	res := Result{
		Engine: "storm", Parallelism: o.Parallelism, Acks: o.Acks,
		Window: window, Tuples: processed,
		ThroughputMTPM: mtpm(processed, window),
	}
	// Storm provisions one slot per task plus per-worker overheads; used
	// only for symmetric per-core comparisons.
	res.Cores = float64(2*o.Parallelism) + float64(cfg.Workers)
	if res.Cores > 0 {
		res.PerCoreMTPM = res.ThroughputMTPM / res.Cores
	}
	if o.Acks {
		res.LatencyMeanMs, res.LatencyP50Ms, res.LatencyP99Ms = latencyMs(
			[]metrics.HistogramSnapshot{c.Latency()})
	}
	return res, nil
}

// Table is a printable figure reproduction.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	// Note records the expected shape from the paper.
	Note string
}

// Format renders the table as aligned text.
func (t *Table) Format() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, cell := range r {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	out := t.Title + "\n"
	line := ""
	for i, c := range t.Columns {
		line += pad(c, widths[i]) + "  "
	}
	out += line + "\n"
	for _, r := range t.Rows {
		line = ""
		for i, cell := range r {
			line += pad(cell, widths[i]) + "  "
		}
		out += line + "\n"
	}
	if t.Note != "" {
		out += "note: " + t.Note + "\n"
	}
	return out
}

func pad(s string, w int) string {
	for len(s) < w {
		s += " "
	}
	return s
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// provisionedCores is a helper for consistency checks in tests.
func provisionedCores(plan *core.PackingPlan) float64 {
	var c float64
	for i := range plan.Containers {
		c += plan.Containers[i].Required.CPU
	}
	return c
}
