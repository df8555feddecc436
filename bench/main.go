// Command bench is the repository's end-to-end benchmark: four workloads
// on the real engine (heron.Submit → Handle.Kill), four end-to-end metrics
// each, every output audited against a single-threaded reference, and —
// with -trace 1 — a per-layer breakdown measured from outside the engine.
// See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// e2eMetrics is every end-to-end metric with its unit, in print order.
// CPU per tuple and the latency tail are per-layer metrics (trace.go):
// neither repeats from run to run within a bound worth gating on.
var e2eMetrics = []struct{ name, unit string }{
	{"throughput_tps", "1/s"},
	{"latency_p50_ms", "ms"},
	{"alloc_b_per_tuple", "B"},
	{"setup_s", "s"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a single-workload run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	workloadName := flag.String("workload", "", "run one repetition of this workload and end with one JSON result line (default: the full protocol)")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measured window per repetition, in seconds")
	trace := flag.Int("trace", 0, "1: traced run that reports the per-layer metrics instead of the end-to-end ones")
	selfcheck := flag.Bool("selfcheck", false, "run the full protocol twice and print each metric's relative difference beside its bound")
	tmp := flag.String("tmp", "", "directory for the CPU profile (default: the executable's directory)")
	flag.Parse()

	if *tmp == "" {
		exe, err := os.Executable()
		if err != nil {
			fatal(err)
		}
		*tmp = filepath.Dir(exe)
	}
	if *seconds < 1 {
		fatal(fmt.Errorf("-seconds %d: need at least 1", *seconds))
	}
	fmt.Printf("heron bench: nproc=%d GOMAXPROCS=%d %s seed=%d seconds=%d trace=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), *seed, *seconds, *trace)

	var err error
	switch {
	case *workloadName != "":
		err = runOne(*workloadName, *seed, *seconds, *trace != 0, *tmp)
	case *selfcheck:
		err = runSelfcheck(*seed, *seconds)
	default:
		_, err = runProtocol(*seed, *seconds, *trace != 0, *tmp)
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// repetition runs one repetition and prints its human-readable lines.
func repetition(w *workload, seed int64, seconds int, traced bool, tmp string) (*outcome, error) {
	fmt.Printf("%s seed=%d\n", w.name, seed)
	goroutines := runtime.NumGoroutine()
	var o *outcome
	var err error
	if traced {
		o, err = runTraced(w, seed, seconds, tmp, goroutines)
	} else {
		o, err = runUntraced(w, seed, seconds)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	fmt.Printf("  attempted=%d delivered=%d failed=%d audit=%s reference=%.0f tuples/s single-threaded\n",
		o.attempted, o.delivered, o.failed, auditWord(o.auditErr), o.ref.tps())
	return o, nil
}

func auditWord(err error) string {
	if err == nil {
		return "ok"
	}
	return "FAILED: " + err.Error()
}

// runOne is the single-workload mode: one repetition, and as the last
// line of standard output the result as one JSON object.
func runOne(name string, seed int64, seconds int, traced bool, tmp string) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	o, err := repetition(w, seed, seconds, traced, tmp)
	if err != nil {
		return err
	}
	res := result{Correct: o.auditErr == nil, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	if traced {
		printLayers(o.layers)
		for _, m := range layerMetrics {
			res.Metrics[m.name] = metricValue{clean(o.layers[m.name]), m.unit}
		}
	} else {
		for _, m := range e2eMetrics {
			fmt.Printf("  %-18s %14.4f %s\n", m.name, o.e2e[m.name], m.unit)
			res.Metrics[m.name] = metricValue{clean(o.e2e[m.name]), m.unit}
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if o.auditErr != nil {
		return fmt.Errorf("%s: output audit: %w", name, o.auditErr)
	}
	return nil
}

// clean maps the values JSON cannot carry to 0.
func clean(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// protocolResult is the full protocol's output: per workload and metric,
// the median over the repetitions.
type protocolResult map[string]map[string]float64

// protocolReps is the number of repetitions of every workload in the full
// protocol; a traced protocol run makes one.
const protocolReps = 3

// runProtocol is the default mode: protocolReps repetitions of every
// workload, interleaved (A B C D, A B C D, ...) with seed+rep, because the
// speed of a shared machine drifts over tens of seconds and a median over
// time-separated repetitions is what repeats.
func runProtocol(seed int64, seconds int, traced bool, tmp string) (protocolResult, error) {
	reps := protocolReps
	if traced {
		reps = 1
	}
	values := map[string]map[string][]float64{}
	var failed int64
	for rep := 0; rep < reps; rep++ {
		for _, w := range allWorkloads {
			o, err := repetition(w, seed+int64(rep), seconds, traced, tmp)
			if err != nil {
				return nil, err
			}
			if o.auditErr != nil {
				return nil, fmt.Errorf("%s: output audit: %w", w.name, o.auditErr)
			}
			failed += o.failed
			src := o.e2e
			if traced {
				src = o.layers
			}
			if values[w.name] == nil {
				values[w.name] = map[string][]float64{}
			}
			for k, v := range src {
				values[w.name][k] = append(values[w.name][k], v)
			}
		}
	}
	out := protocolResult{}
	for _, w := range allWorkloads {
		out[w.name] = map[string]float64{}
		for k, vs := range values[w.name] {
			out[w.name][k] = median(vs)
		}
	}
	if traced {
		for _, w := range allWorkloads {
			fmt.Printf("\n%s per-layer metrics\n", w.name)
			printLayers(out[w.name])
		}
		return out, nil
	}
	fmt.Printf("\nmedian of %d repetitions of %d s, failed tuples: %d\n", reps, seconds, failed)
	fmt.Printf("%-18s", "metric")
	for _, w := range allWorkloads {
		fmt.Printf(" %14s", w.name)
	}
	fmt.Println()
	for _, m := range e2eMetrics {
		fmt.Printf("%-18s", m.name+" ("+m.unit+")")
		for _, w := range allWorkloads {
			fmt.Printf(" %14.4f", out[w.name][m.name])
		}
		fmt.Println()
	}
	return out, nil
}

// runSelfcheck runs the whole protocol twice and prints, per workload and
// metric, how far the two disagree beside the bound from BENCHMARK.json.
func runSelfcheck(seed int64, seconds int) error {
	bounds, err := readBounds()
	if err != nil {
		return err
	}
	a, err := runProtocol(seed, seconds, false, "")
	if err != nil {
		return err
	}
	b, err := runProtocol(seed+protocolReps, seconds, false, "")
	if err != nil {
		return err
	}
	fmt.Printf("\nselfcheck: two protocol runs of the same code\n%-15s %-18s %14s %14s %8s %6s\n",
		"workload", "metric", "first", "second", "diff", "bound")
	worst := 0
	for _, w := range allWorkloads {
		for _, m := range e2eMetrics {
			d := relDiff(a[w.name][m.name], b[w.name][m.name])
			mark := ""
			if d > bounds[m.name] {
				mark = "  OVER"
				worst++
			}
			fmt.Printf("%-15s %-18s %14.4f %14.4f %8.4f %6.2f%s\n",
				w.name, m.name, a[w.name][m.name], b[w.name][m.name], d, bounds[m.name], mark)
		}
	}
	if worst > 0 {
		return fmt.Errorf("selfcheck: %d of %d workload × metric pairs differ by more than their bound",
			worst, len(allWorkloads)*len(e2eMetrics))
	}
	return nil
}

// readBounds loads the end-to-end bounds from BENCHMARK.json, looked for
// in the working directory and its parent.
func readBounds() (map[string]float64, error) {
	var raw []byte
	var err error
	for _, p := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		if raw, err = os.ReadFile(p); err == nil {
			break
		}
	}
	if err != nil {
		return nil, fmt.Errorf("selfcheck needs BENCHMARK.json: %w", err)
	}
	var doc struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	bounds := map[string]float64{}
	for _, m := range doc.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds, nil
}

func printLayers(layers map[string]float64) {
	names := make([]string, 0, len(layers))
	for k := range layers {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-34s %16.4f %s\n", k, layers[k], layerUnit[k])
	}
}
