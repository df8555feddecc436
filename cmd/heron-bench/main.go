// Command heron-bench regenerates every table and figure of the paper's
// evaluation section (Figures 2–14) on this machine.
//
// Usage:
//
//	heron-bench                 # all figures, quick windows
//	heron-bench -fig 5          # one figure's group: 2–3, 5–6, 7–9, 10–11 and
//	                            # 12–13 each run together (4 and 14 alone)
//	heron-bench -measure 5s     # longer steady-state windows
//	heron-bench -full           # the paper's full parallelism sweep
//
// Absolute numbers depend on the host; the claims under test are the
// relative shapes (who wins, by what factor, where the knees fall), which
// each table's note restates from the paper.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"heron/internal/harness"
)

func main() {
	fig := flag.Int("fig", 0, "figure to reproduce (0 = all; 2..14)")
	warmup := flag.Duration("warmup", 500*time.Millisecond, "per-run warmup")
	measure := flag.Duration("measure", 2*time.Second, "per-run measurement window")
	full := flag.Bool("full", false, "use the paper's full parallelism sweeps (slow)")
	dict := flag.Int("dict", 45_000, "dictionary size (450000 = paper)")
	cluster := flag.Bool("cluster", false, "run the Theodolite-style multi-tenant scalability sweep instead of the figures")
	failover := flag.Bool("failover", false, "run the control-plane failover sweep instead of the figures")
	kills := flag.Int("kills", 3, "leader kills per replica count (failover sweep)")
	flag.Parse()

	if *cluster {
		runClusterSweep(*warmup, *measure)
		return
	}
	if *failover {
		runFailoverSweep(*kills)
		return
	}

	base := harness.WCOptions{Warmup: *warmup, Measure: *measure, DictSize: *dict}

	vsStorm := []int{10, 25}
	opts := []int{25, 100}
	// Quick mode scales the paper's 60K-tuple window down: the sweep's
	// in-flight total (msp × spouts) must fit one host's pipeline.
	pendings := []int{5, 20, 100, 1000}
	drains := []time.Duration{200 * time.Microsecond, 1 * time.Millisecond, 4 * time.Millisecond, 16 * time.Millisecond, 32 * time.Millisecond}
	if *full {
		vsStorm = harness.PaperParallelismHeronVsStorm
		opts = harness.PaperParallelismOptimizations
		pendings = harness.PaperMaxSpoutPending
		drains = harness.PaperCacheDrainFrequencies
	}

	fmt.Printf("heron-bench: GOMAXPROCS=%d warmup=%v measure=%v dict=%d\n\n",
		runtime.GOMAXPROCS(0), *warmup, *measure, *dict)

	want := func(figs ...int) bool {
		if *fig == 0 {
			return true
		}
		for _, f := range figs {
			if f == *fig {
				return true
			}
		}
		return false
	}
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "heron-bench:", err)
		os.Exit(1)
	}
	show := func(tables ...*harness.Table) {
		for _, t := range tables {
			fmt.Println(t.Format())
		}
	}

	if want(2, 3) {
		th, lat, err := harness.Fig2and3(vsStorm, base)
		if err != nil {
			fail(err)
		}
		show(th, lat)
	}
	if want(4) {
		t, err := harness.Fig4(vsStorm, base)
		if err != nil {
			fail(err)
		}
		show(t)
	}
	if want(5, 6) {
		total, perCore, err := harness.Fig5to6(opts, base)
		if err != nil {
			fail(err)
		}
		show(total, perCore)
	}
	if want(7, 8, 9) {
		total, perCore, lat, err := harness.Fig7to9(opts, base)
		if err != nil {
			fail(err)
		}
		show(total, perCore, lat)
	}
	if want(10, 11) {
		th, lat, err := harness.Fig10to11(opts[:min(2, len(opts))], pendings, base)
		if err != nil {
			fail(err)
		}
		show(th, lat)
	}
	if want(12, 13) {
		th, lat, err := harness.Fig12to13(opts[:min(2, len(opts))], drains, base)
		if err != nil {
			fail(err)
		}
		show(th, lat)
	}
	if want(14) {
		t, err := harness.Fig14(harness.ETLOptions{Warmup: *warmup, Measure: *measure})
		if err != nil {
			fail(err)
		}
		show(t)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// runClusterSweep maps resource demand vs. load on the shared substrate
// (Theodolite's scalability method): per tenant count and offered load,
// the minimal parallelism that sustains the load, and its provisioned
// cores/containers. Points print both as a table (stderr) and as
// `go test -bench`-format lines (stdout).
func runClusterSweep(warmup, measure time.Duration) {
	points, err := harness.ClusterDemandSweep(harness.ClusterSweepOptions{
		Loads:   []int{2_000, 5_000, 10_000},
		Tenants: []int{1, 2, 3},
		Warmup:  warmup,
		Measure: measure,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "heron-bench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "%-8s %-10s %-5s %-12s %-10s %-12s %-14s %s\n",
		"tenants", "load/t", "par", "achieved", "min-tps", "cores", "containers", "sustained")
	for _, p := range points {
		fmt.Fprintf(os.Stderr, "%-8d %-10d %-5d %-12.0f %-10.0f %-12.1f %-14d %v\n",
			p.Tenants, p.Load, p.Parallelism, p.AchievedTPS, p.MinTenantTPS, p.Cores, p.Containers, p.Sustained)
		fmt.Println(p.BenchLine())
	}
}

// runFailoverSweep measures control-plane recovery: a checkpointed
// WordCount with ControlReplicas hot standbys absorbs repeated leader
// kills, each timed kill→first-post-failover-commit. Points print both
// as a table (stderr) and as `go test -bench`-format lines (stdout).
func runFailoverSweep(kills int) {
	points, err := harness.FailoverSweep(harness.FailoverOptions{
		Replicas: []int{2, 3},
		Kills:    kills,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "heron-bench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "%-9s %-6s %-16s %-16s %-14s %s\n",
		"replicas", "kills", "mean-ms", "max-ms", "election-ms", "final-term")
	for _, p := range points {
		fmt.Fprintf(os.Stderr, "%-9d %-6d %-16.1f %-16.1f %-14.1f %d\n",
			p.Replicas, p.Kills, p.MeanKillToCommitNs/1e6, p.MaxKillToCommitNs/1e6,
			p.MeanElectionNs/1e6, p.FinalTerm)
		fmt.Println(p.BenchLine())
	}
}
