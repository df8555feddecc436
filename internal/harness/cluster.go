// Theodolite-style scalability harness for the multi-tenant substrate.
//
// The paper-reproduction benches elsewhere in this package measure the
// unrestricted peak of one topology. Theodolite (arXiv 2009.00304) argues
// the meaningful scalability metric is the inverse question: fix an
// offered load, then find the minimal resources that sustain it, and
// report the "resource demand vs. load" curve. ClusterDemandSweep does
// exactly that on the shared substrate, for several tenant counts at
// once: every tenant runs its own rate-limited topology, and a load level
// counts as sustained only when EVERY tenant individually keeps up — so
// the curve also certifies cross-tenant isolation under load.
package harness

import (
	"fmt"
	"time"

	heron "heron"
	"heron/internal/workloads"
)

// ClusterSweepOptions parameterize one demand sweep.
type ClusterSweepOptions struct {
	// Loads are the per-tenant offered loads to sweep, in tuples/sec.
	Loads []int
	// Tenants are the tenant counts to sweep (each tenant runs one
	// topology at the full offered load).
	Tenants []int
	// ParallelismLadder is the candidate spout/bolt parallelism search
	// space, ascending; demand is the first rung that sustains the load.
	ParallelismLadder []int
	// SustainFraction is the fraction of the offered load every tenant
	// must achieve for a rung to count as sustaining (default 0.8).
	SustainFraction float64
	// Nodes sizes the simulated substrate (default 4).
	Nodes   int
	Warmup  time.Duration
	Measure time.Duration
	// DictSize shrinks the dictionary for fast runs (0 = full size).
	DictSize int
}

func (o *ClusterSweepOptions) defaults() {
	if o.SustainFraction <= 0 {
		o.SustainFraction = 0.8
	}
	if o.Nodes <= 0 {
		o.Nodes = 4
	}
	if o.Warmup <= 0 {
		o.Warmup = 300 * time.Millisecond
	}
	if o.Measure <= 0 {
		o.Measure = 1 * time.Second
	}
	if o.DictSize <= 0 {
		o.DictSize = 10_000
	}
	if len(o.ParallelismLadder) == 0 {
		o.ParallelismLadder = []int{1, 2, 4}
	}
}

// DemandPoint is one point of a "resource demand vs. load" curve.
type DemandPoint struct {
	Tenants int
	// Load is the per-tenant offered load (tuples/sec); aggregate offered
	// load is Load × Tenants.
	Load int
	// Parallelism is the minimal sustaining spout/bolt parallelism per
	// topology (the last rung tried when Sustained is false).
	Parallelism int
	// Cores and Containers are the substrate-wide provisioned demand at
	// that rung: packing-plan CPU asks plus each topology's TMaster.
	Cores      float64
	Containers int
	// AchievedTPS is the aggregate measured bolt throughput.
	AchievedTPS float64
	// MinTenantTPS is the slowest tenant's measured throughput — the
	// isolation figure (≈ Load when nobody starves anybody).
	MinTenantTPS float64
	// Sustained reports whether every tenant reached
	// SustainFraction × Load at this rung.
	Sustained bool
}

// ClusterDemandSweep maps out resource demand as a function of load and
// tenant count. For each (tenants, load) pair it climbs the parallelism
// ladder until every tenant sustains the offered load, and records the
// demand at that rung.
func ClusterDemandSweep(o ClusterSweepOptions) ([]DemandPoint, error) {
	o.defaults()
	var out []DemandPoint
	for _, tenants := range o.Tenants {
		for _, load := range o.Loads {
			var point DemandPoint
			for _, par := range o.ParallelismLadder {
				p, err := runDemandTrial(tenants, load, par, o)
				if err != nil {
					return nil, err
				}
				point = p
				if p.Sustained {
					break
				}
			}
			out = append(out, point)
		}
	}
	return out, nil
}

// runDemandTrial measures one (tenants, load, parallelism) configuration
// on a fresh substrate.
func runDemandTrial(tenants, load, par int, o ClusterSweepOptions) (DemandPoint, error) {
	name := "bench"
	cl, err := heron.NewCluster(heron.ClusterConfig{Name: name, Nodes: o.Nodes})
	if err != nil {
		return DemandPoint{}, err
	}
	defer cl.Close()

	type member struct {
		h     *heron.Handle
		stats *workloads.WordCountStats
	}
	members := make([]member, 0, tenants)
	perSpout := (load + par - 1) / par
	for i := 0; i < tenants; i++ {
		tenantName := fmt.Sprintf("tenant-%d", i)
		if err := cl.AddTenant(tenantName, heron.Quota{}, 0); err != nil {
			return DemandPoint{}, err
		}
		spec, stats, err := workloads.BuildWordCount(workloads.WordCountOptions{
			Name:       fmt.Sprintf("%s-wc-%d", name, i),
			Spouts:     par,
			Bolts:      par,
			DictSize:   o.DictSize,
			RatePerSec: perSpout,
			EmitBatch:  32,
		})
		if err != nil {
			return DemandPoint{}, err
		}
		cfg := heron.NewConfig()
		cfg.NumContainers = 2
		h, err := cl.Submit(tenantName, spec, cfg)
		if err != nil {
			return DemandPoint{}, err
		}
		members = append(members, member{h, stats})
	}
	for _, m := range members {
		if err := m.h.WaitRunning(30 * time.Second); err != nil {
			return DemandPoint{}, err
		}
	}
	time.Sleep(o.Warmup)
	starts := make([]int64, len(members))
	for i, m := range members {
		starts[i] = m.stats.Executed.Load()
	}
	t0 := time.Now()
	time.Sleep(o.Measure)
	window := time.Since(t0).Seconds()

	point := DemandPoint{Tenants: tenants, Load: load, Parallelism: par, Sustained: true}
	for i, m := range members {
		tps := float64(m.stats.Executed.Load()-starts[i]) / window
		point.AchievedTPS += tps
		if i == 0 || tps < point.MinTenantTPS {
			point.MinTenantTPS = tps
		}
		if tps < o.SustainFraction*float64(load) {
			point.Sustained = false
		}
		if plan, err := m.h.PackingPlan(); err == nil {
			for j := range plan.Containers {
				point.Cores += plan.Containers[j].Required.CPU
			}
			point.Cores++ // TMaster ask (1 CPU by default)
			point.Containers += len(plan.Containers) + 1
		}
	}
	return point, nil
}

// BenchLine renders the point in `go test -bench` output format: ns/op
// carries the per-tuple service time at the achieved rate, and the custom
// units carry the demand curve (tuples/sec, demand-cores,
// demand-containers).
func (p DemandPoint) BenchLine() string {
	nsPerTuple := 0.0
	if p.AchievedTPS > 0 {
		nsPerTuple = 1e9 / p.AchievedTPS * float64(p.Tenants*p.Parallelism)
	}
	return fmt.Sprintf(
		"BenchmarkClusterDemand/tenants=%d/load=%d 1 %.1f ns/op 0 B/op 0 allocs/op %.1f tuples/sec %.1f demand-cores %d demand-containers %.1f min-tenant-tps",
		p.Tenants, p.Load, nsPerTuple, p.AchievedTPS, p.Cores, p.Containers, p.MinTenantTPS)
}
