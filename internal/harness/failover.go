// Control-plane failover harness: measure how long the topology goes
// without a global checkpoint commit when the leading TMaster dies.
//
// The sweep runs a checkpointed WordCount with Config.ControlReplicas
// hot standbys, hard-kills the leader K times, and times each kill to
// the first checkpoint epoch committed by the successor — the
// user-visible recovery figure (lease lapse + election + fencing + log
// replay + re-registration + one checkpoint round). The replicas' own
// lease-loss→promotion accounting rides along as election-ns.
package harness

import (
	"fmt"
	"time"

	heron "heron"
	"heron/internal/cluster"
	"heron/internal/core"
	"heron/internal/replication"
	"heron/internal/workloads"
)

// KillLeader hard-crashes the topology's leading control replica: the
// lease lapses at its TTL and a standby takes over. False when nothing
// leads right now (mid-failover).
func KillLeader(h *heron.Handle) (bool, error) {
	return h.KillLeader()
}

// KillTMaster fails the TMaster's own container through the scheduler's
// failure path — the coarser chaos primitive: only container 0 is
// re-placed and the workers never quiesce.
func KillTMaster(cl *cluster.Cluster, topology string) error {
	return cl.InjectFailure(topology, core.TMasterContainerID)
}

// FailoverOptions parameterize one failover sweep.
type FailoverOptions struct {
	// Replicas are the Config.ControlReplicas values to sweep.
	Replicas []int
	// Kills is how many leader kills each configuration absorbs.
	Kills int
	// CheckpointInterval paces global commits (the recovery probe).
	CheckpointInterval time.Duration
	// LeaseTTL overrides the control lease TTL (0 = engine default).
	LeaseTTL time.Duration
	// Timeout bounds each kill→commit wait.
	Timeout time.Duration
}

func (o *FailoverOptions) defaults() {
	if len(o.Replicas) == 0 {
		o.Replicas = []int{2, 3}
	}
	if o.Kills <= 0 {
		o.Kills = 3
	}
	if o.CheckpointInterval <= 0 {
		o.CheckpointInterval = 100 * time.Millisecond
	}
	if o.Timeout <= 0 {
		o.Timeout = 30 * time.Second
	}
}

// FailoverPoint is one configuration's measured recovery profile.
type FailoverPoint struct {
	Replicas int
	Kills    int
	// MeanKillToCommitNs / MaxKillToCommitNs time each kill to the first
	// epoch the successor globally commits.
	MeanKillToCommitNs float64
	MaxKillToCommitNs  float64
	// MeanElectionNs is the replicas' own lease-loss→promotion latency
	// (the LastFailoverNs accounting), averaged over the kills.
	MeanElectionNs float64
	// FinalTerm is the fencing term after the last kill (monotonicity
	// check: one election per kill, no spurious flapping).
	FinalTerm int64
}

// BenchLine renders the point in `go test -bench` output format: ns/op
// carries the mean kill→first-post-failover-commit latency.
func (p FailoverPoint) BenchLine() string {
	return fmt.Sprintf(
		"BenchmarkFailover/replicas=%d %d %.1f ns/op 0 B/op 0 allocs/op %.1f max-failover-ns %.1f election-ns %d final-term",
		p.Replicas, p.Kills, p.MeanKillToCommitNs, p.MaxKillToCommitNs, p.MeanElectionNs, p.FinalTerm)
}

// FailoverSweep measures the recovery profile for each replica count.
func FailoverSweep(o FailoverOptions) ([]FailoverPoint, error) {
	o.defaults()
	var out []FailoverPoint
	for _, replicas := range o.Replicas {
		p, err := runFailoverTrial(replicas, o)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// runFailoverTrial absorbs o.Kills leader kills on a fresh topology with
// the given replica count and reports the aggregate profile.
func runFailoverTrial(replicas int, o FailoverOptions) (FailoverPoint, error) {
	name := "failover-bench"
	spec, _, err := workloads.BuildWordCount(workloads.WordCountOptions{
		Name:     name,
		Spouts:   2,
		Bolts:    2,
		DictSize: 1_000,
		// Pace the source so checkpoint markers never queue behind a full
		// outbox: the probe must measure failover, not backlog drain.
		RatePerSec: 20_000,
		EmitBatch:  32,
	})
	if err != nil {
		return FailoverPoint{}, err
	}

	cfg := heron.NewConfig()
	cfg.NumContainers = 3
	cfg.SchedulerName = "yarn"
	cfg.CheckpointInterval = o.CheckpointInterval
	cfg.ControlReplicas = replicas
	cfg.ControlLeaseTTL = o.LeaseTTL
	cfg.Framework = cluster.New(name+"-sim", 4, core.Resource{CPU: 32, RAMMB: 32768, DiskMB: 65536})

	h, err := heron.Submit(spec, cfg)
	if err != nil {
		return FailoverPoint{}, err
	}
	defer h.Kill()
	if err := h.WaitRunning(30 * time.Second); err != nil {
		return FailoverPoint{}, err
	}
	if err := waitCommit(h, 0, o.Timeout); err != nil {
		return FailoverPoint{}, fmt.Errorf("harness: first commit: %w", err)
	}

	point := FailoverPoint{Replicas: replicas, Kills: o.Kills}
	var elections int
	for k := 0; k < o.Kills; k++ {
		epoch := h.CommittedEpoch()
		t0 := time.Now()
		killed, err := h.KillLeader()
		if err != nil {
			return FailoverPoint{}, err
		}
		if !killed {
			return FailoverPoint{}, fmt.Errorf("harness: kill %d found no leader", k+1)
		}
		if err := waitCommit(h, epoch, o.Timeout); err != nil {
			return FailoverPoint{}, fmt.Errorf("harness: kill %d: %w", k+1, err)
		}
		dt := float64(time.Since(t0).Nanoseconds())
		point.MeanKillToCommitNs += dt
		if dt > point.MaxKillToCommitNs {
			point.MaxKillToCommitNs = dt
		}
		if st, ok := leaderStatus(h); ok {
			point.FinalTerm = st.Term
			if st.LastFailoverNs > 0 {
				point.MeanElectionNs += float64(st.LastFailoverNs)
				elections++
			}
		}
	}
	point.MeanKillToCommitNs /= float64(o.Kills)
	if elections > 0 {
		point.MeanElectionNs /= float64(elections)
	}
	return point, nil
}

// waitCommit polls until a checkpoint epoch newer than after commits.
func waitCommit(h *heron.Handle, after int64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for h.CommittedEpoch() <= after {
		if time.Now().After(deadline) {
			return fmt.Errorf("no commit past epoch %d within %v", after, timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}

// leaderStatus returns the current leader's replica status, if any.
func leaderStatus(h *heron.Handle) (replication.Status, bool) {
	for _, st := range h.ControlStatus() {
		if st.Role == replication.RoleLeader {
			return st, true
		}
	}
	return replication.Status{}, false
}
