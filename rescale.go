package heron

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"heron/api"
	"heron/internal/checkpoint"
	"heron/internal/core"
	"heron/internal/packing"
	"heron/internal/replication"
)

// rescaleCheckpointTimeout bounds the pre-rescale checkpoint barrier:
// markers queue behind whatever backlog caused the rescale, so this is
// deliberately generous.
const rescaleCheckpointTimeout = 30 * time.Second

// ScaleComponent changes one component's parallelism on the running
// topology. It is the single rescale entry point: the health manager's
// scale-up/scale-down resolvers call exactly this method.
//
// Without checkpointing the change reduces to Scale: a minimal-disruption
// repack plus a container diff. With checkpointing enabled the rescale is
// state-preserving: interval checkpoints pause, a synchronous checkpoint
// barrier commits, the rescaled component's state is repartitioned across
// the new task set under a fresh checkpoint id (key-hash for bolts,
// index-aligned for spouts, or the component's own
// api.StateRepartitioner), every worker container quiesces before any
// relaunch, and the relaunched containers restore from the repartitioned
// checkpoint. A stateless component skips the repartition round-trip —
// the barrier alone gives the surviving components a fresh restore point.
// If the relaunch fails the topology rolls back to the pre-rescale plan
// and checkpoint.
func (h *Handle) ScaleComponent(component string, parallelism int) error {
	if h.killed {
		return errors.New("heron: topology killed")
	}
	if parallelism < 1 {
		return fmt.Errorf("heron: parallelism %d < 1", parallelism)
	}
	if h.spec.Topology.Component(component) == nil {
		return fmt.Errorf("heron: unknown component %q", component)
	}
	current, err := h.state.GetPackingPlan(h.name)
	if err != nil {
		return err
	}
	oldCount := current.ComponentCounts()[component]
	if oldCount == parallelism {
		return nil // no-op delta
	}
	changes := map[string]int{component: parallelism}
	if h.cfg.CheckpointInterval <= 0 {
		return h.Scale(changes)
	}
	start := time.Now()
	if err := h.rescaleStateful(component, oldCount, changes, current); err != nil {
		return err
	}
	if h.health != nil {
		h.health.ObserveRescale(component, time.Since(start))
		// Every relaunched instance restarts its counters: old windows
		// are meaningless now.
		h.health.ResetSensor()
	}
	return nil
}

// rescaleStateful runs the checkpoint-preserving rescale protocol.
func (h *Handle) rescaleStateful(component string, oldCount int, changes map[string]int, current *core.PackingPlan) error {
	tm, err := h.leaderTM()
	if err != nil {
		return err
	}
	qs, ok := h.sched.(core.QuiescingScheduler)
	if !ok {
		return fmt.Errorf("heron: scheduler %q cannot quiesce for a stateful rescale", h.cfg.SchedulerName)
	}

	// 1. Freeze the checkpoint schedule and commit a synchronous barrier:
	// the consistent cut the rescale transforms.
	tm.SuspendCheckpoints()
	defer tm.ResumeCheckpoints()
	ckptID, err := tm.CheckpointNow(rescaleCheckpointTimeout)
	if err != nil {
		return fmt.Errorf("heron: pre-rescale checkpoint: %w", err)
	}

	// Log the rescale before anything mutates: the begin record carries
	// everything a successor leader's warm view needs to recognize (and a
	// surviving Handle to abort) a half-done rescale — the pre-rescale
	// topology, packing plan, and the barrier checkpoint.
	preTopo, err := h.state.GetTopology(h.name)
	if err != nil {
		return err
	}
	if err := h.appendControlMark(&replication.Record{
		Kind: replication.KindRescaleBegin,
		Rescale: &replication.RescaleRecord{
			Component:     component,
			Parallelism:   changes[component],
			PreCheckpoint: ckptID,
			Topology:      preTopo,
			Packing:       current,
		},
	}, 0); err != nil {
		return err
	}
	if h.hookAfterRescaleBarrier != nil {
		// Chaos tests kill the leader exactly here: after the barrier and
		// the begin record, before any state moves.
		h.hookAfterRescaleBarrier()
	}

	// 2. Repack with minimal disruption, then pass quota admission: on a
	// shared cluster a rescale that would push the tenant over quota is
	// rejected here, before any state moves — rejection needs no rollback.
	// From here on, every pre-mutation failure closes the begin record
	// with an abort mark so no warm view keeps a dangling rescale.
	proposed, err := h.rm.Repack(current, changes)
	if err != nil {
		return h.abortRescale(component, oldCount, err)
	}
	if h.admitUpdate != nil {
		if err := h.admitUpdate(current, proposed); err != nil {
			return h.abortRescale(component, oldCount, err)
		}
	}

	// 3. Repartition the component's checkpointed state to the new task
	// set under a reserved id. Stateless components skip this round-trip.
	probe := h.probeComponent(component)
	_, stateful := probe.(api.StatefulComponent)
	if stateful {
		newID, err := tm.ReserveCheckpointID()
		if errors.Is(err, ErrNotLeader) {
			// The leader died after the barrier. Its successor's warm view
			// replayed the begin record; resume the rescale through it.
			cur, werr := h.waitLeaderTM(rescaleCheckpointTimeout)
			if werr != nil {
				return h.abortRescale(component, oldCount, werr)
			}
			tm = cur
			tm.SuspendCheckpoints()
			defer tm.ResumeCheckpoints()
			newID, err = tm.ReserveCheckpointID()
		}
		if err != nil {
			return h.abortRescale(component, oldCount, err)
		}
		backend, err := h.openBackend()
		if err != nil {
			return h.abortRescale(component, oldCount, err)
		}
		rep, _ := probe.(api.StateRepartitioner)
		spout := h.spec.Topology.Component(component).Kind == core.KindSpout
		err = checkpoint.Repartition(backend, checkpoint.RepartitionPlan{
			Topology:      h.name,
			FromID:        ckptID,
			ToID:          newID,
			Component:     component,
			Spout:         spout,
			OldTasks:      componentTaskIDs(current, component),
			NewTasks:      componentTaskIDs(proposed, component),
			OtherTasks:    otherTaskIDs(proposed, component),
			Repartitioner: rep,
		})
		_ = backend.Close()
		if err != nil {
			return h.abortRescale(component, oldCount, err)
		}
	}

	// 4. Persist the scaled topology and plan.
	topo, err := h.state.GetTopology(h.name)
	if err != nil {
		return h.abortRescale(component, oldCount, err)
	}
	counts := current.ComponentCounts()
	for i := range topo.Components {
		if n, ok := counts[topo.Components[i].Name]; ok {
			topo.Components[i].Parallelism = n
		}
	}
	scaled, err := packing.ScaledTopology(topo, changes)
	if err != nil {
		return h.abortRescale(component, oldCount, err)
	}
	if err := h.state.SetTopology(scaled); err != nil {
		return err
	}
	if err := h.state.SetPackingPlan(h.name, proposed); err != nil {
		return err
	}

	// 5. Quiesce every worker, then relaunch the proposed plan: each
	// container restores from the latest committed checkpoint (the
	// repartitioned one). A surviving container processing tuples from an
	// already-restored spout would mix checkpoint generations, which is
	// why all workers stop before any relaunch.
	if err := qs.OnQuiescedUpdate(core.UpdateRequest{Topology: h.name, Current: current, Proposed: proposed}); err != nil {
		return h.rollbackRescale(tm, qs, component, oldCount, changes, current, proposed, scaled, ckptID, stateful, err)
	}
	// Close the rescale in the log (waiting out a failover window if the
	// leader died mid-relaunch), then rebroadcast through whoever leads.
	_ = h.appendControlMark(&replication.Record{
		Kind:    replication.KindRescaleCommit,
		Rescale: &replication.RescaleRecord{Component: component, Parallelism: changes[component]},
	}, rescaleCheckpointTimeout)
	if cur, err := h.leaderTM(); err == nil {
		cur.Refresh()
	} else {
		tm.Refresh()
	}
	return nil
}

// abortRescale closes a begun-but-unmutated rescale in the control log:
// nothing has moved yet, so the abort is just the rollback record that
// keeps warm views from carrying a dangling rescale-begin forever.
func (h *Handle) abortRescale(component string, oldCount int, cause error) error {
	_ = h.appendControlMark(&replication.Record{
		Kind:    replication.KindRescaleRollback,
		Rescale: &replication.RescaleRecord{Component: component, Parallelism: oldCount},
	}, rescaleCheckpointTimeout)
	return cause
}

// rollbackRescale restores the pre-rescale plan, topology record, and —
// for stateful components — re-commits the pre-rescale checkpoint under
// a fresh id so relaunched containers restore the old task layout.
func (h *Handle) rollbackRescale(tm tmRefresher, qs core.QuiescingScheduler, component string, oldCount int, changes map[string]int, current, proposed *core.PackingPlan, scaled *core.Topology, ckptID int64, stateful bool, cause error) error {
	errs := []error{fmt.Errorf("heron: rescale of %q failed: %w", component, cause)}
	// If the failure was a leader death, the tm we hold is deposed:
	// re-resolve so the rollback's checkpoint reservation and rebroadcast
	// go through the new leader.
	if cur, err := h.waitLeaderTM(rescaleCheckpointTimeout); err == nil {
		tm = cur
	}
	if h.admitUpdate != nil {
		// The quota reservation moved to the proposed plan at admission;
		// the rollback returns to the current plan, so move it back.
		if err := h.admitUpdate(proposed, current); err != nil {
			errs = append(errs, fmt.Errorf("heron: rollback quota reservation: %w", err))
		}
	}
	if stateful {
		rbID, err := tm.ReserveCheckpointID()
		if err == nil {
			var backend checkpoint.Backend
			if backend, err = h.openBackend(); err == nil {
				err = checkpoint.Copy(backend, h.name, ckptID, rbID, allTaskIDs(current))
				_ = backend.Close()
			}
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("heron: rollback checkpoint: %w", err))
		}
	}
	if rbTopo, err := packing.ScaledTopology(scaled, map[string]int{component: oldCount}); err == nil {
		if err := h.state.SetTopology(rbTopo); err != nil {
			errs = append(errs, err)
		}
	} else {
		errs = append(errs, err)
	}
	if err := h.state.SetPackingPlan(h.name, current); err != nil {
		errs = append(errs, err)
	}
	if err := qs.OnQuiescedUpdate(core.UpdateRequest{Topology: h.name, Current: proposed, Proposed: current}); err != nil {
		errs = append(errs, fmt.Errorf("heron: rollback relaunch: %w", err))
	}
	// Record the abort so no warm view keeps a dangling rescale-begin.
	_ = h.appendControlMark(&replication.Record{
		Kind:    replication.KindRescaleRollback,
		Rescale: &replication.RescaleRecord{Component: component, Parallelism: oldCount},
	}, rescaleCheckpointTimeout)
	tm.Refresh()
	return errors.Join(errs...)
}

// tmRefresher is the slice of the TMaster the rollback needs (narrow for
// testability).
type tmRefresher interface {
	ReserveCheckpointID() (int64, error)
	Refresh()
}

// probeComponent constructs a throwaway instance of a component to probe
// its optional interfaces (stateful? custom repartitioner?).
func (h *Handle) probeComponent(name string) any {
	if f, ok := h.spec.Spouts[name]; ok && f != nil {
		return f()
	}
	if f, ok := h.spec.Bolts[name]; ok && f != nil {
		return f()
	}
	return nil
}

// openBackend opens a fresh checkpoint-backend session against the
// configured store.
func (h *Handle) openBackend() (checkpoint.Backend, error) {
	b, err := checkpoint.New(h.cfg.StateBackend)
	if err != nil {
		return nil, err
	}
	if err := b.Initialize(h.cfg); err != nil {
		return nil, err
	}
	return b, nil
}

// componentTaskIDs returns one component's task ids in component-index
// order — the order state repartitioning and fields-grouping routing both
// use.
func componentTaskIDs(p *core.PackingPlan, component string) []int32 {
	type slot struct{ idx, task int32 }
	var slots []slot
	for i := range p.Containers {
		for _, inst := range p.Containers[i].Instances {
			if inst.ID.Component == component {
				slots = append(slots, slot{inst.ID.ComponentIndex, inst.ID.TaskID})
			}
		}
	}
	sort.Slice(slots, func(i, j int) bool { return slots[i].idx < slots[j].idx })
	out := make([]int32, len(slots))
	for i, s := range slots {
		out[i] = s.task
	}
	return out
}

// otherTaskIDs returns every task id not belonging to component.
func otherTaskIDs(p *core.PackingPlan, component string) []int32 {
	var out []int32
	for i := range p.Containers {
		for _, inst := range p.Containers[i].Instances {
			if inst.ID.Component != component {
				out = append(out, inst.ID.TaskID)
			}
		}
	}
	return out
}

// allTaskIDs returns every task id of a plan.
func allTaskIDs(p *core.PackingPlan) []int32 {
	var out []int32
	for i := range p.Containers {
		for _, inst := range p.Containers[i].Instances {
			out = append(out, inst.ID.TaskID)
		}
	}
	return out
}
