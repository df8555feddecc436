package heron

import (
	"fmt"
	"testing"
	"time"

	"heron/internal/cluster"
	"heron/internal/core"
)

// failureFixture runs WordCount on a simulated cluster under the given
// scheduler, injects a container failure, and verifies the topology
// recovers and keeps making progress.
func runFailureRecovery(t *testing.T, schedName string) {
	var f fixture
	spec := f.buildWordCount(t, 2, 2, -1, true)
	cfg := testConfig(t)
	cfg.SchedulerName = schedName
	cfg.AckingEnabled = true
	cfg.MaxSpoutPending = 200
	cfg.MessageTimeout = 2 * time.Second
	cl := cluster.New(schedName+"-sim", 4, core.Resource{CPU: 32, RAMMB: 32768, DiskMB: 65536})
	cfg.Framework = cl

	h, err := Submit(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Kill()
	if err := h.WaitRunning(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 15*time.Second, "initial progress", func() bool {
		return f.acked.Load() > 1000
	})

	// Kill a worker container (id 1). Under YARN the stateful scheduler's
	// monitor must re-request and relaunch it; under Aurora the framework
	// auto-restarts it.
	if err := cl.InjectFailure(h.Name(), 1); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 15*time.Second, "container reallocated", func() bool {
		return cl.Allocated(h.Name(), 1)
	})

	// Processing must resume: acks keep growing well past the failure
	// point (in-flight trees on the dead container time out and replay).
	base := f.acked.Load()
	waitFor(t, 120*time.Second, "post-failure progress", func() bool {
		return f.acked.Load() > base+5000
	})

	// Fields grouping still holds after recovery.
	f.table.mu.Lock()
	defer f.table.mu.Unlock()
	for word, tasks := range f.table.counts {
		if len(tasks) != 1 {
			t.Errorf("word %q on %d tasks after recovery", word, len(tasks))
		}
	}
}

func TestFailureRecoveryYARNStateful(t *testing.T) {
	runFailureRecovery(t, "yarn")
}

func TestFailureRecoveryAuroraStateless(t *testing.T) {
	runFailureRecovery(t, "aurora")
}

func TestFailureRecoveryMesosOfferBased(t *testing.T) {
	runFailureRecovery(t, "mesos")
}

func TestTMasterDeathObservedByStreamManagers(t *testing.T) {
	// Restarting container 0 kills the TMaster; its ephemeral location
	// vanishes, a new TMaster comes up, stream managers reconnect and the
	// topology keeps processing.
	var f fixture
	spec := f.buildWordCount(t, 2, 2, -1, false)
	cfg := testConfig(t)

	h, err := Submit(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Kill()
	if err := h.WaitRunning(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 15*time.Second, "initial progress", func() bool {
		return f.table.total.Load() > 1000
	})
	if err := h.Restart(core.TMasterContainerID); err != nil {
		t.Fatal(err)
	}
	base := f.table.total.Load()
	waitFor(t, 20*time.Second, "progress after TMaster restart", func() bool {
		return f.table.total.Load() > base+5000
	})
}

// TestWorkerRestartsAroundTMasterRestartKeepAcking restarts worker 1
// three times, then container 0, then worker 1 again. Each relaunched
// Stream Manager is only reachable once its peers apply the plan carrying
// its new address, so the test fails if a restarted TMaster's plans are
// ordered below the ones the survivors already hold: acks stop and every
// tuple fails. Both arms run the same replica-set control plane, one of
// them with a standby.
func TestWorkerRestartsAroundTMasterRestartKeepAcking(t *testing.T) {
	for _, replicas := range []int{1, 2} {
		t.Run(fmt.Sprintf("replicas=%d", replicas), func(t *testing.T) {
			var f fixture
			spec := f.buildWordCount(t, 2, 2, -1, true)
			cfg := testConfig(t)
			cfg.AckingEnabled = true
			cfg.MessageTimeout = time.Second
			cfg.ControlReplicas = replicas

			h, err := Submit(spec, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer h.Kill()
			if err := h.WaitRunning(10 * time.Second); err != nil {
				t.Fatal(err)
			}
			restart := func(id int32) {
				t.Helper()
				if err := h.Restart(id); err != nil {
					t.Fatal(err)
				}
				base := f.acked.Load()
				waitFor(t, 30*time.Second, fmt.Sprintf("acks after restarting container %d", id), func() bool {
					return f.acked.Load() > base+1000
				})
			}
			waitFor(t, 15*time.Second, "initial progress", func() bool {
				return f.acked.Load() > 1000
			})
			for i := 0; i < 3; i++ {
				restart(1)
			}
			restart(core.TMasterContainerID)
			restart(1)

			// Tuples in flight through the dead container fail by timeout;
			// after that, failures must stop while acks keep growing: wait
			// for a window of two message timeouts with 5000 acks and no
			// new failure.
			markAt, ackMark, failMark := time.Now(), f.acked.Load(), f.failed.Load()
			waitFor(t, 30*time.Second, "a window of acks with no new failure", func() bool {
				if failed := f.failed.Load(); failed != failMark {
					markAt, ackMark, failMark = time.Now(), f.acked.Load(), failed
				}
				return time.Since(markAt) > 2*cfg.MessageTimeout && f.acked.Load() > ackMark+5000
			})
		})
	}
}
