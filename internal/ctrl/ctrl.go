// Package ctrl defines the control-plane messages exchanged between the
// Topology Master, Stream Managers and Heron Instances over MsgControl
// frames. The control plane is low-rate, so messages are JSON for
// debuggability; the data plane never touches this package's encoder.
package ctrl

import (
	"encoding/json"
	"fmt"

	"heron/internal/core"
	"heron/internal/metrics"
)

// Op names a control operation.
type Op string

// Control operations.
const (
	// OpRegisterStmgr: stream manager → TMaster on container start.
	OpRegisterStmgr Op = "register_stmgr"
	// OpRegisterInstance: instance → its local stream manager.
	OpRegisterInstance Op = "register_instance"
	// OpPlan: TMaster → stream managers → instances; the current physical
	// plan plus the stream-manager directory.
	OpPlan Op = "plan"
	// OpRefresh: engine → TMaster after a scaling update: re-read state
	// and rebroadcast the plan.
	OpRefresh Op = "refresh"
	// OpBackpressure: stream manager → peers and local spouts when a local
	// delivery queue crosses its high-water mark (Heron's spout-based
	// backpressure).
	OpBackpressure Op = "backpressure"
	// OpMetrics: metrics manager → TMaster.
	OpMetrics Op = "metrics"
	// OpTune: TMaster → stream managers → spout instances; adjusts the
	// max-spout-pending window of a running topology (the paper's §V-B
	// future work: automated, observation-driven parameter tuning).
	OpTune Op = "tune"
	// OpCheckpointTrigger: TMaster → stream managers; start checkpoint
	// CheckpointID by injecting markers at the local spouts.
	OpCheckpointTrigger Op = "checkpoint_trigger"
	// OpCheckpointSaved: instance → stream manager → TMaster; task TaskID
	// persisted its snapshot for checkpoint CheckpointID.
	OpCheckpointSaved Op = "checkpoint_saved"
	// OpCheckpointCommitted: TMaster → stream managers; every task saved,
	// the checkpoint is globally committed and restorable.
	OpCheckpointCommitted Op = "checkpoint_committed"
)

// Message is the envelope for every control frame.
type Message struct {
	Op       Op     `json:"op"`
	Topology string `json:"topology,omitempty"`

	// OpRegisterStmgr / OpBackpressure origin.
	Container int32  `json:"container,omitempty"`
	DataAddr  string `json:"dataAddr,omitempty"`

	// OpRegisterInstance.
	TaskID int32 `json:"taskId,omitempty"`

	// OpPlan.
	Plan *PlanPayload `json:"plan,omitempty"`

	// OpBackpressure.
	On bool `json:"on,omitempty"`

	// OpTune.
	MaxSpoutPending int `json:"maxSpoutPending,omitempty"`

	// OpCheckpointTrigger / OpCheckpointSaved / OpCheckpointCommitted.
	CheckpointID int64 `json:"checkpointId,omitempty"`

	// OpMetrics: the container's typed metrics snapshot (named, tagged
	// points — the TMaster merges these into the topology-wide view).
	Metrics *metrics.Snapshot `json:"metrics,omitempty"`
}

// PlanPayload carries everything a container needs to (re)build its
// routing state.
type PlanPayload struct {
	// Epoch is the control-log seq of the plan's record. It rises with
	// every broadcast, across TMaster generations too, so receivers keep
	// the plan with the highest epoch.
	Epoch    int64             `json:"epoch"`
	Topology *core.Topology    `json:"topology"`
	Packing  *core.PackingPlan `json:"packing"`
	// Stmgrs maps container id → stream-manager data address.
	Stmgrs map[int32]string `json:"stmgrs"`
}

// Encode serializes m for a MsgControl frame.
func Encode(m *Message) ([]byte, error) { return json.Marshal(m) }

// Decode parses a MsgControl frame.
func Decode(b []byte) (*Message, error) {
	var m Message
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("ctrl: %w", err)
	}
	if m.Op == "" {
		return nil, fmt.Errorf("ctrl: message without op")
	}
	return &m, nil
}

// BuildPhysicalPlan reconstructs the routing state from a payload.
func (p *PlanPayload) BuildPhysicalPlan() (*core.PhysicalPlan, error) {
	if p.Topology == nil || p.Packing == nil {
		return nil, fmt.Errorf("ctrl: incomplete plan payload")
	}
	return core.NewPhysicalPlan(p.Topology, p.Packing)
}
