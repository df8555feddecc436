package stmgr

import (
	"sync"
	"testing"

	"heron/internal/ctrl"
	"heron/internal/network"
)

// bpFrame encodes origin's backpressure assertion (on) or release, as a
// peer Stream Manager sends it.
func bpFrame(t *testing.T, origin int32, on bool) []byte {
	t.Helper()
	raw, err := ctrl.Encode(&ctrl.Message{Op: ctrl.OpBackpressure, Topology: "bench", Container: origin, On: on})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// controlOps waits for n frames on conn and decodes them; every one must
// be a control frame.
func controlOps(t *testing.T, conn *countingConn, n int) []*ctrl.Message {
	t.Helper()
	waitFrames(t, conn, n)
	frames, _ := conn.snapshot()
	kinds := recordedKinds(conn)
	var out []*ctrl.Message
	for i, f := range frames {
		if kinds[i] != network.MsgControl {
			t.Fatalf("frame %d is kind %v, want control", i, kinds[i])
		}
		m, err := ctrl.Decode(f)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, m)
	}
	return out
}

// isPause reports whether m is origin's assertion (on) or release.
func isPause(m *ctrl.Message, origin int32, on bool) bool {
	return m.Op == ctrl.OpBackpressure && m.Container == origin && m.On == on
}

// TestSpoutRegisteringUnderBackpressurePauses: a spout that registers
// while a peer container asserts backpressure hears the assertion, after
// its plan.
func TestSpoutRegisteringUnderBackpressurePauses(t *testing.T) {
	s := newBenchSM(t)
	l, err := s.transport.Listen("") // the plan handed to an instance names this Stream Manager's address
	if err != nil {
		t.Fatal(err)
	}
	s.listener = l
	s.handleControl(nil, bpFrame(t, 2, true))

	conn := newCountingConn()
	s.registerInstance(conn, 0) // task 0: local spout
	ops := controlOps(t, conn, 2)
	if ops[0].Op != ctrl.OpPlan || !isPause(ops[1], 2, true) {
		t.Fatalf("spout heard %+v then %+v, want its plan then container 2's assertion", ops[0], ops[1])
	}
}

// TestPeerAttachingHearsOurAssertion: a peer Stream Manager that attaches
// while this container asserts backpressure is told so.
func TestPeerAttachingHearsOurAssertion(t *testing.T) {
	s := newBenchSM(t)
	s.observeDepth(backpressureHWM + 1)
	conn := installPeerRecorder(s)
	if ops := controlOps(t, conn, 1); !isPause(ops[0], 1, true) {
		t.Fatalf("peer heard %+v, want container 1's assertion", ops[0])
	}
}

// TestClosedPeerAssertionIsReleased: when a plan moves a peer container
// to a new address (its Stream Manager was relaunched), that peer's
// assertion is released on the local spouts; the new Stream Manager
// starts unasserted and would never release it.
func TestClosedPeerAssertionIsReleased(t *testing.T) {
	s := newBenchSM(t)
	spout := installRecorder(t, s, 0) // task 0: local spout
	s.handleControl(nil, bpFrame(t, 2, true))

	topo, packing := twoContainerPlan()
	s.applyPlan(&ctrl.PlanPayload{Epoch: 1, Topology: topo, Packing: packing,
		Stmgrs: map[int32]string{1: "self", 2: "relaunched"}})
	ops := controlOps(t, spout, 3)
	if !isPause(ops[0], 2, true) || ops[1].Op != ctrl.OpPlan || !isPause(ops[2], 2, false) {
		t.Fatalf("spout heard %+v, %+v, %+v; want container 2's assertion, the plan, its release", ops[0], ops[1], ops[2])
	}
}

// TestSpoutLastWordMatchesAssertions races a peer's assertions and
// releases, this container's own transitions and a spout registering
// again and again: once they stop, the last registered spout's last word
// on each origin is what the Stream Manager holds in force.
func TestSpoutLastWordMatchesAssertions(t *testing.T) {
	s := newBenchSM(t)
	l, err := s.transport.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	s.listener = l
	const flips = 100
	on, off := bpFrame(t, 2, true), bpFrame(t, 2, false)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < flips; i++ {
			s.handleControl(nil, on)
			if i%3 != 0 {
				s.handleControl(nil, off)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < flips; i++ {
			s.observeDepth(backpressureHWM + 1)
			s.observeDepth(0)
		}
	}()
	var last *countingConn
	for i := 0; i < 20; i++ {
		last = newCountingConn()
		s.registerInstance(last, 0) // task 0: local spout
	}
	wg.Wait()
	s.spoutMu.Lock()
	want := map[int32]bool{1: s.asserting[1], 2: s.asserting[2]}
	s.spoutMu.Unlock()
	s.Stop() // drains the spout's outbox

	frames, _ := last.snapshot()
	got := map[int32]bool{}
	for _, f := range frames {
		if m, err := ctrl.Decode(f); err == nil && m.Op == ctrl.OpBackpressure {
			got[m.Container] = m.On
		}
	}
	for origin, on := range want {
		if got[origin] != on {
			t.Errorf("origin %d: spout's last word on=%v, in force on=%v", origin, got[origin], on)
		}
	}
}
