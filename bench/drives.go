package main

import (
	"fmt"
	"strconv"
	"sync/atomic"
	"time"

	"heron/internal/acker"
	"heron/internal/checkpoint"
	"heron/internal/core"
	"heron/internal/metrics"
	"heron/internal/network"
	"heron/internal/statemgr"
	"heron/internal/tuple"
	"heron/internal/workloads"
)

// Layer drives: each layer's exported functions run in isolation, fed
// with frames and states shaped like the workloads'. A drive is a fixed
// number of operations timed as a whole, repeated for driveBudget, and
// reports the fastest repeat: the cost of the code, not of the machine's
// other tenants.

const (
	driveBudget = 120 * time.Millisecond
	frameTuples = 64
	stateKeys   = dictWords
)

// timeOp returns the per-operation time in ns of the fastest run of fn,
// where one run performs ops operations.
func timeOp(ops int, fn func()) float64 {
	best := time.Duration(1<<63 - 1)
	for deadline := time.Now().Add(driveBudget); ; {
		t0 := time.Now()
		fn()
		if d := time.Since(t0); d < best {
			best = d
		}
		if time.Now().After(deadline) {
			break
		}
	}
	return float64(best.Nanoseconds()) / float64(ops)
}

// shape is one workload's tuple as the spout emits it.
type shape struct {
	name   string
	values tuple.Values
}

func driveShapes() []shape {
	return []shape{
		{"wc", tuple.Values{"basedonut", stamp(1)}},
		{"etl", tuple.Values{string(workloads.EventValue(4711, etlKeepType, 250)), stamp(1)}},
	}
}

func encodeShape(sh shape, dest int32) []byte {
	t := tuple.DataTuple{DestTask: dest, SrcTask: 1, StreamID: 0, Values: sh.values}
	return tuple.FastCodec{}.EncodeData(nil, &t)
}

// frameOf builds a frameTuples-tuple data frame of the shape.
func frameOf(sh shape) []byte {
	enc := encodeShape(sh, 3)
	f := tuple.AppendFrameHeader(nil, 3, frameTuples)
	for i := 0; i < frameTuples; i++ {
		f = tuple.AppendFrameEntry(f, enc)
	}
	return f
}

// driveTuple times the codec and the frame walk for both tuple shapes.
func driveTuple(out map[string]float64) error {
	codec := tuple.FastCodec{}
	for _, sh := range driveShapes() {
		t := tuple.DataTuple{DestTask: 3, SrcTask: 1, Values: sh.values}
		var buf []byte
		const n = 2000
		out["tuple."+sh.name+".encode_ns"] = timeOp(n, func() {
			for i := 0; i < n; i++ {
				buf = codec.EncodeData(buf[:0], &t)
			}
		})
		out["tuple."+sh.name+".bytes_per_tuple"] = float64(len(buf))
		enc := append([]byte(nil), buf...)
		var dt tuple.DataTuple
		var err error
		out["tuple."+sh.name+".decode_ns"] = timeOp(n, func() {
			for i := 0; i < n && err == nil; i++ {
				err = codec.DecodeData(enc, &dt)
			}
		})
		if err != nil {
			return fmt.Errorf("decode %s tuple: %w", sh.name, err)
		}
		var dest int32
		out["tuple."+sh.name+".peekdest_ns"] = timeOp(n, func() {
			for i := 0; i < n && err == nil; i++ {
				dest, err = tuple.PeekDest(enc)
			}
		})
		if err != nil || dest != 3 {
			return fmt.Errorf("peek %s tuple: dest %d, %v", sh.name, dest, err)
		}
		frame := frameOf(sh)
		const frames = 50
		var walked int
		out["tuple."+sh.name+".frame_walk_ns_per_tuple"] = timeOp(frames*frameTuples, func() {
			for i := 0; i < frames && err == nil; i++ {
				_, walked, err = tuple.WalkFrame(frame, func([]byte) error { return nil })
			}
		})
		if err != nil || walked != frameTuples {
			return fmt.Errorf("walk %s frame: %d tuples, %v", sh.name, walked, err)
		}
	}
	return nil
}

// connPair dials a listener of the transport and returns both ends.
func connPair(name string) (client, server network.Conn, closeAll func(), err error) {
	tr, err := network.ByName(name)
	if err != nil {
		return nil, nil, nil, err
	}
	addr := "127.0.0.1:0"
	if name != "tcp" {
		addr = fmt.Sprintf("bench-drive-%s-%d", name, topologySeq.Add(1))
	}
	ln, err := tr.Listen(addr)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("%s listen: %w", name, err)
	}
	accepted := make(chan network.Conn, 1) // the one Accept below
	go func() {
		c, aerr := ln.Accept()
		if aerr != nil {
			c = nil
		}
		accepted <- c
	}()
	client, err = tr.Dial(ln.Addr())
	if err != nil {
		ln.Close()
		<-accepted
		return nil, nil, nil, fmt.Errorf("%s dial: %w", name, err)
	}
	server = <-accepted
	if server == nil {
		client.Close()
		ln.Close()
		return nil, nil, nil, fmt.Errorf("%s accept failed", name)
	}
	return client, server, func() { client.Close(); server.Close(); ln.Close() }, nil
}

// driveTransport times one 64-tuple WordCount frame through a transport
// (send, flush, receive handler), and for tcp a one-frame round trip.
func driveTransport(name string, out map[string]float64) error {
	client, server, closeAll, err := connPair(name)
	if err != nil {
		return err
	}
	defer closeAll()
	const frames = 200
	var got atomic.Int64
	batchDone := make(chan struct{}, 1) // one token per completed batch of frames
	server.Start(func(kind network.MsgKind, payload []byte) {
		if kind == network.MsgControl { // the round-trip probe: echo it
			_ = server.Send(network.MsgControl, payload) // a lost echo shows as the probe's timeout
			_ = server.Flush()
			return
		}
		if got.Add(1)%frames == 0 {
			batchDone <- struct{}{}
		}
	})
	echoed := make(chan struct{}, 1) // one token per echo; the prober takes it before sending again
	client.Start(func(network.MsgKind, []byte) { echoed <- struct{}{} })
	await := func(ch chan struct{}) error {
		select {
		case <-ch:
			return nil
		case <-time.After(5 * time.Second):
			return fmt.Errorf("frame lost")
		}
	}

	frame := frameOf(driveShapes()[0])
	var opErr error
	out["network."+name+"_frame_ns"] = timeOp(frames, func() {
		for i := 0; i < frames && opErr == nil; i++ {
			opErr = client.Send(network.MsgData, frame)
		}
		if opErr == nil {
			opErr = client.Flush()
		}
		if opErr == nil {
			opErr = await(batchDone)
		}
	})
	if opErr != nil {
		return fmt.Errorf("%s drive: %w", name, opErr)
	}
	if name != "tcp" {
		return nil
	}
	probe := []byte("ping")
	const trips = 50
	rtt := timeOp(trips, func() {
		for i := 0; i < trips && opErr == nil; i++ {
			if opErr = client.Send(network.MsgControl, probe); opErr == nil {
				opErr = client.Flush()
			}
			if opErr == nil {
				opErr = await(echoed)
			}
		}
	})
	if opErr != nil {
		return fmt.Errorf("tcp round trip: %w", opErr)
	}
	out["network.tcp_rtt_us"] = rtt / 1e3
	return nil
}

// driveAcker times a one-hop tuple tree: Anchor, then the Ack that
// completes it.
func driveAcker(out map[string]float64) error {
	var done int64
	a := acker.New(acker.DefaultBuckets, func(uint64, acker.Result) { done++ })
	const n = 2000
	root := uint64(1)
	out["acker.tree_ns"] = timeOp(n, func() {
		for i := 0; i < n; i++ {
			root++
			key := root*0x9E3779B97F4A7C15 | 1
			a.Anchor(root, key)
			a.Ack(root, key)
		}
	})
	if a.Pending() != 0 || done == 0 {
		return fmt.Errorf("acker drive: %d trees pending, %d completed", a.Pending(), done)
	}
	return nil
}

// driveCheckpoint times the snapshot path of one sink: encode a
// 45 000-key state and save it to the memory backend.
func driveCheckpoint(out map[string]float64) error {
	st := checkpoint.NewMapState()
	for i, w := range workloads.Dictionary(stateKeys) {
		st.Set(w, strconv.AppendInt(nil, int64(i)*37, 10))
	}
	var blob []byte
	out["checkpoint.encode_ns_per_key"] = timeOp(stateKeys, func() { blob = checkpoint.EncodeState(st) })
	if back, err := checkpoint.DecodeState(blob); err != nil || back.Len() != stateKeys {
		return fmt.Errorf("checkpoint drive: decoded state differs (%v)", err)
	}

	cfg := core.NewConfig()
	cfg.StateRoot = fmt.Sprintf("/bench-drive-%d", topologySeq.Add(1))
	defer checkpoint.ResetSharedMemory(cfg.StateRoot)
	backend, err := checkpoint.New("memory")
	if err != nil {
		return err
	}
	if err := backend.Initialize(cfg); err != nil {
		return err
	}
	defer backend.Close()
	var id int64
	var saveErr error
	out["checkpoint.backend_save_ms"] = timeOp(1, func() {
		id++
		if saveErr == nil {
			saveErr = backend.Save("drive", id, 1, blob)
		}
		if saveErr == nil {
			saveErr = backend.Commit("drive", id) // retires the previous snapshot, as the coordinator does
		}
	}) / 1e6
	return saveErr
}

// driveStatemgr times a versioned set and get on the memory state manager.
func driveStatemgr(out map[string]float64) error {
	cfg := core.NewConfig()
	cfg.StateRoot = fmt.Sprintf("/bench-drive-%d", topologySeq.Add(1))
	defer statemgr.ResetSharedStore(cfg.StateRoot)
	sm, err := core.NewStateManager("memory")
	if err != nil {
		return err
	}
	if err := sm.Initialize(cfg); err != nil {
		return err
	}
	defer sm.Close()
	vs, ok := sm.(core.VersionedStore)
	if !ok {
		return fmt.Errorf("statemgr drive: memory state manager is not a VersionedStore")
	}
	payload := []byte(`{"topology":"drive","epoch":1}`)
	var version int64
	var opErr error
	const n = 500
	out["statemgr.setget_ns"] = timeOp(n, func() {
		for i := 0; i < n && opErr == nil; i++ {
			if version, opErr = vs.SetIf("/drive/node", payload, version); opErr == nil {
				_, _, _, opErr = vs.GetVersioned("/drive/node")
			}
		}
	})
	return opErr
}

// driveMetrics times Observe on both histogram types.
func driveMetrics(out map[string]float64) {
	reg := metrics.NewRegistry()
	h := reg.Histogram("drive", metrics.Tags{})
	hdr := reg.HDR("drive-hdr", metrics.Tags{})
	const n = 5000
	out["metrics.observe_ns"] = timeOp(n, func() {
		for i := int64(0); i < n; i++ {
			h.Observe(i * 977)
		}
	})
	out["metrics.hdr_observe_ns"] = timeOp(n, func() {
		for i := int64(0); i < n; i++ {
			hdr.Observe(i * 977)
		}
	})
}

// runDrives runs every layer drive.
func runDrives(out map[string]float64) error {
	if err := driveTuple(out); err != nil {
		return err
	}
	for _, name := range []string{"inproc", "tcp", "ring"} {
		if err := driveTransport(name, out); err != nil {
			return err
		}
	}
	if err := driveAcker(out); err != nil {
		return err
	}
	if err := driveCheckpoint(out); err != nil {
		return err
	}
	if err := driveStatemgr(out); err != nil {
		return err
	}
	driveMetrics(out)
	return nil
}
