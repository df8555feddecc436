GO ?= go

.PHONY: build test race vet verify bench

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# verify is the pre-submit gate: gofmt, vet, build, and the full suite under the
# race detector (tier-1 plus -race), ten repeats of the packages whose
# tests race the control plane, launch it, recycle received frames,
# carry election and fencing on every State Manager backend, share one
# scheduler core's monitor and lock across five schedulers, race the
# lock-free histogram's Observe against Snapshot and serve it, or hand acks
# from many goroutines to the one goroutine that owns an acker (the Stream
# Manager's worker, the Storm baseline's acker executors), or run receive
# handlers on their senders' goroutines (the inproc transport), then a
# 10 s fuzz smoke of each decoder that reads tuple bytes off the wire, one
# run of every codec, hash, Stream Manager route and spout emit/ack
# benchmark (so those benchmarks keep compiling and running), then vet and
# tests of the benchmark's own module, which `./...` from the root does not
# reach.
verify:
	test -z "$$(gofmt -l .)"
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test -race ./...
	$(GO) test -race -count=10 ./internal/tmaster ./internal/runtime ./internal/instance ./internal/statemgr ./internal/replication ./internal/scheduler ./internal/multitenant ./internal/metrics ./internal/observability ./internal/stmgr ./internal/acker ./internal/storm ./internal/network
	$(GO) test -run='^$$' -fuzz=FuzzDecodeAck -fuzztime=10s ./internal/tuple
	$(GO) test -run='^$$' -fuzz=FuzzDecodeHeader -fuzztime=10s ./internal/tuple
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./internal/tuple ./internal/encoding/wire ./internal/core ./internal/stmgr ./internal/instance
	cd bench && $(GO) vet ./... && $(GO) test ./...

# bench runs the end-to-end benchmark BENCHMARK.json declares; see
# bench/README.md for workloads, metrics and flags.
bench:
	bash bench/run.sh
