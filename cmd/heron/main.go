// Command heron is the operator CLI for this repository's engine: it
// submits the built-in workloads to a chosen scheduler, exercises
// topology scaling and container restarts, and prints the module
// registries — a compact tour of the modular architecture.
//
// Usage:
//
//	heron modules
//	heron run -topology wordcount -spouts 4 -bolts 4 -acks -duration 10s
//	heron run -topology wordcount -scheduler yarn -packing binpacking \
//	          -scale count=8 -scale-after 3s -duration 10s
//	heron run -topology etl -duration 10s
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	heron "heron"
	"heron/api"
	"heron/internal/cluster"
	"heron/internal/core"
	"heron/internal/extsvc/kafkasim"
	"heron/internal/extsvc/redissim"
	"heron/internal/workloads"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "modules":
		fmt.Println("resource managers (packing):", strings.Join(core.ResourceManagerNames(), ", "))
		fmt.Println("schedulers:                 ", strings.Join(core.SchedulerNames(), ", "))
		fmt.Println("state managers:             ", strings.Join(core.StateManagerNames(), ", "))
	case "run":
		if err := run(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "heron:", err)
			os.Exit(1)
		}
	default:
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  heron modules
  heron run [flags]   (see heron run -h)`)
}

func run(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	topology := fs.String("topology", "wordcount", "workload: wordcount | etl")
	spouts := fs.Int("spouts", 4, "spout parallelism")
	bolts := fs.Int("bolts", 4, "bolt parallelism")
	acks := fs.Bool("acks", false, "enable at-least-once acking")
	msp := fs.Int("max-spout-pending", 1000, "max un-acked tuples per spout (with -acks)")
	schedName := fs.String("scheduler", "local", "scheduler module: local | yarn | aurora | mesos | slurm")
	packing := fs.String("packing", "roundrobin", "packing algorithm: roundrobin | binpacking | rcrr")
	statemgrName := fs.String("statemgr", "memory", "state manager: memory | localfs")
	containers := fs.Int("containers", 3, "containers (roundrobin hint)")
	duration := fs.Duration("duration", 10*time.Second, "how long to run")
	scaleSpec := fs.String("scale", "", "scaling op, e.g. count=8 (applied mid-run)")
	scaleAfter := fs.Duration("scale-after", 3*time.Second, "when to apply -scale")
	restart := fs.Int("restart-container", -2, "container id to restart mid-run (-1 = all)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := heron.NewConfig()
	cfg.SchedulerName = *schedName
	cfg.PackingAlgorithm = *packing
	cfg.StateManagerName = *statemgrName
	cfg.NumContainers = *containers
	cfg.AckingEnabled = *acks
	if *acks {
		cfg.MaxSpoutPending = *msp
	}
	if *schedName != "local" {
		cfg.Framework = cluster.New(*schedName+"-sim", 8,
			core.Resource{CPU: 64, RAMMB: 64 << 10, DiskMB: 128 << 10})
	}

	var (
		spec  *api.Spec
		stats *workloads.WordCountStats
		tmrs  *workloads.CategoryTimers
		redis *redissim.Server
	)
	switch *topology {
	case "wordcount":
		s, st, err := workloads.BuildWordCount(workloads.WordCountOptions{
			Spouts: *spouts, Bolts: *bolts, DictSize: 45_000, Reliable: *acks,
		})
		if err != nil {
			return err
		}
		spec, stats = s, st
	case "etl":
		broker := kafkasim.NewBroker(8)
		broker.Preload(50_000, func(part, i int) ([]byte, []byte) {
			types := []string{"click", "view", "scroll", "hover"}
			return []byte(fmt.Sprintf("k%d", i)), workloads.EventValue(i%10_000, types[i%4], int64(i%500))
		})
		redis = redissim.NewServer(8)
		s, tm, err := workloads.BuildETL(workloads.ETLOptions{
			Broker: broker, Redis: redis, Spouts: 2, Filters: 2, Aggregators: 2,
		})
		if err != nil {
			return err
		}
		spec, tmrs = s, tm
	default:
		return fmt.Errorf("unknown topology %q", *topology)
	}

	fmt.Printf("submitting %q: scheduler=%s packing=%s statemgr=%s containers=%d acks=%v\n",
		spec.Topology.Name, *schedName, *packing, *statemgrName, *containers, *acks)
	h, err := heron.Submit(spec, cfg)
	if err != nil {
		return err
	}
	defer h.Kill()
	if err := h.WaitRunning(30 * time.Second); err != nil {
		return err
	}
	plan, err := h.PackingPlan()
	if err != nil {
		return err
	}
	fmt.Printf("running: %d containers, %d instances\n", len(plan.Containers), plan.NumInstances())
	for _, c := range plan.Containers {
		fmt.Printf("  container %d: %d instances, ask %v\n", c.ID, len(c.Instances), c.Required)
	}

	deadline := time.After(*duration)
	var scaleTimer <-chan time.Time
	if *scaleSpec != "" {
		scaleTimer = time.After(*scaleAfter)
	}
	var restartTimer <-chan time.Time
	if *restart >= -1 {
		restartTimer = time.After(*scaleAfter)
	}
	status := time.NewTicker(2 * time.Second)
	defer status.Stop()

	printStatus := func() {
		switch {
		case stats != nil:
			fmt.Printf("  emitted=%d executed=%d acked=%d failed=%d\n",
				stats.Emitted.Load(), stats.Executed.Load(), stats.Acked.Load(), stats.Failed.Load())
		case tmrs != nil:
			fmt.Printf("  events=%d aggregates=%d redis-keys=%d\n",
				tmrs.Events.Load(), tmrs.Aggregates.Load(), redis.Keys())
		}
	}

	for {
		select {
		case <-status.C:
			printStatus()
		case <-scaleTimer:
			scaleTimer = nil
			changes, err := parseScale(*scaleSpec)
			if err != nil {
				return err
			}
			fmt.Printf("scaling: %v\n", changes)
			if err := h.Scale(changes); err != nil {
				return fmt.Errorf("scale: %w", err)
			}
			if plan, err := h.PackingPlan(); err == nil {
				fmt.Printf("new plan: %d containers, %d instances\n", len(plan.Containers), plan.NumInstances())
			}
		case <-restartTimer:
			restartTimer = nil
			fmt.Printf("restarting container %d\n", *restart)
			if err := h.Restart(int32(*restart)); err != nil {
				return fmt.Errorf("restart: %w", err)
			}
		case <-deadline:
			printStatus()
			fmt.Println("killing topology")
			return h.Kill()
		}
	}
}

// parseScale parses "component=parallelism[,component=parallelism...]".
func parseScale(s string) (map[string]int, error) {
	out := map[string]int{}
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("bad -scale %q (want component=N)", part)
		}
		n, err := strconv.Atoi(kv[1])
		if err != nil {
			return nil, fmt.Errorf("bad -scale %q: %w", part, err)
		}
		out[kv[0]] = n
	}
	return out, nil
}
