package main

import (
	"bufio"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// CPU attribution: flat samples of a runtime/pprof CPU profile, as
// printed by `go tool pprof -top`, grouped into layers by function-name
// prefix.

// cpuGroups are the cpu.<group>_share metrics, in print order.
var cpuGroups = []string{
	"instance", "tuple", "network", "stmgr", "acker", "checkpoint", "metrics", "control",
	"user", "runtime_gc", "runtime_sched", "syscall", "other",
}

// prefixGroups maps a function-name prefix to its group; the first match
// wins, so longer prefixes come first.
var prefixGroups = []struct{ prefix, group string }{
	{"heron/internal/instance.", "instance"},
	{"heron/api.", "instance"},
	{"heron/internal/core.", "instance"}, // groupings and their hash run inside Emit
	{"heron/internal/tuple.", "tuple"},
	{"heron/internal/encoding/wire.", "tuple"},
	{"heron/internal/network.", "network"},
	{"heron/internal/stmgr.", "stmgr"},
	{"heron/internal/acker.", "acker"},
	{"heron/internal/checkpoint.", "checkpoint"},
	{"heron/internal/metrics.", "metrics"},
	// What the operators and the simulated services run: the benchmark's
	// own spouts and bolts, kafkasim, redissim and the libraries they call.
	{"main.", "user"},
	{"heron/internal/extsvc/", "user"},
	{"heron/internal/workloads.", "user"},
	{"encoding/json.", "user"},
	{"compress/", "user"},
	{"hash/", "user"},
	{"strings.", "user"},
	{"strconv.", "user"},
	{"reflect.", "user"},
	{"unicode/", "user"},
	{"bytes.", "user"},
	{"io.", "user"},
	{"bufio.", "user"},
	// Every other engine package is control plane.
	{"heron", "control"},
	{"syscall.", "syscall"},
	{"internal/runtime/syscall.", "syscall"},
	{"runtime/internal/syscall.", "syscall"},
	{"internal/poll.", "syscall"},
	{"net.", "syscall"},
	{"os.", "syscall"},
}

// runtimeGC and runtimeSched classify functions of package runtime by a
// fragment of their name: memory management (allocation and collection)
// and goroutine scheduling (including the futex and epoll waits it
// parks in). The rest of package runtime — memmove, map access, hashing —
// is "other".
var (
	runtimeGC = []string{"gc", "GC", "malloc", "scan", "sweep", "mark", "grey", "wbBuf", "mcache", "mcentral",
		"mheap", "mspan", "heapBits", "spanOf", "findObject", "nextFree", "bulkBarrier", "typePointers",
		"memclr", "publicationBarrier", "pageAlloc", "(*fixalloc)", "writeHeapBits", "deductAssistCredit"}
	runtimeSched = []string{"sched", "park", "ready", "futex", "lock", "chan", "select", "netpoll", "epoll",
		"usleep", "osyield", "note", "runq", "steal", "wakep", "startm", "stopm", "mcall", "casgstatus",
		"execute", "timer", "findRunnable", "pidle", "gosched", "Gosched", "sema", "mPark",
		"systemstack", "morestack", "goexit", "resetspinning", "checkTimers", "runtime.wake", "handoff", "procyield"}
)

func cpuGroupOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "runtime."); ok {
		for _, frag := range runtimeGC {
			if strings.Contains(rest, frag) {
				return "runtime_gc"
			}
		}
		for _, frag := range runtimeSched {
			if strings.Contains(rest, frag) {
				return "runtime_sched"
			}
		}
		return "other"
	}
	for _, pg := range prefixGroups {
		if strings.HasPrefix(fn, pg.prefix) {
			return pg.group
		}
	}
	return "other"
}

// pprofTop is the parsed output of `go tool pprof -top`.
type pprofTop struct {
	total float64            // seconds, from the "Total samples" header
	flat  map[string]float64 // function → flat seconds
}

// parseDuration reads pprof's "1.20s", "350ms", "12us", "0" forms.
func parseDuration(s string) (float64, error) {
	units := []struct {
		suffix string
		scale  float64
	}{{"ms", 1e-3}, {"us", 1e-6}, {"µs", 1e-6}, {"ns", 1e-9}, {"hrs", 3600}, {"min", 60}, {"s", 1}}
	for _, u := range units {
		if num, ok := strings.CutSuffix(s, u.suffix); ok {
			v, err := strconv.ParseFloat(num, 64)
			return v * u.scale, err
		}
	}
	return strconv.ParseFloat(s, 64)
}

// parsePprofTop reads the text `go tool pprof -top` prints:
//
//	Duration: 10.1s, Total samples = 18.5s (183%)
//	      flat  flat%   sum%        cum   cum%
//	     1.20s  6.49%  6.49%      1.20s  6.49%  runtime.futex
func parsePprofTop(text string) (*pprofTop, error) {
	top := &pprofTop{flat: map[string]float64{}}
	inTable := false
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		line := sc.Text()
		if !inTable {
			if i := strings.Index(line, "Total samples = "); i >= 0 {
				f := strings.Fields(line[i+len("Total samples = "):])
				if len(f) == 0 {
					return nil, fmt.Errorf("pprof: malformed header %q", line)
				}
				v, err := parseDuration(f[0])
				if err != nil {
					return nil, fmt.Errorf("pprof: total in %q: %w", line, err)
				}
				top.total = v
			}
			f := strings.Fields(line)
			inTable = len(f) >= 2 && f[0] == "flat" && f[1] == "flat%"
			continue
		}
		f := strings.Fields(line)
		if len(f) < 6 {
			continue
		}
		v, err := parseDuration(f[0])
		if err != nil {
			return nil, fmt.Errorf("pprof: flat value in %q: %w", line, err)
		}
		top.flat[strings.Join(f[5:], " ")] += v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !inTable {
		return nil, fmt.Errorf("pprof: no sample table in the output")
	}
	return top, nil
}

// shares groups the flat samples; the shares are of the samples listed,
// so they sum to 1. covered is listed ÷ total, the check that the listing
// was complete.
func (top *pprofTop) shares() (byGroup map[string]float64, covered float64) {
	byGroup = map[string]float64{}
	var listed float64
	for fn, v := range top.flat {
		byGroup[cpuGroupOf(fn)] += v
		listed += v
	}
	if listed > 0 {
		for g := range byGroup {
			byGroup[g] /= listed
		}
	}
	if top.total > 0 {
		covered = listed / top.total
	}
	return byGroup, covered
}

// cpuShares shells out to `go tool pprof -top` on the profile and fills
// the cpu.*_share metrics.
func cpuShares(profile string, out map[string]float64) error {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", profile)
	text, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("go tool pprof -top: %w", err)
	}
	top, err := parsePprofTop(string(text))
	if err != nil {
		return err
	}
	byGroup, covered := top.shares()
	if covered < 0.98 || covered > 1.02 {
		return fmt.Errorf("pprof: listed functions cover %.3f of the samples, want 1 ± 0.02", covered)
	}
	for _, g := range cpuGroups {
		out["cpu."+g+"_share"] = byGroup[g]
	}
	return nil
}
