package packing

import (
	"errors"
	"testing"

	"heron/internal/core"
)

func res(cpu float64, ram int64) core.Resource {
	return core.Resource{CPU: cpu, RAMMB: ram, DiskMB: ram}
}

func TestDominantShare(t *testing.T) {
	cases := []struct {
		name     string
		used, in core.Resource
		want     float64
	}{
		{"zero capacity is unlimited", res(4, 4096), core.Resource{}, 0},
		{"cpu dominates", core.Resource{CPU: 2, RAMMB: 1024}, core.Resource{CPU: 4, RAMMB: 8192}, 0.5},
		{"ram dominates", core.Resource{CPU: 1, RAMMB: 6144}, core.Resource{CPU: 4, RAMMB: 8192}, 0.75},
		{"partial capacity: only bounded dims count", core.Resource{CPU: 3, RAMMB: 999999}, core.Resource{CPU: 4}, 0.75},
	}
	for _, c := range cases {
		if got := DominantShare(c.used, c.in); got != c.want {
			t.Errorf("%s: DominantShare = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestFairPlacerSpreadsAcrossNodes(t *testing.T) {
	// Four identical nodes, four identical containers: each must land on
	// its own node (worst-fit spread), simulating the placement state as
	// the caller would update it between calls.
	offers := []NodeOffer{
		{"n0", res(8, 8192)}, {"n1", res(8, 8192)}, {"n2", res(8, 8192)}, {"n3", res(8, 8192)},
	}
	caps := map[string]core.Resource{}
	for _, o := range offers {
		caps[o.Node] = o.Free
	}
	var p FairPlacer
	seen := map[string]bool{}
	for i := 0; i < 4; i++ {
		node, err := p.Place(offers, res(2, 2048), PlaceContext{NodeCapacity: caps})
		if err != nil {
			t.Fatal(err)
		}
		if seen[node] {
			t.Fatalf("container %d stacked onto already-used node %s", i, node)
		}
		seen[node] = true
		for j := range offers {
			if offers[j].Node == node {
				offers[j].Free = offers[j].Free.Sub(res(2, 2048))
			}
		}
	}
}

func TestFairPlacerPrefersLeastLoadedNode(t *testing.T) {
	offers := []NodeOffer{
		{"hot", res(1, 1024)},  // nearly full
		{"cool", res(7, 7168)}, // mostly free
	}
	caps := map[string]core.Resource{"hot": res(8, 8192), "cool": res(8, 8192)}
	node, err := FairPlacer{}.Place(offers, res(1, 1024), PlaceContext{NodeCapacity: caps})
	if err != nil {
		t.Fatal(err)
	}
	if node != "cool" {
		t.Fatalf("placed on %q, want the least-loaded node", node)
	}
}

func TestFairPlacerIsolationTieBreak(t *testing.T) {
	// Equal free capacity: the node without other tenants' containers wins
	// even though its name sorts later.
	offers := []NodeOffer{
		{"a-shared", res(8, 8192)},
		{"b-empty", res(8, 8192)},
	}
	caps := map[string]core.Resource{"a-shared": res(8, 8192), "b-empty": res(8, 8192)}
	node, err := FairPlacer{}.Place(offers, res(2, 2048), PlaceContext{
		NodeCapacity:          caps,
		OtherTenantContainers: map[string]int{"a-shared": 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if node != "b-empty" {
		t.Fatalf("placed on %q, want the tenant-free node", node)
	}
}

func TestFairPlacerDeterministicNameTieBreak(t *testing.T) {
	offers := []NodeOffer{{"n1", res(8, 8192)}, {"n0", res(8, 8192)}}
	node, err := FairPlacer{}.Place(offers, res(1, 1024), PlaceContext{})
	if err != nil {
		t.Fatal(err)
	}
	if node != "n0" {
		t.Fatalf("placed on %q, want lexically smallest node on full tie", node)
	}
}

func TestFairPlacerNoFeasibleNode(t *testing.T) {
	offers := []NodeOffer{{"n0", res(1, 1024)}}
	_, err := FairPlacer{}.Place(offers, res(4, 4096), PlaceContext{})
	if !errors.Is(err, ErrNoFeasibleNode) {
		t.Fatalf("err = %v, want ErrNoFeasibleNode", err)
	}
}
