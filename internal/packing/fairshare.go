// Fair/priority node placement for the multi-tenant substrate.
//
// The RoundRobin and BinPacking resource managers decide which *container*
// an instance lands in; on a shared cluster a second decision follows:
// which *node* each container lands on, across every tenant's topologies.
// FairPlacer makes that decision. It optimizes three things, in order:
//
//  1. Feasibility — the container must fit the node's free capacity.
//  2. Spread — among feasible nodes, prefer the one whose dominant
//     resource stays least utilized after placement (worst-fit). This is
//     what keeps one tenant's burst from stacking onto an already-hot
//     node, the placement half of noisy-neighbor isolation.
//  3. Isolation — ties break toward the node hosting the fewest
//     containers of *other* tenants, so co-location across tenants only
//     happens when capacity forces it. Remaining ties go to the lexically
//     smallest node name, keeping placement deterministic.
package packing

import (
	"fmt"

	"heron/internal/core"
)

// NodeOffer is one node's free capacity, the placement input. It mirrors
// cluster.Offer without importing the cluster package.
type NodeOffer struct {
	Node string
	Free core.Resource
}

// DominantShare is the DRF scalar: the largest fraction any single
// resource dimension of used consumes out of capacity. Zero-valued
// capacity dimensions are treated as unlimited (share 0 in that
// dimension); a fully zero capacity yields share 0.
func DominantShare(used, capacity core.Resource) float64 {
	share := 0.0
	if capacity.CPU > 0 {
		if s := used.CPU / capacity.CPU; s > share {
			share = s
		}
	}
	if capacity.RAMMB > 0 {
		if s := float64(used.RAMMB) / float64(capacity.RAMMB); s > share {
			share = s
		}
	}
	if capacity.DiskMB > 0 {
		if s := float64(used.DiskMB) / float64(capacity.DiskMB); s > share {
			share = s
		}
	}
	return share
}

// PlaceContext carries the cross-tenant state one placement decision
// consults. All fields are optional; a zero context degrades to pure
// worst-fit spread.
type PlaceContext struct {
	// NodeCapacity is each node's total capacity (for the post-placement
	// utilization score). When a node is absent, its offer's free capacity
	// is used as the capacity — the score then measures absolute headroom.
	NodeCapacity map[string]core.Resource
	// OtherTenantContainers counts containers of every *other* tenant per
	// node — the isolation tie-breaker.
	OtherTenantContainers map[string]int
}

// ErrNoFeasibleNode reports that no offered node can fit a request.
var ErrNoFeasibleNode = fmt.Errorf("packing: no node fits the container")

// FairPlacer places containers onto shared nodes. It is stateless; the
// caller supplies current cluster state on every call.
type FairPlacer struct{}

// Place picks the node for one container ask. See the package comment for
// the policy.
func (FairPlacer) Place(offers []NodeOffer, req core.Resource, ctx PlaceContext) (string, error) {
	best := -1
	var bestScore float64 // free dominant-share after placement; higher is better
	for i, o := range offers {
		if !req.Fits(o.Free) {
			continue
		}
		cap := o.Free
		if c, ok := ctx.NodeCapacity[o.Node]; ok && !c.IsZero() {
			cap = c
		}
		// Utilization of the node if the container lands here; the score is
		// the headroom that remains on the tightest dimension.
		score := 1 - DominantShare(cap.Sub(o.Free).Add(req), cap)
		if best == -1 {
			best, bestScore = i, score
			continue
		}
		switch {
		case score > bestScore+1e-12:
			best, bestScore = i, score
		case score > bestScore-1e-12: // tie on spread → isolation, then name
			bi, oi := offers[best], o
			cb, co := ctx.OtherTenantContainers[bi.Node], ctx.OtherTenantContainers[oi.Node]
			if co < cb || (co == cb && oi.Node < bi.Node) {
				best, bestScore = i, score
			}
		}
	}
	if best == -1 {
		return "", fmt.Errorf("%w: need %v", ErrNoFeasibleNode, req)
	}
	return offers[best].Node, nil
}
