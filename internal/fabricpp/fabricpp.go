// Package fabricpp reimplements Fabric++ (Sharma et al., SIGMOD'19) as
// a fabric.Variant: in the ordering phase, each cut batch's conflict
// graph is built, cycles are removed by aborting transactions (a
// greedy approximation of the NP-hard minimum feedback vertex set),
// and the surviving transactions are serialized so that within-block
// conflicts cannot invalidate them (§5.2 of the study).
//
// The defining cost is conflict-graph construction: one hash probe of
// the block's write sets per read key, plus, per checked range query,
// one probe per written key inside the range (found by binary search
// over the sorted written keys). conflictgraph.BuildResult.Lookups
// counts both, and PerLookup prices each alike: with large range reads
// (DV scans 1000 voters per vote) this work explodes and the ordering
// service becomes the bottleneck — the latency blow-up of Fig 18.
package fabricpp

import (
	"time"

	"repro/internal/conflictgraph"
	"repro/internal/fabric"
	"repro/internal/ledger"
)

// Variant is the Fabric++ ordering extension. It acts only at block
// cut; the other hooks are fabric.Vanilla's. It changes no base costs
// and takes no per-transaction decision at submission. Validation
// still runs in full (no SkipMVCC): inter-block conflicts are not
// resolvable by within-block reordering (§3.2.2). It needs no feedback
// from validation.
type Variant struct {
	fabric.Vanilla
	// PerLookup prices one read-key probe during graph construction.
	PerLookup time.Duration
	// stats
	reordered int
	aborted   int
}

// New returns the variant with the calibrated graph-probe cost.
func New() *Variant {
	return &Variant{PerLookup: 500 * time.Nanosecond}
}

// Name implements fabric.Variant.
func (v *Variant) Name() string { return "fabric++" }

// OnCut implements fabric.Variant: reorder the batch, abort cycles.
func (v *Variant) OnCut(batch []*ledger.Transaction) ([]*ledger.Transaction, []*ledger.Transaction, time.Duration) {
	if len(batch) <= 1 {
		return batch, nil, 0
	}
	rwsets := make([]*ledger.RWSet, len(batch))
	for i, tx := range batch {
		rwsets[i] = tx.RWSet
	}
	res := conflictgraph.Build(rwsets)
	cost := time.Duration(res.Lookups) * v.PerLookup

	abortedIdx := res.Graph.BreakCycles()
	order := res.Graph.TopoOrder(abortedIdx)

	kept := make([]*ledger.Transaction, 0, len(order))
	for _, i := range order {
		kept = append(kept, batch[i])
	}
	aborted := make([]*ledger.Transaction, 0, len(abortedIdx))
	for _, i := range abortedIdx {
		aborted = append(aborted, batch[i])
	}
	v.reordered += len(kept)
	v.aborted += len(aborted)
	return kept, aborted, cost
}

// Stats reports how many transactions were serialized and aborted.
func (v *Variant) Stats() (reordered, aborted int) { return v.reordered, v.aborted }
