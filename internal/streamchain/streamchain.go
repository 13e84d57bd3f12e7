// Package streamchain reimplements Streamchain (István et al.,
// SERIAL'18) as a fabric.Variant: the ordering service streams
// transactions one-by-one instead of batching them into blocks, the
// validation pipeline is parallelized/pipelined, and the ledger and
// world state live on a RAM disk (§5.3 of the study).
//
// The mechanics reproduced here: block size forced to 1 (every
// transaction is its own "block"), a pipelined committer whose fixed
// per-block overhead is far smaller than stock Fabric's, and a
// RAM-disk toggle that decides whether commits pay memory or disk
// costs. What the study observes then follows: world state updates
// propagate quickly at low rates (fewer MVCC conflicts, lower
// latency), while the per-transaction fixed overheads — especially
// the orderer's per-peer delivery fan-out — swamp the system at high
// rates or on the 32-peer cluster (Fig 20/21), and removing the RAM
// disk collapses it even sooner (Fig 23).
package streamchain

import (
	"time"

	"repro/internal/fabric"
)

// Variant is the Streamchain ordering/commit extension. It acts only
// through Adjust; the other hooks are fabric.Vanilla's: no decision at
// submission, nothing to reorder in a single-transaction block, full
// validation, and no feedback from it.
type Variant struct {
	fabric.Vanilla
	// RAMDisk selects memory-backed ledger and state storage (the
	// prototype's requirement). Without it, every streamed commit
	// pays disk latency.
	RAMDisk bool
}

// New returns Streamchain with a RAM disk, as the authors require.
func New() *Variant { return &Variant{RAMDisk: true} }

// NewWithoutRAMDisk returns the ablation of §5.3.3.
func NewWithoutRAMDisk() *Variant { return &Variant{RAMDisk: false} }

// Name implements fabric.Variant.
func (v *Variant) Name() string {
	if v.RAMDisk {
		return "streamchain"
	}
	return "streamchain-noramdisk"
}

// Adjust implements fabric.Variant: stream transactions one-by-one
// and re-price the committer for the pipelined validator.
func (v *Variant) Adjust(cfg *fabric.Config) {
	cfg.BlockSize = 1
	cfg.BlockTimeout = time.Millisecond
	cfg.MaxBlockKB = 0
	// Pipelining hides most of the per-block fixed cost; the RAM
	// disk removes the storage part of it. Without the RAM disk each
	// streamed commit pays the filesystem.
	if v.RAMDisk {
		cfg.PeerCosts.BlockBase = 2500 * time.Microsecond
	} else {
		cfg.PeerCosts.BlockBase = 9 * time.Millisecond
	}
	// Cutting is trivial for single-transaction blocks.
	cfg.OrdererCosts.BlockCut = 300 * time.Microsecond
}
