// Package costmodel holds the virtual-time service-cost calibration of
// the simulation. The protocol logic executes for real; these numbers
// decide how much virtual time each step consumes. They are calibrated
// against the paper's own measurements: the per-function-call
// latencies of Table 4 (GetState 8.3 ms CouchDB / 0.6 ms LevelDB,
// PutState 0.8/0.5, GetRange 88/1.4, DeleteState 1.2/0.6) and the
// testbed's ~200 tps capacity (§5).
//
// Nothing here hard-codes a failure rate: failures emerge from the
// interplay of these latencies with the E-O-V protocol.
package costmodel

import (
	"time"

	"repro/internal/ledger"
	"repro/internal/statedb"
)

// DBCosts is the per-operation cost of one state-database backend as
// seen by the chaincode runtime (endorsement simulation and phantom
// re-execution both pay them).
type DBCosts struct {
	Get         time.Duration // GetState
	Put         time.Duration // PutState (buffered write at endorsement)
	Delete      time.Duration // DeleteState
	RangeBase   time.Duration // fixed cost of opening a range scan
	RangePerKey time.Duration // per returned key
	QueryBase   time.Duration // fixed cost of a rich (selector) query
	QueryPerDoc time.Duration // per scanned document
	CommitBase  time.Duration // per-block state-db commit overhead
	CommitWrite time.Duration // per committed write
	// ValRangeBase/ValRangePerKey price the *validation-phase*
	// re-execution of a checked range query (phantom detection). They
	// are much cheaper than the endorsement-side RangeBase because
	// validation reads the state database directly, without the
	// chaincode shim round trips that dominate Table 4's GetRange.
	ValRangeBase   time.Duration
	ValRangePerKey time.Duration
}

// ForKind returns the calibrated cost profile of a backend. LevelDB is
// embedded in the peer process; CouchDB is reached via REST, which
// adds a per-call overhead that dominates for reads and is
// catastrophic for range scans (Table 4, §5.1.2).
func ForKind(k statedb.Kind) DBCosts {
	if k == statedb.CouchDB {
		return DBCosts{
			Get:            8300 * time.Microsecond,
			Put:            800 * time.Microsecond,
			Delete:         1200 * time.Microsecond,
			RangeBase:      80 * time.Millisecond,
			RangePerKey:    10 * time.Microsecond,
			QueryBase:      80 * time.Millisecond,
			QueryPerDoc:    4 * time.Microsecond,
			CommitBase:     4 * time.Millisecond,
			CommitWrite:    2 * time.Millisecond,
			ValRangeBase:   2 * time.Millisecond,
			ValRangePerKey: 2 * time.Microsecond,
		}
	}
	return DBCosts{
		Get:         600 * time.Microsecond,
		Put:         500 * time.Microsecond,
		Delete:      600 * time.Microsecond,
		RangeBase:   1200 * time.Microsecond,
		RangePerKey: 25 * time.Nanosecond,
		// LevelDB has no rich queries; costs left zero.
		CommitBase:     500 * time.Microsecond,
		CommitWrite:    100 * time.Microsecond,
		ValRangeBase:   200 * time.Microsecond,
		ValRangePerKey: 25 * time.Nanosecond,
	}
}

// PeerCosts is the validation/commit-side cost profile of a peer.
type PeerCosts struct {
	// EndorseBase is the fixed proposal-handling cost (gRPC, channel
	// checks, signing the response).
	EndorseBase time.Duration
	// EndorserWorkers is the number of proposals a peer simulates
	// concurrently. It bounds endorsement throughput: range-heavy
	// CouchDB work at ~88 ms per scan saturates the endorsers — the
	// mechanism behind Table 4's range-heavy latency collapse.
	EndorserWorkers int
	// SigVerify is the cost of verifying one endorsement signature
	// during VSCC validation.
	SigVerify time.Duration
	// SubPolicy is the additional VSCC search cost per sub-policy in
	// the endorsement policy (§5.1.4: each sub-policy is a separate
	// search space).
	SubPolicy time.Duration
	// MVCCPerKey is the version-check cost per read key.
	MVCCPerKey time.Duration
	// BlockBase is the fixed per-block cost of the committer (ledger
	// append, index update). It is what makes many small blocks more
	// expensive than few large ones (§5.1.1).
	BlockBase time.Duration
	// Jitter is the relative service-time variance (uniform ±Jitter)
	// applied per peer to the *fixed* per-block commit cost; it is
	// the dominant source of transient world-state inconsistency
	// between replicas (endorsement policy failures).
	Jitter float64
	// VarJitter is the (smaller) relative variance of the per-
	// transaction part of block processing: per-tx fluctuations
	// average out over a block, so replica skew grows only mildly
	// with block size — which keeps endorsement failures roughly
	// flat across block sizes (Fig 9).
	VarJitter float64
}

// DefaultPeerCosts returns the calibrated peer profile.
func DefaultPeerCosts() PeerCosts {
	return PeerCosts{
		EndorseBase:     2 * time.Millisecond,
		EndorserWorkers: 4,
		SigVerify:       600 * time.Microsecond,
		SubPolicy:       900 * time.Microsecond,
		MVCCPerKey:      15 * time.Microsecond,
		BlockBase:       45 * time.Millisecond,
		Jitter:          0.35,
		VarJitter:       0.08,
	}
}

// OrdererCosts is the ordering-service cost profile.
type OrdererCosts struct {
	// PerTx is the per-transaction ingestion cost (unmarshal, enqueue
	// into the consensus log).
	PerTx time.Duration
	// BlockCut is the per-block assembly cost.
	BlockCut time.Duration
	// PerDeliver is the per-peer cost of streaming one block out of
	// the ordering service. It is what makes Streamchain's
	// one-transaction blocks collapse on the 32-peer cluster
	// (§5.3.1: "streaming the transactions one-by-one will increase
	// the communication overhead between the orderer and the
	// multiple peers").
	PerDeliver time.Duration
}

// DefaultOrdererCosts returns the calibrated orderer profile.
func DefaultOrdererCosts() OrdererCosts {
	return OrdererCosts{
		PerTx:      150 * time.Microsecond,
		BlockCut:   2 * time.Millisecond,
		PerDeliver: 400 * time.Microsecond,
	}
}

// OpTrace summarizes the state-database operations performed by one
// chaincode invocation; the chaincode shim records it and the cost
// model prices it.
type OpTrace struct {
	Gets       int
	Puts       int
	Deletes    int
	Ranges     int
	RangeKeys  int // total keys returned by plain range scans
	Queries    int
	QueryDocs  int // total documents scanned by rich queries
	ScannedLen int // db size at query time (rich queries scan everything)
}

// EndorseCost prices the simulation of one transaction on an endorser.
func EndorseCost(db DBCosts, peer PeerCosts, t OpTrace) time.Duration {
	d := peer.EndorseBase
	d += time.Duration(t.Gets) * db.Get
	d += time.Duration(t.Puts) * db.Put
	d += time.Duration(t.Deletes) * db.Delete
	d += time.Duration(t.Ranges)*db.RangeBase + time.Duration(t.RangeKeys)*db.RangePerKey
	d += time.Duration(t.Queries)*db.QueryBase + time.Duration(t.ScannedLen)*db.QueryPerDoc
	return d
}

// ValidateCost prices VSCC+MVCC validation of one transaction: nSigs
// signature verifications, the sub-policy search overhead, a version
// check per read key, and re-execution of checked range queries
// (phantom detection re-reads the whole range from the state db,
// which is what makes range-heavy CouchDB workloads collapse).
func ValidateCost(db DBCosts, peer PeerCosts, nSigs, nSubPolicies int, rw *ledger.RWSet) time.Duration {
	d := time.Duration(nSigs)*peer.SigVerify + time.Duration(nSubPolicies)*peer.SubPolicy
	nReads := len(rw.Reads)
	for _, rq := range rw.RangeQueries {
		if rq.Unchecked {
			continue // rich queries are not re-executed (Table 2 footnote)
		}
		nReads += len(rq.Reads)
		d += db.ValRangeBase + time.Duration(len(rq.Reads))*db.ValRangePerKey
	}
	d += time.Duration(nReads) * peer.MVCCPerKey
	return d
}

// CommitCost prices applying a block's update batch to the state
// database plus the fixed per-block ledger append.
func CommitCost(db DBCosts, peer PeerCosts, nWrites int) time.Duration {
	return peer.BlockBase + db.CommitBase + time.Duration(nWrites)*db.CommitWrite
}
