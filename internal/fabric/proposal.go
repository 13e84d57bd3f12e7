package fabric

import (
	"repro/internal/costmodel"
	"repro/internal/ledger"
	"repro/internal/statedb"
	"repro/internal/workload"
)

// proposal is one leg's endorsement request, shared by every endorser
// the client sends it to. Chaincode is deterministic, so two endorsers
// whose replicas agree on everything the invocation read produce the
// same read/write set; the proposal therefore keeps the first
// successful simulation. A later endorser whose view reads the very
// state it ran on takes it as it is; one at another state re-checks its
// observations against its own replica instead of running the chaincode
// again. The re-check is the same test validation applies to a read set
// (versions of plain reads, re-scan of checked ranges), so an endorser
// reuses a result exactly when simulating would have reproduced it, and
// simulates — yielding the differing rwset of Equation 1 — whenever its
// replica is ahead or behind on a key that was read.
type proposal struct {
	inv     workload.Invocation
	channel int
	// memo is the first successful simulation (a nil rwset until then).
	// It lives as long as the in-flight proposal.
	memo simulation
}

// simulation is what one chaincode invocation produced on one replica.
type simulation struct {
	rwset  *ledger.RWSet
	digest [32]byte
	trace  costmodel.OpTrace
	// absent has bit i set when rwset.Reads[i] found no key. The read's
	// Version cannot say so: an absent key reads as ledger.ZeroHeight,
	// which is also the version of the first genesis write.
	absent uint64
	on     statedb.State // the state it ran on
}

// resultOn returns what simulating the proposal on db, a replica of nw,
// produces: the kept simulation when db reads its state or it holds on
// db, else a fresh one, kept if it is the first to succeed.
func (prop *proposal) resultOn(nw *Network, db statedb.VersionedDB) (simulation, error) {
	on := db.State()
	if m := &prop.memo; m.rwset != nil {
		switch {
		case m.on == on:
			nw.memoSame++
			return *m, nil
		case !m.reusable():
		case m.holdsOn(db):
			nw.memoHits++
			return *m, nil
		default:
			nw.memoMisses++
		}
	}
	nw.stub.Reset(db)
	if err := nw.cfg.Chaincode.Invoke(nw.stub, prop.inv.Function, prop.inv.Args); err != nil {
		return simulation{}, err
	}
	rw := nw.stub.RWSet()
	res := simulation{rwset: rw, digest: rw.Digest(), trace: nw.stub.Trace(), on: on}
	if prop.memo.rwset == nil {
		res.markAbsent(db)
		prop.memo = res
	}
	return res, nil
}

// reusable reports whether an endorser at another state may check s
// instead of simulating: every observation must be one holdsOn can
// re-check. Rich query results are not (nothing re-executes them, as in
// validation), and the presence mask covers 64 plain reads.
func (s *simulation) reusable() bool {
	if len(s.rwset.Reads) > 64 {
		return false
	}
	for i := range s.rwset.RangeQueries {
		if s.rwset.RangeQueries[i].Unchecked {
			return false
		}
	}
	return true
}

// markAbsent fills the presence mask from db, the replica s was just
// simulated on. Only a read at ZeroHeight can be of an absent key.
func (s *simulation) markAbsent(db statedb.VersionedDB) {
	for i, r := range s.rwset.Reads {
		if r.Version == ledger.ZeroHeight && db.Get(r.Key) == nil {
			s.absent |= 1 << uint(i)
		}
	}
}

// holdsOn reports whether simulating on db would reproduce s: every
// plain read finds the same presence and version, and every range scan
// returns the same key/version list.
func (s *simulation) holdsOn(db statedb.VersionedDB) bool {
	for i, r := range s.rwset.Reads {
		vv := db.Get(r.Key)
		wasAbsent := s.absent>>uint(i)&1 == 1
		if (vv == nil) != wasAbsent || (vv != nil && vv.Version != r.Version) {
			return false
		}
	}
	for i := range s.rwset.RangeQueries {
		if !rangeUnchanged(db, &s.rwset.RangeQueries[i], nil, nil) {
			return false
		}
	}
	return true
}

// rangeUnchanged re-walks a range of db's committed index in place, with
// an optional block overlay (keys written, and keys deleted, by earlier
// valid transactions of the block under validation; nil for a bare
// replica), and compares it with the observation rq recorded at
// simulation time: any inserted, deleted or updated key fails it.
func rangeUnchanged(db statedb.VersionedDB, rq *ledger.RangeQueryInfo, overlay map[string]ledger.Height, overlayDel map[string]bool) bool {
	seen := 0
	for it := db.Scan(rq.StartKey, rq.EndKey); it.Valid(); it.Next() {
		key, ver := it.Key(), it.Value().Version
		if overlayDel[key] {
			continue
		}
		if h, ok := overlay[key]; ok {
			ver = h
		}
		if seen == len(rq.Reads) || rq.Reads[seen].Key != key || rq.Reads[seen].Version != ver {
			return false
		}
		seen++
	}
	if seen != len(rq.Reads) {
		return false
	}
	// Overlay inserts of keys absent from committed state.
	for key := range overlay {
		if key >= rq.StartKey && (rq.EndKey == "" || key < rq.EndKey) && db.Get(key) == nil {
			return false
		}
	}
	return true
}
