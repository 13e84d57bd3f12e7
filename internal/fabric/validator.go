package fabric

import (
	"fmt"
	"time"

	"repro/internal/costmodel"
	"repro/internal/ledger"
	"repro/internal/statedb"
)

// validator computes each block's validation outcome exactly once.
// Fabric's validation is deterministic — every peer reaches the same
// verdict — so the network computes it centrally against the head of
// the channel's world state, and peers replay the cached result at
// their own commit times. Blocks must be validated in order; the
// ordering service triggers validation at cut time.
type validator struct {
	nw   *Network
	db   statedb.VersionedDB
	next uint64
	// memo holds the outcome of every block some peer has yet to commit.
	memo map[uint64]*valResult
	// overlay and overlayDel hold the keys the block's earlier valid
	// transactions wrote and deleted (the state the version check runs
	// against), attempted those any earlier one wrote: Equation 3 calls a
	// conflict intra-block whether or not its writer committed. validate
	// clears all three for each block.
	overlay    map[string]ledger.Height
	overlayDel map[string]bool
	attempted  map[string]bool
}

// valResult is one block's cached outcome. It lives until the last
// peer commits the block: a peer's view moves past the block only by
// naming the batch the validator applied.
type valResult struct {
	codes        []ledger.ValidationCode
	batch        statedb.UpdateBatch
	validateCost time.Duration // VSCC+MVCC+phantom cost, pre-jitter
	// pending counts the peers that have not committed the block. A
	// crashed peer holds its count until its restart replays the block.
	pending int
}

func newValidator(nw *Network, db statedb.VersionedDB) *validator {
	return &validator{nw: nw, db: db, memo: map[uint64]*valResult{},
		overlay: map[string]ledger.Height{}, overlayDel: map[string]bool{}, attempted: map[string]bool{}}
}

// result returns the cached outcome for b, validating it if this is
// the first request. Out-of-order first requests are a bug.
func (v *validator) result(b *ledger.Block) *valResult {
	if r, ok := v.memo[b.Number]; ok {
		return r
	}
	if b.Number != v.next+1 && !(v.next == 0 && b.Number == 1) {
		panic(fmt.Sprintf("fabric: block %d validated out of order (next %d)", b.Number, v.next+1))
	}
	r := v.validate(b)
	r.pending = len(v.nw.peers)
	v.memo[b.Number] = r
	v.next = b.Number
	return r
}

// committed records that one more peer has applied block num's batch
// and forgets the outcome after the last of them.
func (v *validator) committed(num uint64) {
	r := v.memo[num]
	if r.pending--; r.pending == 0 {
		delete(v.memo, num)
	}
}

// validate runs the validation phase (§2 step 6) for every transaction
// in the block: VSCC (signatures against the endorsement policy and
// read/write-set consistency across endorsers), then MVCC version
// checks with intra/inter-block classification, then phantom
// re-execution of checked range queries. Valid writes are applied to
// the channel's world state with version (blockNum, txNum).
func (v *validator) validate(b *ledger.Block) *valResult {
	res := &valResult{codes: make([]ledger.ValidationCode, len(b.Transactions))}
	clear(v.overlay)
	clear(v.overlayDel)
	clear(v.attempted)

	nSub := v.nw.pol.SubPolicies()
	for i, tx := range b.Transactions {
		res.validateCost += costmodel.ValidateCost(
			v.nw.dbCosts, v.nw.cfg.PeerCosts, len(tx.Endorsements), nSub, tx.RWSet)

		code := v.vscc(tx)
		if code == ledger.Valid && !v.nw.variant.SkipMVCC() {
			code = v.mvcc(tx.RWSet)
		}
		res.codes[i] = code
		if code == ledger.Valid {
			h := ledger.Height{BlockNum: b.Number, TxNum: uint64(i)}
			for _, w := range tx.RWSet.Writes {
				res.batch.Add(w, h)
				if w.IsDelete {
					v.overlayDel[w.Key] = true
					delete(v.overlay, w.Key)
				} else {
					v.overlay[w.Key] = h
					delete(v.overlayDel, w.Key)
				}
			}
		}
		for _, w := range tx.RWSet.Writes {
			v.attempted[w.Key] = true
		}
		// The batch now owns the documents of the valid writes and nothing
		// will read the others: the chain keeps every transaction, so it
		// must not keep a decoded document alive.
		tx.RWSet.DropDocs()
		for _, e := range tx.Endorsements {
			e.RWSet.DropDocs()
		}
	}
	if err := v.db.ApplyUpdates(&res.batch, b.Number); err != nil {
		panic("fabric: validator apply: " + err.Error())
	}
	v.nw.variant.OnBlockValidated(b, res.codes)
	return res
}

// vscc checks the endorsement policy (§2 step 6): enough valid
// signatures from the right orgs, and identical read/write sets across
// all endorsers (Equation 1 — the paper's endorsement policy failure).
// Each signature is verified against the digest its endorser carried,
// and Equation 1 compares those digests: nothing is rehashed here.
func (v *validator) vscc(tx *ledger.Transaction) ledger.ValidationCode {
	if len(tx.Endorsements) == 0 {
		return ledger.EndorsementPolicyFailure
	}
	orgs := map[string]bool{}
	first := tx.Endorsements[0].Digest
	for _, e := range tx.Endorsements {
		// A digest unlike the first is a world-state inconsistency
		// between endorsers at simulation time: an rwset mismatch.
		if !v.nw.msp.Verify(e.Org, e.PeerID, e.Digest[:], e.Signature) || e.Digest != first {
			return ledger.EndorsementPolicyFailure
		}
		orgs[e.Org] = true
	}
	if !v.nw.pol.Satisfied(orgs) {
		return ledger.EndorsementPolicyFailure
	}
	return ledger.Valid
}

// mvcc performs the version checks of Equations 2-5 against the
// validator replica plus the block-local overlay. attempted holds
// every key written by an earlier transaction of the block (valid or
// not) and drives the intra (Eq. 3) vs inter (Eq. 4) classification.
func (v *validator) mvcc(rw *ledger.RWSet) ledger.ValidationCode {
	classify := func(key string) ledger.ValidationCode {
		if v.attempted[key] {
			return ledger.MVCCConflictIntraBlock
		}
		return ledger.MVCCConflictInterBlock
	}
	// Plain reads: Equation 2.
	for _, r := range rw.Reads {
		if h, ok := v.overlay[r.Key]; ok {
			if h != r.Version {
				return classify(r.Key)
			}
			continue
		}
		if v.overlayDel[r.Key] {
			return classify(r.Key)
		}
		if code := v.checkCommitted(r); code != ledger.Valid {
			return classify(r.Key)
		}
	}
	// Checked range queries: re-execute the scan (Equation 5).
	for i := range rw.RangeQueries {
		rq := &rw.RangeQueries[i]
		if rq.Unchecked {
			continue
		}
		if !rangeUnchanged(v.db, rq, v.overlay, v.overlayDel) {
			return ledger.PhantomReadConflict
		}
	}
	return ledger.Valid
}

func (v *validator) checkCommitted(r ledger.KVRead) ledger.ValidationCode {
	vv := v.db.Get(r.Key)
	switch {
	case vv == nil && r.Version == ledger.ZeroHeight:
		return ledger.Valid // absent then, absent now
	case vv == nil || vv.Version != r.Version:
		return ledger.MVCCConflictInterBlock
	}
	return ledger.Valid
}
