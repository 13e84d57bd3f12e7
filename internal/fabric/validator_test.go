package fabric

import (
	"testing"
	"time"

	"repro/internal/chaincodes/ehr"
	"repro/internal/ledger"
)

// harness builds a minimal network for direct validator tests.
func harness(t *testing.T) *Network {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Duration = time.Second
	cfg.Chaincode = ehr.New()
	cfg.Workload = ehr.NewWorkload(1)
	nw, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// endorse produces a consistent endorsement set for an rwset from the
// first peer of each org, each carrying the rwset's digest as a peer's
// endorsement does.
func endorse(nw *Network, rw *ledger.RWSet) []*ledger.Endorsement {
	digest := rw.Digest()
	var ends []*ledger.Endorsement
	for _, org := range nw.orgs {
		p := nw.peerOf(org, 0)
		ends = append(ends, &ledger.Endorsement{
			Org:       p.org,
			PeerID:    p.name,
			RWSet:     rw,
			Digest:    digest,
			Signature: p.identity.Sign(digest[:]),
		})
	}
	return ends
}

func mkTx(nw *Network, id string, rw *ledger.RWSet) *ledger.Transaction {
	return &ledger.Transaction{ID: id, RWSet: rw, Endorsements: endorse(nw, rw)}
}

func mkBlock(nw *Network, num uint64, txs ...*ledger.Transaction) *ledger.Block {
	b := &ledger.Block{Number: num, Transactions: txs}
	b.Hash = b.ComputeHash()
	return b
}

func TestVSCCAcceptsConsistentEndorsements(t *testing.T) {
	nw := harness(t)
	rw := &ledger.RWSet{
		Reads:  []ledger.KVRead{{Key: ehr.ProfileKey(1), Version: ledger.Height{BlockNum: 0, TxNum: 2}}},
		Writes: []ledger.KVWrite{{Key: ehr.ProfileKey(1), Value: []byte("x")}},
	}
	code := nw.vals[0].vscc(mkTx(nw, "t", rw))
	if code != ledger.Valid {
		t.Fatalf("vscc = %v, want VALID", code)
	}
}

func TestVSCCRejectsMismatchedRWSets(t *testing.T) {
	nw := harness(t)
	rwA := &ledger.RWSet{Reads: []ledger.KVRead{{Key: "k", Version: ledger.Height{BlockNum: 1}}}}
	rwB := &ledger.RWSet{Reads: []ledger.KVRead{{Key: "k", Version: ledger.Height{BlockNum: 2}}}}
	tx := mkTx(nw, "t", rwA)
	// Second endorser saw a different version of the key (Eq. 1).
	dB := rwB.Digest()
	tx.Endorsements[1].RWSet = rwB
	tx.Endorsements[1].Digest = dB
	tx.Endorsements[1].Signature = nw.peerOf(nw.orgs[1], 0).identity.Sign(dB[:])
	if code := nw.vals[0].vscc(tx); code != ledger.EndorsementPolicyFailure {
		t.Fatalf("vscc = %v, want ENDORSEMENT_POLICY_FAILURE", code)
	}
}

func TestVSCCRejectsBadSignature(t *testing.T) {
	nw := harness(t)
	rw := &ledger.RWSet{}
	tx := mkTx(nw, "t", rw)
	tx.Endorsements[0].Signature = []byte("forged")
	if code := nw.vals[0].vscc(tx); code != ledger.EndorsementPolicyFailure {
		t.Fatalf("vscc = %v, want failure for forged signature", code)
	}
}

func TestVSCCRejectsUnsatisfiedPolicy(t *testing.T) {
	nw := harness(t)
	rw := &ledger.RWSet{}
	tx := mkTx(nw, "t", rw)
	tx.Endorsements = tx.Endorsements[:1] // P0 needs all orgs
	if code := nw.vals[0].vscc(tx); code != ledger.EndorsementPolicyFailure {
		t.Fatalf("vscc = %v, want failure for missing org", code)
	}
	tx.Endorsements = nil
	if code := nw.vals[0].vscc(tx); code != ledger.EndorsementPolicyFailure {
		t.Fatalf("vscc = %v, want failure for no endorsements", code)
	}
}

func TestMVCCInterBlockConflict(t *testing.T) {
	nw := harness(t)
	key := ehr.ProfileKey(0)
	genesisVersion := nw.vals[0].db.Get(key).Version

	// Block 1: writer updates the key.
	writer := mkTx(nw, "w", &ledger.RWSet{
		Reads:  []ledger.KVRead{{Key: key, Version: genesisVersion}},
		Writes: []ledger.KVWrite{{Key: key, Value: []byte("new")}},
	})
	res1 := nw.vals[0].result(mkBlock(nw, 1, writer))
	if res1.codes[0] != ledger.Valid {
		t.Fatalf("writer = %v", res1.codes[0])
	}

	// Block 2: a reader endorsed against genesis fails inter-block.
	reader := mkTx(nw, "r", &ledger.RWSet{
		Reads: []ledger.KVRead{{Key: key, Version: genesisVersion}},
	})
	res2 := nw.vals[0].result(mkBlock(nw, 2, reader))
	if res2.codes[0] != ledger.MVCCConflictInterBlock {
		t.Fatalf("reader = %v, want inter-block conflict", res2.codes[0])
	}
}

func TestMVCCIntraBlockClassification(t *testing.T) {
	nw := harness(t)
	key := ehr.ProfileKey(2)
	v0 := nw.vals[0].db.Get(key).Version

	// Same block: T0 writes the key; T1 endorsed against the old
	// version -> intra-block conflict (Eq. 3).
	t0 := mkTx(nw, "t0", &ledger.RWSet{
		Reads:  []ledger.KVRead{{Key: key, Version: v0}},
		Writes: []ledger.KVWrite{{Key: key, Value: []byte("a")}},
	})
	t1 := mkTx(nw, "t1", &ledger.RWSet{
		Reads:  []ledger.KVRead{{Key: key, Version: v0}},
		Writes: []ledger.KVWrite{{Key: key, Value: []byte("b")}},
	})
	res := nw.vals[0].result(mkBlock(nw, 1, t0, t1))
	if res.codes[0] != ledger.Valid {
		t.Fatalf("t0 = %v", res.codes[0])
	}
	if res.codes[1] != ledger.MVCCConflictIntraBlock {
		t.Fatalf("t1 = %v, want intra-block conflict", res.codes[1])
	}
	// Only t0's write lands in the batch.
	if res.batch.Len() != 1 {
		t.Fatalf("batch has %d writes, want 1", res.batch.Len())
	}
}

func TestIntraClassificationIncludesFailedWriters(t *testing.T) {
	nw := harness(t)
	key := ehr.ProfileKey(3)
	v0 := nw.vals[0].db.Get(key).Version

	// T0 itself fails (stale read of another key). T1 depends on T0's
	// write attempt of `key` — still intra per Eq. 3, dependency on a
	// same-block transaction.
	other := ehr.RecordKey(3)
	t0 := mkTx(nw, "t0", &ledger.RWSet{
		Reads:  []ledger.KVRead{{Key: other, Version: ledger.Height{BlockNum: 999}}}, // stale
		Writes: []ledger.KVWrite{{Key: key, Value: []byte("a")}},
	})
	t1 := mkTx(nw, "t1", &ledger.RWSet{
		Reads: []ledger.KVRead{{Key: key, Version: ledger.Height{BlockNum: 998}}}, // stale too
	})
	res := nw.vals[0].result(mkBlock(nw, 1, t0, t1))
	if res.codes[0] != ledger.MVCCConflictInterBlock {
		t.Fatalf("t0 = %v, want inter-block", res.codes[0])
	}
	if res.codes[1] != ledger.MVCCConflictIntraBlock {
		t.Fatalf("t1 = %v, want intra-block (dependency on attempted writer)", res.codes[1])
	}
	_ = v0
}

func TestPhantomOnInsertIntoRange(t *testing.T) {
	nw := harness(t)
	// Scan observed the genesis profiles; a new key inserted into the
	// interval must fail the re-execution (Eq. 5).
	scan := ledger.RangeQueryInfo{StartKey: "profile_", EndKey: "profile_~"}
	for _, kv := range nw.vals[0].db.GetRange("profile_", "profile_~") {
		scan.Reads = append(scan.Reads, ledger.KVRead{Key: kv.Key, Version: kv.Version})
	}
	inserter := mkTx(nw, "w", &ledger.RWSet{
		Writes: []ledger.KVWrite{{Key: "profile_zzz", Value: []byte("{}")}},
	})
	res1 := nw.vals[0].result(mkBlock(nw, 1, inserter))
	if res1.codes[0] != ledger.Valid {
		t.Fatalf("inserter = %v", res1.codes[0])
	}
	scanner := mkTx(nw, "s", &ledger.RWSet{RangeQueries: []ledger.RangeQueryInfo{scan}})
	res2 := nw.vals[0].result(mkBlock(nw, 2, scanner))
	if res2.codes[0] != ledger.PhantomReadConflict {
		t.Fatalf("scanner = %v, want phantom", res2.codes[0])
	}
}

func TestPhantomOnDeleteAndUpdate(t *testing.T) {
	nw := harness(t)
	scan := ledger.RangeQueryInfo{StartKey: "ehr_", EndKey: "ehr_~"}
	for _, kv := range nw.vals[0].db.GetRange("ehr_", "ehr_~") {
		scan.Reads = append(scan.Reads, ledger.KVRead{Key: kv.Key, Version: kv.Version})
	}
	// Update one key inside the range.
	upd := mkTx(nw, "u", &ledger.RWSet{
		Writes: []ledger.KVWrite{{Key: ehr.RecordKey(5), Value: []byte("v2")}},
	})
	if res := nw.vals[0].result(mkBlock(nw, 1, upd)); res.codes[0] != ledger.Valid {
		t.Fatal("update failed")
	}
	scanner := mkTx(nw, "s", &ledger.RWSet{RangeQueries: []ledger.RangeQueryInfo{scan}})
	if res := nw.vals[0].result(mkBlock(nw, 2, scanner)); res.codes[0] != ledger.PhantomReadConflict {
		t.Fatalf("scanner = %v, want phantom after in-range update", res.codes[0])
	}
}

func TestCleanRangeRescanIsValid(t *testing.T) {
	nw := harness(t)
	scan := ledger.RangeQueryInfo{StartKey: "profile_", EndKey: "profile_~"}
	for _, kv := range nw.vals[0].db.GetRange("profile_", "profile_~") {
		scan.Reads = append(scan.Reads, ledger.KVRead{Key: kv.Key, Version: kv.Version})
	}
	scanner := mkTx(nw, "s", &ledger.RWSet{RangeQueries: []ledger.RangeQueryInfo{scan}})
	if res := nw.vals[0].result(mkBlock(nw, 1, scanner)); res.codes[0] != ledger.Valid {
		t.Fatalf("unchanged range = %v, want VALID", res.codes[0])
	}
}

func TestUncheckedRangeNeverPhantoms(t *testing.T) {
	nw := harness(t)
	// Rich-query observation with deliberately wrong versions.
	rq := ledger.RangeQueryInfo{Unchecked: true,
		Reads: []ledger.KVRead{{Key: "profile_000", Version: ledger.Height{BlockNum: 77}}}}
	tx := mkTx(nw, "q", &ledger.RWSet{RangeQueries: []ledger.RangeQueryInfo{rq}})
	if res := nw.vals[0].result(mkBlock(nw, 1, tx)); res.codes[0] != ledger.Valid {
		t.Fatalf("unchecked range = %v, want VALID (no phantom detection)", res.codes[0])
	}
}

func TestValidatorRejectsOutOfOrderBlocks(t *testing.T) {
	nw := harness(t)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order validation did not panic")
		}
	}()
	nw.vals[0].result(mkBlock(nw, 5, mkTx(nw, "t", &ledger.RWSet{})))
}

func TestValidateCostGrowsWithSubPolicies(t *testing.T) {
	nw := harness(t)
	rw := &ledger.RWSet{Reads: []ledger.KVRead{{Key: "k"}}}
	tx := mkTx(nw, "t", rw)
	b := mkBlock(nw, 1, tx)
	res := nw.vals[0].result(b)
	if res.validateCost <= 0 {
		t.Fatal("zero validation cost")
	}
}

// TestValidateBlockAllocs pins what validating a block allocates once
// the validator has validated one: the outcome, which holds its update
// batch, its codes, the batch's writes (a state entry per written value)
// and what the world state allocates to apply them, but no map. The
// block's overlay and attempted-key sets are the validator's own,
// cleared per block; made per block, sets of more than eight keys grew
// on the heap: 22 objects per block here, 23 with the batch a separate
// object, 29 with per-block sets.
func TestValidateBlockAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector allocates on its own account")
	}
	nw := harness(t)
	v := nw.vals[0]
	value := []byte(`{"v":1}`)
	const runs = 20
	var blocks []*ledger.Block
	for n := 1; n <= runs+2; n++ {
		var txs []*ledger.Transaction
		for p := 0; p < 12; p++ {
			w := ledger.KVWrite{Key: ehr.ProfileKey(p), Value: value}
			if p%4 == 3 {
				w = ledger.KVWrite{Key: ehr.RecordKey(p), IsDelete: true}
			}
			txs = append(txs, mkTx(nw, "t", &ledger.RWSet{Writes: []ledger.KVWrite{w}}))
		}
		blocks = append(blocks, mkBlock(nw, uint64(n), txs...))
	}
	v.validate(blocks[0])
	next := 1
	perBlock := testing.AllocsPerRun(runs, func() {
		res := v.validate(blocks[next])
		next++
		for i, code := range res.codes {
			if code != ledger.Valid {
				t.Fatalf("block %d, tx %d: %v", next, i, code)
			}
		}
	})
	t.Logf("%.1f objects per block of 12 writes", perBlock)
	if perBlock > 22 {
		t.Errorf("validating a block allocates %.1f objects, want at most 22", perBlock)
	}
}
