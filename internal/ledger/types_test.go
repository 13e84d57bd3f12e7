package ledger

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestHeightCompare(t *testing.T) {
	cases := []struct {
		a, b Height
		want int
	}{
		{Height{1, 2}, Height{1, 2}, 0},
		{Height{1, 2}, Height{1, 3}, -1},
		{Height{2, 0}, Height{1, 9}, 1},
		{Height{0, 0}, Height{0, 1}, -1},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("Compare(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestHeightString(t *testing.T) {
	if s := (Height{3, 7}).String(); s != "3:7" {
		t.Errorf("String = %q", s)
	}
}

func TestRWSetDependsOn(t *testing.T) {
	w := &RWSet{Writes: []KVWrite{{Key: "a"}, {Key: "b"}}}
	r := &RWSet{Reads: []KVRead{{Key: "b"}}}
	if !r.DependsOn(w) {
		t.Error("read b should depend on write b")
	}
	r2 := &RWSet{Reads: []KVRead{{Key: "c"}}}
	if r2.DependsOn(w) {
		t.Error("read c should not depend on writes a,b")
	}
}

func TestRWSetDependsOnRangeInsert(t *testing.T) {
	// A write inside a scanned interval is a dependency even when the
	// key was not observed (phantom insertion).
	r := &RWSet{RangeQueries: []RangeQueryInfo{{StartKey: "k10", EndKey: "k20"}}}
	w := &RWSet{Writes: []KVWrite{{Key: "k15"}}}
	if !r.DependsOn(w) {
		t.Error("range [k10,k20) should depend on write k15")
	}
	w2 := &RWSet{Writes: []KVWrite{{Key: "k25"}}}
	if r.DependsOn(w2) {
		t.Error("range [k10,k20) should not depend on write k25")
	}
}

func TestUncheckedRangeNeverDepends(t *testing.T) {
	r := &RWSet{RangeQueries: []RangeQueryInfo{{
		StartKey: "a", EndKey: "z", Unchecked: true,
		Reads: []KVRead{{Key: "m"}},
	}}}
	w := &RWSet{Writes: []KVWrite{{Key: "m"}}}
	if r.DependsOn(w) {
		t.Error("unchecked rich-query range must not create dependencies")
	}
}

func TestDigestDistinguishesVersions(t *testing.T) {
	a := &RWSet{Reads: []KVRead{{Key: "k", Version: Height{1, 0}}}}
	b := &RWSet{Reads: []KVRead{{Key: "k", Version: Height{2, 0}}}}
	if a.Digest() == b.Digest() {
		t.Error("different read versions must give different digests")
	}
	if !a.Equal(a) {
		t.Error("rwset not equal to itself")
	}
	if a.Equal(b) {
		t.Error("distinct rwsets reported equal")
	}
}

// Property: the digest is a pure function of the rwset contents.
func TestDigestDeterministic(t *testing.T) {
	f := func(keys []string, bn, tn uint8) bool {
		mk := func() *RWSet {
			rw := &RWSet{}
			for _, k := range keys {
				rw.Reads = append(rw.Reads, KVRead{Key: k, Version: Height{uint64(bn), uint64(tn)}})
				rw.Writes = append(rw.Writes, KVWrite{Key: k, Value: []byte(k)})
			}
			return rw
		}
		return mk().Digest() == mk().Digest()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Error(err)
	}
}

// The document riding on a write is a cache of its bytes: it takes no
// part in the digest or in rwset equality, and DropDocs removes every
// one without touching what is hashed.
func TestDocIsNotPartOfTheRWSet(t *testing.T) {
	type doc struct{ N int }
	bare := &RWSet{Writes: []KVWrite{{Key: "a", Value: []byte(`{"N":1}`)}, {Key: "b", IsDelete: true}}}
	carrying := &RWSet{Writes: []KVWrite{{Key: "a", Value: []byte(`{"N":1}`), Doc: &doc{N: 1}}, {Key: "b", IsDelete: true}}}
	if bare.Digest() != carrying.Digest() || !bare.Equal(carrying) {
		t.Error("a carried document changed the digest")
	}
	carrying.DropDocs()
	if carrying.Writes[0].Doc != nil || bare.Digest() != carrying.Digest() || string(carrying.Writes[0].Value) != `{"N":1}` {
		t.Errorf("after DropDocs: %+v", carrying.Writes)
	}
}

func TestValidationCodeStrings(t *testing.T) {
	cases := map[ValidationCode]string{
		Valid:                    "VALID",
		MVCCConflictInterBlock:   "MVCC_READ_CONFLICT_INTER_BLOCK",
		MVCCConflictIntraBlock:   "MVCC_READ_CONFLICT_INTRA_BLOCK",
		PhantomReadConflict:      "PHANTOM_READ_CONFLICT",
		EndorsementPolicyFailure: "ENDORSEMENT_POLICY_FAILURE",
		AbortedInOrdering:        "ABORTED_IN_ORDERING",
	}
	for code, want := range cases {
		if code.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(code), code.String(), want)
		}
	}
	if !MVCCConflictIntraBlock.IsMVCC() || !MVCCConflictInterBlock.IsMVCC() {
		t.Error("IsMVCC false for MVCC codes")
	}
	if Valid.IsMVCC() || PhantomReadConflict.IsMVCC() {
		t.Error("IsMVCC true for non-MVCC code")
	}
}

func TestReadWriteKeys(t *testing.T) {
	rw := &RWSet{
		Reads:  []KVRead{{Key: "r1"}},
		Writes: []KVWrite{{Key: "w1"}, {Key: "w2"}},
		RangeQueries: []RangeQueryInfo{{
			StartKey: "a", EndKey: "b",
			Reads: []KVRead{{Key: "a1"}},
		}},
	}
	if got := rw.ReadKeys(); len(got) != 2 || got[0] != "r1" || got[1] != "a1" {
		t.Errorf("ReadKeys = %v", got)
	}
	if got := rw.WriteKeys(); len(got) != 2 || got[0] != "w1" {
		t.Errorf("WriteKeys = %v", got)
	}
}

func mkTx(id string) *Transaction {
	return &Transaction{ID: id, RWSet: &RWSet{Writes: []KVWrite{{Key: id}}}}
}

func mkBlock(n uint64, prev [32]byte, txs ...*Transaction) *Block {
	b := &Block{Number: n, PrevHash: prev, Transactions: txs,
		ValidationCodes: make([]ValidationCode, len(txs))}
	b.Hash = b.ComputeHash()
	return b
}

func TestChainAppendAndVerify(t *testing.T) {
	c := NewChain()
	b0 := mkBlock(0, [32]byte{}, mkTx("t0"), mkTx("t1"))
	if err := c.Append(b0); err != nil {
		t.Fatal(err)
	}
	b1 := mkBlock(1, b0.Hash, mkTx("t2"))
	if err := c.Append(b1); err != nil {
		t.Fatal(err)
	}
	if c.Height() != 2 || c.TxCount() != 3 {
		t.Fatalf("height=%d txs=%d", c.Height(), c.TxCount())
	}
	if err := c.Verify(); err != nil {
		t.Fatal(err)
	}
	if c.Block(0) != b0 || c.Block(5) != nil {
		t.Error("Block lookup wrong")
	}
}

func TestChainRejectsBadLinkage(t *testing.T) {
	c := NewChain()
	b0 := mkBlock(0, [32]byte{}, mkTx("t0"))
	if err := c.Append(b0); err != nil {
		t.Fatal(err)
	}
	bad := mkBlock(1, [32]byte{0xff}, mkTx("t1"))
	if err := c.Append(bad); err == nil {
		t.Fatal("appended block with wrong prev-hash")
	}
	wrongNum := mkBlock(7, b0.Hash, mkTx("t1"))
	if err := c.Append(wrongNum); err == nil {
		t.Fatal("appended block with wrong number")
	}
}

func TestChainRejectsMissingValidationCodes(t *testing.T) {
	c := NewChain()
	b := &Block{Number: 0, Transactions: []*Transaction{mkTx("t0")}}
	b.Hash = b.ComputeHash()
	if err := c.Append(b); err == nil {
		t.Fatal("appended block lacking validation codes")
	}
}

func TestChainDetectsTamper(t *testing.T) {
	c := NewChain()
	b0 := mkBlock(0, [32]byte{}, mkTx("t0"))
	b1 := mkBlock(1, b0.Hash, mkTx("t1"))
	if err := c.Append(b0); err != nil {
		t.Fatal(err)
	}
	if err := c.Append(b1); err != nil {
		t.Fatal(err)
	}
	// Tamper with an already-appended transaction.
	b0.Transactions[0].RWSet.Writes[0].Key = "evil"
	if err := c.Verify(); err == nil {
		t.Fatal("Verify did not detect tampering")
	}
}

// SealHash reads each transaction's digest from its first endorsement
// and agrees with ComputeHash exactly when that endorsement carries its
// own rwset's digest; a transaction without endorsements is hashed from
// its rwset either way.
func TestSealHashReadsCarriedDigests(t *testing.T) {
	endorsed := mkTx("t1")
	rw := endorsed.RWSet
	other := &RWSet{Writes: []KVWrite{{Key: "other"}}}
	endorsed.Endorsements = []*Endorsement{{RWSet: rw, Digest: rw.Digest()}, {RWSet: other, Digest: other.Digest()}}
	b := mkBlock(1, [32]byte{1}, mkTx("t0"), endorsed)
	if b.SealHash() != b.Hash {
		t.Fatal("SealHash differs from ComputeHash though every first endorsement carries its rwset's digest")
	}
	endorsed.Endorsements[0].Digest = other.Digest()
	if b.SealHash() == b.Hash {
		t.Fatal("SealHash ignored the first endorsement's carried digest")
	}
	if b.ComputeHash() != b.Hash {
		t.Fatal("ComputeHash read a carried digest instead of the rwset")
	}
}

// TestVerifyNamesStrippingNotTamper: freeing hashed range observations
// after commit makes a block unverifiable, which Verify must report as
// ErrStripped — never as the hash mismatch that means tampering.
// Stripping a scan that observed nothing changes no hashed byte and
// still verifies.
func TestVerifyNamesStrippingNotTamper(t *testing.T) {
	scan := func(id string, reads ...KVRead) *Transaction {
		tx := mkTx(id)
		tx.RWSet.RangeQueries = []RangeQueryInfo{{StartKey: "a", EndKey: "z", Reads: reads}}
		return tx
	}
	c := NewChain()
	b0 := mkBlock(0, [32]byte{}, scan("empty"))
	b1 := mkBlock(1, b0.Hash, mkTx("plain"), scan("full", KVRead{Key: "k1"}, KVRead{Key: "k2"}))
	for _, b := range []*Block{b0, b1} {
		if err := c.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	b0.Transactions[0].RWSet.StripRangeReads()
	if err := c.Verify(); err != nil {
		t.Fatalf("stripping an empty scan broke verification: %v", err)
	}
	b1.Transactions[1].RWSet.StripRangeReads()
	err := c.Verify()
	if !errors.Is(err, ErrStripped) || !strings.Contains(err.Error(), "block 1") {
		t.Fatalf("Verify on a stripped chain = %v, want block 1 ErrStripped", err)
	}
	if strings.Contains(err.Error(), "mismatch") {
		t.Errorf("stripped chain reported as tampered: %v", err)
	}
	// Tampering with an unstripped block is still a hash mismatch.
	b0.Transactions[0].RWSet.Writes[0].Key = "evil"
	if err := c.Verify(); err == nil || errors.Is(err, ErrStripped) {
		t.Errorf("tampered block 0 reported as %v, want a hash mismatch", err)
	}
}

// Property: any chain built with correct linkage verifies.
func TestChainLinkageProperty(t *testing.T) {
	f := func(sizes []uint8) bool {
		c := NewChain()
		var prev [32]byte
		for i, sz := range sizes {
			n := int(sz%5) + 1
			txs := make([]*Transaction, n)
			for j := range txs {
				txs[j] = mkTx(string(rune('a'+i)) + string(rune('0'+j)))
			}
			b := mkBlock(uint64(i), prev, txs...)
			if c.Append(b) != nil {
				return false
			}
			prev = b.Hash
		}
		return c.Verify() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Error(err)
	}
}

func TestBlockMarshalSummary(t *testing.T) {
	b := mkBlock(0, [32]byte{}, mkTx("t0"))
	b.ValidationCodes[0] = MVCCConflictIntraBlock
	data, err := b.MarshalSummary()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("empty summary")
	}
}
