// Package ledger defines the core Hyperledger Fabric data model used
// throughout the simulation: versioned keys, read/write sets
// (Definitions 1–3 of the paper), transactions, blocks and the
// append-only chain, plus the transaction validation codes whose
// distribution the study measures.
package ledger

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"

	"repro/internal/sim"
)

// Height is a key version: the (block number, transaction number)
// position of the write that produced the current value, exactly as in
// Fabric's versioned KV store. Every successful write bumps the
// version (§2 of the paper).
type Height struct {
	BlockNum uint64
	TxNum    uint64
}

// ZeroHeight is the version of keys written by genesis initialization.
var ZeroHeight = Height{}

// Compare orders two heights lexicographically.
func (h Height) Compare(o Height) int {
	switch {
	case h.BlockNum < o.BlockNum:
		return -1
	case h.BlockNum > o.BlockNum:
		return 1
	case h.TxNum < o.TxNum:
		return -1
	case h.TxNum > o.TxNum:
		return 1
	}
	return 0
}

// String renders the height as "blockNum:txNum".
func (h Height) String() string { return fmt.Sprintf("%d:%d", h.BlockNum, h.TxNum) }

// KVRead is one element of a read set: a key and the version observed
// at simulation (endorsement) time. Definition 1.
type KVRead struct {
	Key     string
	Version Height
}

// KVWrite is one element of a write set: a key and the value to be
// written, or a deletion marker. Definition 2.
type KVWrite struct {
	Key      string
	Value    []byte
	IsDelete bool
	// Doc is the value the chaincode encoded into Value (a pointer to
	// its document struct), carried from the simulation to the state
	// entry the write becomes so the next reader need not decode Value
	// again. It is a cache of Value and nothing else: Digest ignores it,
	// nobody may change what it points to, and validation clears it
	// (DropDocs), so no write on a chain holds one.
	Doc any
}

// RangeQueryInfo records one range scan executed during endorsement:
// the half-open interval and every key/version observed inside it.
// Validation re-executes the scan to detect phantoms (Equation 5).
type RangeQueryInfo struct {
	StartKey string
	EndKey   string
	Reads    []KVRead
	// Unchecked marks rich-query results (CouchDB GetQueryResult):
	// Fabric does not re-execute these in the validation phase, so
	// they can never produce a phantom read conflict (Table 2
	// footnote and §5.1.2).
	Unchecked bool
	// Stripped records that StripRangeReads dropped this scan's
	// observations: Reads no longer matches what Digest — and through it
	// the block hash — was computed over.
	Stripped bool
}

// RWSet is the read/write set generated by simulating a transaction on
// an endorsing peer.
type RWSet struct {
	Reads        []KVRead
	Writes       []KVWrite
	RangeQueries []RangeQueryInfo
}

// StripRangeReads frees the range-query observations once the
// transaction is committed and measured (a DV vote observes all 1000
// voters). Each scan that loses observations is marked, so Chain.Verify
// can tell a stripped block from a tampered one.
func (rw *RWSet) StripRangeReads() {
	for i := range rw.RangeQueries {
		if rq := &rw.RangeQueries[i]; len(rq.Reads) > 0 {
			rq.Reads = nil
			rq.Stripped = true
		}
	}
}

// DropDocs clears the decoded documents riding on the writes. The
// validator calls it once a block's update batch is built: from there
// on the state entries own the documents.
func (rw *RWSet) DropDocs() {
	for i := range rw.Writes {
		rw.Writes[i].Doc = nil
	}
}

// ReadKeys returns the plain read-key list (including range reads).
func (rw *RWSet) ReadKeys() []string {
	out := make([]string, 0, len(rw.Reads))
	for _, r := range rw.Reads {
		out = append(out, r.Key)
	}
	for _, rq := range rw.RangeQueries {
		for _, r := range rq.Reads {
			out = append(out, r.Key)
		}
	}
	return out
}

// WriteKeys returns the plain write-key list.
func (rw *RWSet) WriteKeys() []string {
	out := make([]string, 0, len(rw.Writes))
	for _, w := range rw.Writes {
		out = append(out, w.Key)
	}
	return out
}

// DependsOn reports whether this rwset reads any key written by other
// (Definition 4: transaction dependency).
func (rw *RWSet) DependsOn(other *RWSet) bool {
	written := make(map[string]bool, len(other.Writes))
	for _, w := range other.Writes {
		written[w.Key] = true
	}
	for _, r := range rw.Reads {
		if written[r.Key] {
			return true
		}
	}
	for _, rq := range rw.RangeQueries {
		if rq.Unchecked {
			continue
		}
		for _, r := range rq.Reads {
			if written[r.Key] {
				return true
			}
		}
		// A write that inserts into the scanned interval is also a
		// dependency even if the key was absent at endorsement.
		for _, w := range other.Writes {
			if w.Key >= rq.StartKey && (rq.EndKey == "" || w.Key < rq.EndKey) {
				return true
			}
		}
	}
	return false
}

// Digest returns a stable hash of the rwset, used to compare the
// responses of different endorsers (endorsement-policy failure check,
// Equation 1) and as the signed payload.
func (rw *RWSet) Digest() [32]byte {
	h := sha256.New()
	var buf [8]byte
	writeStr := func(s string) {
		binary.LittleEndian.PutUint64(buf[:], uint64(len(s)))
		h.Write(buf[:])
		h.Write([]byte(s))
	}
	writeU64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	writeU64(uint64(len(rw.Reads)))
	for _, r := range rw.Reads {
		writeStr(r.Key)
		writeU64(r.Version.BlockNum)
		writeU64(r.Version.TxNum)
	}
	writeU64(uint64(len(rw.Writes)))
	for _, w := range rw.Writes {
		writeStr(w.Key)
		h.Write(w.Value)
		if w.IsDelete {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	writeU64(uint64(len(rw.RangeQueries)))
	for _, rq := range rw.RangeQueries {
		writeStr(rq.StartKey)
		writeStr(rq.EndKey)
		writeU64(uint64(len(rq.Reads)))
		for _, r := range rq.Reads {
			writeStr(r.Key)
			writeU64(r.Version.BlockNum)
			writeU64(r.Version.TxNum)
		}
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// Equal reports whether two rwsets are identical (same reads with same
// versions, same writes, same range observations). One rwset shared by
// pointer is identical without hashing it.
func (rw *RWSet) Equal(other *RWSet) bool {
	return rw == other || rw.Digest() == other.Digest()
}

// ValidationCode is the per-transaction outcome recorded on the chain,
// mirroring Fabric's peer.TxValidationCode plus the intra/inter MVCC
// split that the paper introduces (§3.2.2).
type ValidationCode int

const (
	// Valid marks a committed transaction.
	Valid ValidationCode = iota
	// MVCCConflictInterBlock is an MVCC read conflict whose
	// conflicting writer committed in an earlier block (Equation 4).
	MVCCConflictInterBlock
	// MVCCConflictIntraBlock is an MVCC read conflict whose
	// conflicting writer precedes the transaction in the same block
	// (Equation 3).
	MVCCConflictIntraBlock
	// PhantomReadConflict is a failed range-query re-execution
	// (Equation 5).
	PhantomReadConflict
	// EndorsementPolicyFailure is a VSCC failure: unsatisfied policy,
	// bad signature, or mismatched read/write sets across endorsers
	// (Equation 1).
	EndorsementPolicyFailure
	// AbortedInOrdering marks transactions dropped before validation
	// by Fabric++ / FabricSharp early aborts. They never reach the
	// chain but still count as failed in the paper's metrics.
	AbortedInOrdering
	// ClientTimeout marks an attempt the client gave up on — an
	// endorsement or submission deadline expired before an outcome
	// arrived (typically during a fault window). It is a client-side
	// failure class: the attempt feeds the retry path but the
	// transaction never reaches the chain under this code.
	ClientTimeout
)

// String names the validation code like Fabric's enum.
func (c ValidationCode) String() string {
	switch c {
	case Valid:
		return "VALID"
	case MVCCConflictInterBlock:
		return "MVCC_READ_CONFLICT_INTER_BLOCK"
	case MVCCConflictIntraBlock:
		return "MVCC_READ_CONFLICT_INTRA_BLOCK"
	case PhantomReadConflict:
		return "PHANTOM_READ_CONFLICT"
	case EndorsementPolicyFailure:
		return "ENDORSEMENT_POLICY_FAILURE"
	case AbortedInOrdering:
		return "ABORTED_IN_ORDERING"
	case ClientTimeout:
		return "CLIENT_TIMEOUT"
	default:
		return fmt.Sprintf("UNKNOWN(%d)", int(c))
	}
}

// IsMVCC reports whether the code is either MVCC conflict flavour.
func (c ValidationCode) IsMVCC() bool {
	return c == MVCCConflictInterBlock || c == MVCCConflictIntraBlock
}

// Endorsement is one endorser's signed response: its identity, the
// rwset it produced, that rwset's digest and a signature over the
// digest. The endorser computes Digest once, from the rwset it
// simulated; VSCC verifies the signature against it and compares it
// across endorsers (Equation 1), and the ordering service hashes it
// into the block (Block.SealHash), so none of them rehashes the rwset.
type Endorsement struct {
	Org       string
	PeerID    string
	RWSet     *RWSet
	Digest    [32]byte
	Signature []byte
}

// Transaction is an assembled envelope submitted to the ordering
// service. RWSet points at the first endorsement's rwset (what the
// client submits); all endorsements are carried for VSCC.
type Transaction struct {
	ID           string
	ClientID     string
	Chaincode    string
	Function     string
	SubmitTime   sim.Time // client send time (latency measurement start)
	EndorseTime  sim.Time // when endorsement completed
	RWSet        *RWSet
	Endorsements []*Endorsement
	// SnapshotHeight is the chain height observed at endorsement,
	// used by FabricSharp's OCC scheduler.
	SnapshotHeight uint64
}

// Block is an ordered batch of transactions cut by the ordering
// service.
type Block struct {
	Number       uint64
	PrevHash     [32]byte
	Hash         [32]byte
	Transactions []*Transaction
	// Channel identifies which channel's ordering service cut the
	// block (0 on single-channel runs). Each channel maintains its own
	// hash chain, so like Fabric's channel ID in the block header the
	// field routes the block rather than feeding the hash.
	Channel int
	// CutTime is when the orderer cut the block.
	CutTime sim.Time
	// CongestionHint is the ordering service's smoothed backpressure
	// signal at cut time, in [0,1] (zero unless the run enables
	// orderer backpressure). Like Fabric block metadata it is not part
	// of the hash; clients read it from block-delivery events.
	CongestionHint float64
	// Validation flags are filled in by each peer during validation;
	// the canonical copy kept by the chain is the one from the
	// metrics-designated peer. Indexed like Transactions.
	ValidationCodes []ValidationCode
	// CommitTime is when the metrics peer appended the block.
	CommitTime sim.Time
}

// ComputeHash derives the block hash from the previous hash, the block
// number and each transaction's ID and rwset digest, chaining the
// ledger like Fabric does. It recomputes every digest from its rwset,
// so Chain.Verify binds the content to the hash.
func (b *Block) ComputeHash() [32]byte { return b.hash(false) }

// SealHash is ComputeHash with each transaction's digest read from its
// first endorsement, the one whose rwset the transaction carries,
// instead of recomputed; a transaction without endorsements is hashed
// from its rwset. The ordering service seals each block it cuts with
// it. The two agree whenever every such endorsement carries its own
// rwset's digest.
func (b *Block) SealHash() [32]byte { return b.hash(true) }

func (b *Block) hash(carried bool) [32]byte {
	h := sha256.New()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], b.Number)
	h.Write(buf[:])
	h.Write(b.PrevHash[:])
	for _, tx := range b.Transactions {
		h.Write([]byte(tx.ID))
		if carried && len(tx.Endorsements) > 0 {
			h.Write(tx.Endorsements[0].Digest[:])
			continue
		}
		d := tx.RWSet.Digest()
		h.Write(d[:])
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// MarshalSummary renders a compact JSON description of the block, used
// by the CLI's block inspector.
func (b *Block) MarshalSummary() ([]byte, error) {
	type txSummary struct {
		ID     string `json:"id"`
		Code   string `json:"validation_code"`
		Reads  int    `json:"reads"`
		Writes int    `json:"writes"`
	}
	s := struct {
		Number uint64      `json:"number"`
		Txs    []txSummary `json:"transactions"`
	}{Number: b.Number}
	for i, tx := range b.Transactions {
		code := "UNVALIDATED"
		if i < len(b.ValidationCodes) {
			code = b.ValidationCodes[i].String()
		}
		s.Txs = append(s.Txs, txSummary{
			ID:     tx.ID,
			Code:   code,
			Reads:  len(tx.RWSet.Reads),
			Writes: len(tx.RWSet.Writes),
		})
	}
	return json.Marshal(s)
}
