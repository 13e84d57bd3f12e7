// Package chaincode defines the smart-contract programming model of
// the simulation: the Chaincode interface implemented by the four
// use-case contracts and the generated genChain contracts, and the
// Stub through which invocations read and write the world state.
//
// The stub mirrors Fabric's transaction simulator semantics:
//
//   - GetState reads the *committed* state; a transaction cannot read
//     its own buffered writes (Fabric has no read-your-writes).
//   - PutState/DelState buffer into the write set; the last write per
//     key wins.
//   - GetStateByRange records a RangeQueryInfo that validation
//     re-executes for phantom detection.
//   - GetQueryResult (rich query, CouchDB only) records nothing that
//     validation checks — Fabric provides no phantom detection for
//     rich queries (Table 2 footnote, §5.1.2).
//   - GetDoc/PutDoc are GetState/PutState for JSON documents: the
//     struct a chaincode wrote travels with its bytes to the state entry
//     and is handed to the next reader, so a document is encoded once per
//     write — by its own AppendJSON (json.go), never by reflection — and
//     decoded only when its bytes came from somewhere else.
//
// Every stub also records an OpTrace so the cost model can price the
// invocation in virtual time.
package chaincode

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/internal/costmodel"
	"repro/internal/ledger"
	"repro/internal/statedb"
)

// Chaincode is a smart contract. Implementations must be
// deterministic: for a given world state and arguments, every peer
// must produce the same read/write set.
type Chaincode interface {
	// Name is the chaincode identifier.
	Name() string
	// Init populates the initial world state (the paper's initLedger
	// functions) through the stub.
	Init(stub *Stub) error
	// Invoke dispatches a named function.
	Invoke(stub *Stub, fn string, args []string) error
}

// Stub is the world-state access object handed to chaincode
// invocations. It captures the read/write set and operation trace. One
// stub serves invocation after invocation: Reset readies it for the
// next, and the sets it fills are scratch that RWSet copies out at
// exact size, so a simulation allocates its rwset and nothing it
// outgrows. A stub is not safe for concurrent use.
type Stub struct {
	db    statedb.VersionedDB
	rwset ledger.RWSet
	trace costmodel.OpTrace
	// readKey (keys already in the read set) and writes (key -> index
	// into rwset.Writes) exist only once the set they index has outgrown
	// scanLimit; until then a look-up scans the set itself. The write
	// set needs no map while its keys ascend (unordered is false): a key
	// past the last write is new, and one before it is binary-searched.
	readKey   map[string]bool
	writes    map[string]int
	unordered bool
}

// scanLimit is the longest read or write set a Stub searches by
// scanning. No function of the four use-case chaincodes or of the
// benchmark's genChain contracts reads or writes more than three keys,
// so an invocation allocates neither map. The Init of every one of them
// writes hundreds of keys: genChain's in ascending order, which the
// write set searches without a map, and the others' out of order,
// which it indexes.
const scanLimit = 8

// NewStub creates a stub executing against db.
func NewStub(db statedb.VersionedDB) *Stub {
	s := &Stub{}
	s.Reset(db)
	return s
}

// Reset readies s for a new invocation against db: empty sets (their
// storage kept, its elements cleared so it holds nothing alive), a zero
// trace and no look-up maps.
func (s *Stub) Reset(db statedb.VersionedDB) {
	s.db = db
	clear(s.rwset.Reads)
	clear(s.rwset.Writes)
	clear(s.rwset.RangeQueries)
	s.rwset.Reads = s.rwset.Reads[:0]
	s.rwset.Writes = s.rwset.Writes[:0]
	s.rwset.RangeQueries = s.rwset.RangeQueries[:0]
	s.trace = costmodel.OpTrace{}
	s.readKey, s.writes, s.unordered = nil, nil, false
}

// RWSet returns a copy of the captured read/write set, each set at
// exact length (nil when empty). It shares no storage with the stub,
// which later invocations reuse.
func (s *Stub) RWSet() *ledger.RWSet {
	return &ledger.RWSet{
		Reads:        exact(s.rwset.Reads),
		Writes:       exact(s.rwset.Writes),
		RangeQueries: exact(s.rwset.RangeQueries),
	}
}

// Writes returns the buffered write set itself, valid until the next
// Reset: genesis loading reads Init's writes without a copy.
func (s *Stub) Writes() []ledger.KVWrite { return s.rwset.Writes }

// Grow makes room for n more writes, so that an Init that knows how
// many keys it seeds allocates its write set once instead of regrowing
// it.
func (s *Stub) Grow(n int) { s.rwset.Writes = slices.Grow(s.rwset.Writes, n) }

// exact copies xs into a slice of its length, nil when it is empty.
func exact[T any](xs []T) []T {
	if len(xs) == 0 {
		return nil
	}
	return append(make([]T, 0, len(xs)), xs...)
}

// Trace returns the recorded operation counts for cost pricing.
func (s *Stub) Trace() costmodel.OpTrace { return s.trace }

// GetState returns the committed value of key, or nil when absent.
// The observed version is appended to the read set once per key.
func (s *Stub) GetState(key string) ([]byte, error) {
	vv, err := s.read(key)
	if vv == nil {
		return nil, err
	}
	return vv.Value, nil
}

// read is the one point read: it counts the operation, records the
// observed version once per key and returns the stored value (shared,
// read-only), nil when the key is absent.
func (s *Stub) read(key string) (*statedb.VersionedValue, error) {
	if key == "" {
		return nil, errors.New("chaincode: empty key")
	}
	s.trace.Gets++
	vv := s.db.Get(key)
	if !s.hasRead(key) {
		r := ledger.KVRead{Key: key}
		if vv != nil {
			r.Version = vv.Version
		}
		s.rwset.Reads = append(s.rwset.Reads, r)
		if s.readKey != nil {
			s.readKey[key] = true
		}
	}
	return vv, nil
}

func (s *Stub) hasRead(key string) bool {
	reads := s.rwset.Reads
	if len(reads) <= scanLimit {
		for i := range reads {
			if reads[i].Key == key {
				return true
			}
		}
		return false
	}
	if s.readKey == nil {
		s.readKey = make(map[string]bool, 2*len(reads))
		for i := range reads {
			s.readKey[reads[i].Key] = true
		}
	}
	return s.readKey[key]
}

// PutState buffers a write of value under key.
func (s *Stub) PutState(key string, value []byte) error {
	return s.put(ledger.KVWrite{Key: key, Value: value})
}

func (s *Stub) put(w ledger.KVWrite) error {
	if w.Key == "" {
		return errors.New("chaincode: empty key")
	}
	s.trace.Puts++
	s.bufferWrite(w)
	return nil
}

// DelState buffers a deletion of key.
func (s *Stub) DelState(key string) error {
	if key == "" {
		return errors.New("chaincode: empty key")
	}
	s.trace.Deletes++
	s.bufferWrite(ledger.KVWrite{Key: key, IsDelete: true})
	return nil
}

func (s *Stub) bufferWrite(w ledger.KVWrite) {
	if i := s.writeIndex(w.Key); i >= 0 {
		s.rwset.Writes[i] = w
		return
	}
	n := len(s.rwset.Writes)
	if n > 0 && w.Key < s.rwset.Writes[n-1].Key {
		s.unordered = true
	}
	if s.writes != nil {
		s.writes[w.Key] = n
	}
	s.rwset.Writes = append(s.rwset.Writes, w)
}

// writeIndex returns the position of key's buffered write, -1 without
// one.
func (s *Stub) writeIndex(key string) int {
	writes := s.rwset.Writes
	if len(writes) <= scanLimit {
		for i := range writes {
			if writes[i].Key == key {
				return i
			}
		}
		return -1
	}
	if !s.unordered {
		if key > writes[len(writes)-1].Key {
			return -1
		}
		if i, found := slices.BinarySearchFunc(writes, key, func(w ledger.KVWrite, k string) int {
			return strings.Compare(w.Key, k)
		}); found {
			return i
		}
		return -1
	}
	if s.writes == nil {
		s.writes = make(map[string]int, 2*len(writes))
		for i := range writes {
			s.writes[writes[i].Key] = i
		}
	}
	if i, ok := s.writes[key]; ok {
		return i
	}
	return -1
}

// GetStateByRange scans [start, end) and records the observed
// key/version list for phantom validation.
func (s *Stub) GetStateByRange(start, end string) ([]statedb.KV, error) {
	kvs := s.db.GetRange(start, end)
	s.trace.Ranges++
	s.trace.RangeKeys += len(kvs)
	rq := ledger.RangeQueryInfo{StartKey: start, EndKey: end, Reads: make([]ledger.KVRead, len(kvs))}
	for i, kv := range kvs {
		rq.Reads[i] = ledger.KVRead{Key: kv.Key, Version: kv.Version}
	}
	s.rwset.RangeQueries = append(s.rwset.RangeQueries, rq)
	return kvs, nil
}

// SupportsRichQueries reports whether the underlying state database
// can execute selector queries (CouchDB only).
func (s *Stub) SupportsRichQueries() bool { return s.db.Kind() == statedb.CouchDB }

// GetQueryResult executes a rich selector query. The results are
// recorded as an *unchecked* range observation: validation never
// re-executes them, so rich queries cannot produce phantom read
// conflicts — and provide no guarantee of result validity.
func (s *Stub) GetQueryResult(query string) ([]statedb.KV, error) {
	kvs, err := s.db.ExecuteQuery(query)
	if err != nil {
		return nil, fmt.Errorf("chaincode: rich query failed: %w", err)
	}
	s.trace.Queries++
	s.trace.QueryDocs += len(kvs)
	s.trace.ScannedLen += s.db.Len()
	rq := ledger.RangeQueryInfo{Unchecked: true}
	for _, kv := range kvs {
		rq.Reads = append(rq.Reads, ledger.KVRead{Key: kv.Key, Version: kv.Version})
	}
	s.rwset.RangeQueries = append(s.rwset.RangeQueries, rq)
	return kvs, nil
}

// GetDoc reads key as a document of type T: one point read, exactly
// as GetState counts and records it, and nil when the key is absent.
// The document is the one attached to the stored value when a writer
// (PutDoc) or an earlier reader left one of this type there; otherwise
// the bytes are decoded, once, and the result is attached for the next
// reader. Every replica shares it, so the caller must not change what
// it points to — CloneDoc returns a copy to change and write back.
func GetDoc[T any](s *Stub, key string) (*T, error) {
	vv, err := s.read(key)
	if vv == nil {
		return nil, err
	}
	if doc, ok := vv.Doc.(*T); ok && doc != nil {
		return doc, nil
	}
	doc := new(T)
	if err := json.Unmarshal(vv.Value, doc); err != nil {
		return nil, err
	}
	vv.Doc = doc
	return doc, nil
}

// CloneDoc is GetDoc for a read-modify-write: it returns a shallow
// copy of the stored document for the caller to change and PutDoc —
// the zero document when the key is absent (upsert semantics) — and
// whether the key was found. What the copy still shares with the
// stored document (a map, a slice) must itself be copied before it is
// changed.
func CloneDoc[T any](s *Stub, key string) (doc *T, found bool, err error) {
	stored, err := GetDoc[T](s, key)
	if err != nil {
		return nil, false, err
	}
	doc = new(T)
	if stored != nil {
		*doc = *stored
	}
	return doc, stored != nil, nil
}

// Document is what PutDoc can store: a type that appends its own JSON
// encoding to b — the bytes encoding/json would produce for it, built
// from the Append helpers of json.go — and returns the extended slice.
type Document interface {
	AppendJSON(b []byte) []byte
}

// encodeScratch holds the buffers PutDoc encodes into. A stored value
// is an exact-length copy of what was encoded, never the buffer: the
// slack an encoder leaves behind would be retained by every state entry
// and block the write reaches.
var encodeScratch = sync.Pool{New: func() any { return new([]byte) }}

// PutDoc encodes doc and buffers it as the write of key. The bytes are
// the write (they are what is hashed, signed and stored); doc rides
// beside them to the state entry the write becomes, so from here on it
// is immutable.
func PutDoc[T Document](s *Stub, key string, doc *T) error {
	if doc == nil {
		return errors.New("chaincode: nil document")
	}
	scratch := encodeScratch.Get().(*[]byte)
	*scratch = (*doc).AppendJSON((*scratch)[:0])
	raw := make([]byte, len(*scratch))
	copy(raw, *scratch)
	encodeScratch.Put(scratch)
	return s.put(ledger.KVWrite{Key: key, Value: raw, Doc: doc})
}
