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
//
// Every stub also records an OpTrace so the cost model can price the
// invocation in virtual time.
package chaincode

import (
	"encoding/json"
	"errors"
	"fmt"

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
// invocations. It captures the read/write set and operation trace.
type Stub struct {
	db      statedb.VersionedDB
	rwset   *ledger.RWSet
	trace   costmodel.OpTrace
	readKey map[string]bool // keys already in the read set
	writes  map[string]int  // key -> index into rwset.Writes
}

// NewStub creates a stub executing against db.
func NewStub(db statedb.VersionedDB) *Stub {
	return &Stub{
		db:      db,
		rwset:   &ledger.RWSet{},
		readKey: map[string]bool{},
		writes:  map[string]int{},
	}
}

// RWSet returns the captured read/write set.
func (s *Stub) RWSet() *ledger.RWSet { return s.rwset }

// Trace returns the recorded operation counts for cost pricing.
func (s *Stub) Trace() costmodel.OpTrace { return s.trace }

// GetState returns the committed value of key, or nil when absent.
// The observed version is appended to the read set once per key.
func (s *Stub) GetState(key string) ([]byte, error) {
	if key == "" {
		return nil, errors.New("chaincode: empty key")
	}
	s.trace.Gets++
	vv := s.db.Get(key)
	if !s.readKey[key] {
		s.readKey[key] = true
		r := ledger.KVRead{Key: key}
		if vv != nil {
			r.Version = vv.Version
		}
		s.rwset.Reads = append(s.rwset.Reads, r)
	}
	if vv == nil {
		return nil, nil
	}
	return vv.Value, nil
}

// PutState buffers a write of value under key.
func (s *Stub) PutState(key string, value []byte) error {
	if key == "" {
		return errors.New("chaincode: empty key")
	}
	s.trace.Puts++
	s.bufferWrite(ledger.KVWrite{Key: key, Value: value})
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
	if i, ok := s.writes[w.Key]; ok {
		s.rwset.Writes[i] = w
		return
	}
	s.writes[w.Key] = len(s.rwset.Writes)
	s.rwset.Writes = append(s.rwset.Writes, w)
}

// GetStateByRange scans [start, end) and records the observed
// key/version list for phantom validation.
func (s *Stub) GetStateByRange(start, end string) ([]statedb.KV, error) {
	kvs := s.db.GetRange(start, end)
	s.trace.Ranges++
	s.trace.RangeKeys += len(kvs)
	rq := ledger.RangeQueryInfo{StartKey: start, EndKey: end}
	for _, kv := range kvs {
		rq.Reads = append(rq.Reads, ledger.KVRead{Key: kv.Key, Version: kv.Version})
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

// GetJSON reads key and decodes it into out. An absent key leaves out
// as it was (upsert semantics: an absent entity starts zeroed) and
// reports found = false.
func GetJSON(stub *Stub, key string, out interface{}) (found bool, err error) {
	raw, err := stub.GetState(key)
	if err != nil || raw == nil {
		return false, err
	}
	return true, json.Unmarshal(raw, out)
}

// PutJSON encodes v and buffers it as the write of key.
func PutJSON(stub *Stub, key string, v interface{}) error {
	raw, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return stub.PutState(key, raw)
}
