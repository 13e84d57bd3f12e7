// Package statedb implements the world state: a versioned key/value
// store replicated on every peer (§2). There is one store; its Kind
// mirrors the paper's database-type control variable (§5.1.2) and
// decides exactly two things:
//
//   - the cost profile (costmodel.ForKind): LevelDB is the embedded
//     Fabric default, CouchDB sits behind a (simulated) REST hop and is
//     markedly slower (Table 4);
//   - rich-query support: CouchDB answers Mango-style selector queries
//     over JSON documents, LevelDB rejects them.
//
// Each value carries a Height version (block, tx). The MVCC validation
// of the paper compares read-set versions against these.
//
// A store is not safe for concurrent use, and neither are the entries
// it shares with its clones: a network's replicas all run on the one
// goroutine of its discrete-event engine.
package statedb

import (
	"encoding/json"
	"errors"

	"repro/internal/couchq"
	"repro/internal/ledger"
	"repro/internal/skiplist"
)

// Kind selects the database type.
type Kind int

const (
	// LevelDB is the embedded default store.
	LevelDB Kind = iota
	// CouchDB is the external JSON document store.
	CouchDB
)

// String names the database type like the paper's tables.
func (k Kind) String() string {
	if k == CouchDB {
		return "CouchDB"
	}
	return "LevelDB"
}

// VersionedValue is a stored value with its MVCC version.
type VersionedValue struct {
	Value   []byte
	Version ledger.Height
}

// KV is one entry returned by range scans and rich queries.
type KV struct {
	Key     string
	Value   []byte
	Version ledger.Height
}

// Write is one element of an update batch. Each write carries the
// height of the transaction that produced it, exactly like Fabric's
// committer.
type Write struct {
	Key      string
	Value    []byte
	IsDelete bool
	Version  ledger.Height
}

// UpdateBatch is an ordered set of writes applied atomically at
// commit.
type UpdateBatch struct {
	Writes []Write
}

// Put appends a value write to the batch.
func (b *UpdateBatch) Put(key string, value []byte, v ledger.Height) {
	b.Writes = append(b.Writes, Write{Key: key, Value: value, Version: v})
}

// Delete appends a deletion to the batch.
func (b *UpdateBatch) Delete(key string, v ledger.Height) {
	b.Writes = append(b.Writes, Write{Key: key, IsDelete: true, Version: v})
}

// Len reports the number of writes in the batch.
func (b *UpdateBatch) Len() int { return len(b.Writes) }

// VersionedDB is the world-state interface.
type VersionedDB interface {
	// Kind identifies the database type.
	Kind() Kind
	// Get returns the stored value, or nil when the key is absent.
	// The result is shared with every replica and must not be modified.
	Get(key string) *VersionedValue
	// GetRange scans the half-open interval [start, end) in key
	// order. Empty bounds are open. This backs GetStateByRange.
	GetRange(start, end string) []KV
	// ExecuteQuery runs a rich (selector) query over all documents.
	// Only CouchDB supports it; LevelDB returns an error (§5.1.2:
	// "LevelDB only supports simple get and set queries").
	ExecuteQuery(query string) ([]KV, error)
	// ApplyUpdates commits a batch and advances the savepoint.
	ApplyUpdates(batch *UpdateBatch, height uint64) error
	// Savepoint is the block height up to which updates are applied.
	Savepoint() uint64
	// Len reports the number of live keys.
	Len() int
	// Clone returns an independent copy of the database, used to fan
	// the genesis state out to every peer replica. The index is copied;
	// the entries are shared (a write replaces an entry, never changes
	// one).
	Clone(seed int64) VersionedDB
}

// entry is one stored version of a key. A write replaces the entry
// wholesale, so an entry is immutable apart from the memo below and
// clones can share it by pointer.
type entry struct {
	VersionedValue
	// Memo of Value decoded as a JSON object, filled the first time a
	// selector looks at this entry. Shared with every clone, so a value
	// is decoded at most once network-wide, and never in a run without
	// rich queries.
	decoded bool
	isDoc   bool
	doc     map[string]interface{}
}

// document returns the value as a JSON object; ok is false when the
// value is not one (CouchDB would hold it as an attachment).
func (e *entry) document() (doc map[string]interface{}, ok bool) {
	if !e.decoded {
		e.isDoc = json.Unmarshal(e.Value, &e.doc) == nil
		e.decoded = true
	}
	return e.doc, e.isDoc
}

// store is the one VersionedDB: an ordered index of entries in a skip
// list (the memtable structure of the real LevelDB, and the key index
// behind CouchDB range scans).
type store struct {
	kind      Kind
	index     *skiplist.List[*entry]
	savepoint uint64
}

// New constructs an empty database of the given kind. The seed fixes
// internal randomized structure (skip-list tower heights).
func New(kind Kind, seed int64) VersionedDB {
	return &store{kind: kind, index: skiplist.New[*entry](seed)}
}

func (db *store) Kind() Kind { return db.kind }

func (db *store) Get(key string) *VersionedValue {
	e, ok := db.index.Get(key)
	if !ok {
		return nil
	}
	return &e.VersionedValue
}

func (db *store) GetRange(start, end string) []KV {
	var out []KV
	for it := db.index.Range(start, end); it.Valid(); it.Next() {
		e := it.Value()
		out = append(out, KV{Key: it.Key(), Value: e.Value, Version: e.Version})
	}
	return out
}

// ExecuteQuery evaluates a Mango selector over every document, in key
// order; values that are not JSON objects are skipped. LevelDB has no
// rich-query support: users of the paper's recommendation #3 design
// chaincodes so this is never needed.
func (db *store) ExecuteQuery(query string) ([]KV, error) {
	if db.kind != CouchDB {
		return nil, errors.New("statedb: rich queries are not supported by LevelDB")
	}
	sel, err := couchq.Parse([]byte(query))
	if err != nil {
		return nil, err
	}
	var out []KV
	for it := db.index.Iter(); it.Valid(); it.Next() {
		e := it.Value()
		if doc, ok := e.document(); ok && sel.MatchesDoc(doc) {
			out = append(out, KV{Key: it.Key(), Value: e.Value, Version: e.Version})
		}
	}
	return out, nil
}

func (db *store) ApplyUpdates(batch *UpdateBatch, height uint64) error {
	for _, w := range batch.Writes {
		if w.IsDelete {
			db.index.Delete(w.Key)
			continue
		}
		db.index.Put(w.Key, &entry{VersionedValue: VersionedValue{Value: w.Value, Version: w.Version}})
	}
	db.savepoint = height
	return nil
}

func (db *store) Savepoint() uint64 { return db.savepoint }

func (db *store) Len() int { return db.index.Len() }

func (db *store) Clone(seed int64) VersionedDB {
	return &store{kind: db.kind, index: db.index.Clone(seed), savepoint: db.savepoint}
}
