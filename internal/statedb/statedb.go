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
	"slices"
	"strings"

	"repro/internal/btree"
	"repro/internal/couchq"
	"repro/internal/ledger"
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
	// Doc, when set, is Value decoded: a pointer to the document struct
	// of the chaincode that wrote or last read the value. Value is the
	// truth and Doc a cache of it that every replica shares, so whatever
	// Doc points to is immutable; only a reader that had to decode Value
	// sets the field (chaincode.GetDoc).
	Doc any
}

// KV is one entry returned by range scans and rich queries.
type KV struct {
	Key     string
	Value   []byte
	Version ledger.Height
}

// write is one element of an update batch: the entry the key will
// hold, nil for a deletion.
type write struct {
	key string
	e   *entry
}

// UpdateBatch is an ordered set of writes applied atomically at
// commit. Each write carries the height of the transaction that
// produced it, exactly like Fabric's committer. The batch builds the
// entry of a write once and every database it is applied to indexes
// that same entry, so a batch is read-only once applied.
type UpdateBatch struct {
	writes []write
}

// Put appends a value write to the batch.
func (b *UpdateBatch) Put(key string, value []byte, v ledger.Height) {
	b.put(key, VersionedValue{Value: value, Version: v})
}

// Delete appends a deletion to the batch. A deleted key stores nothing,
// so the version of the deleting transaction is not kept.
func (b *UpdateBatch) Delete(key string, _ ledger.Height) {
	b.writes = append(b.writes, write{key: key})
}

// Add appends one write of a transaction's write set at version v: a
// deletion, or a value together with the document it carries, if any.
func (b *UpdateBatch) Add(w ledger.KVWrite, v ledger.Height) {
	if w.IsDelete {
		b.Delete(w.Key, v)
		return
	}
	b.put(w.Key, VersionedValue{Value: w.Value, Version: v, Doc: w.Doc})
}

func (b *UpdateBatch) put(key string, vv VersionedValue) {
	b.writes = append(b.writes, write{key: key, e: &entry{VersionedValue: vv}})
}

// Len reports the number of writes in the batch.
func (b *UpdateBatch) Len() int { return len(b.writes) }

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
	// Scan walks the same interval as GetRange in place: the iterator
	// hands out the stored values and allocates nothing. Any change to
	// the database invalidates it.
	Scan(start, end string) Iterator
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
	// one), as they are between all databases one batch is applied to.
	// The seed is unused: the copy has no randomized structure.
	Clone(seed int64) VersionedDB
}

// entry is one stored version of a key. A write replaces the entry
// wholesale, so an entry is immutable apart from its two caches of
// Value (Doc and the memo below), and every replica that applied the
// write's batch, like every clone, shares it by pointer.
type entry struct {
	VersionedValue
	// object is the memo of Value decoded as a JSON object, filled the
	// first time a selector looks at this entry. Shared like the entry, so
	// a value is decoded for selectors at most once network-wide, and
	// never in a run without rich queries. Behind a pointer, so that an
	// entry is 64 bytes with the document beside it.
	object *jsonObject
}

// jsonObject is a value as a selector sees it; isObject is false when
// the value is not a JSON object (CouchDB would hold it as an
// attachment).
type jsonObject struct {
	fields   map[string]interface{}
	isObject bool
}

// document returns the value as a JSON object, if it is one.
func (e *entry) document() (doc map[string]interface{}, ok bool) {
	if e.object == nil {
		o := &jsonObject{}
		o.isObject = json.Unmarshal(e.Value, &o.fields) == nil
		e.object = o
	}
	return e.object.fields, e.object.isObject
}

// store is the one VersionedDB: an ordered index of entries in a
// B-tree. The index is the simulator's own bookkeeping: what a read,
// scan or commit costs in virtual time comes from costmodel, never
// from the index.
type store struct {
	kind      Kind
	index     *btree.Tree[*entry]
	savepoint uint64
}

// New constructs an empty database of the given kind.
func New(kind Kind) VersionedDB {
	return &store{kind: kind, index: btree.New[*entry]()}
}

// Load returns a database of the given kind holding writes as one
// batch applied at height 0 leaves it: write i at version (0, i), the
// last write of a key winning, and a deletion storing nothing. It is
// how a genesis state is built: the entries share one allocation, the
// key order is sorted once (not at all when the keys already ascend)
// and the index is built bottom-up instead of inserted key by key.
func Load(kind Kind, writes []ledger.KVWrite) VersionedDB {
	order := make([]int, len(writes))
	for i := range order {
		order[i] = i
	}
	byKey := func(a, b int) int {
		if c := strings.Compare(writes[a].Key, writes[b].Key); c != 0 {
			return c
		}
		return a - b
	}
	if !slices.IsSortedFunc(order, byKey) {
		slices.SortFunc(order, byKey)
	}
	entries := make([]entry, len(writes))
	keys := make([]string, 0, len(writes))
	vals := make([]*entry, 0, len(writes))
	for j, i := range order {
		w := writes[i]
		if w.IsDelete || j+1 < len(order) && writes[order[j+1]].Key == w.Key {
			continue // stores nothing, or a later write of the key wins
		}
		entries[i].VersionedValue = VersionedValue{Value: w.Value, Version: ledger.Height{TxNum: uint64(i)}, Doc: w.Doc}
		keys = append(keys, w.Key)
		vals = append(vals, &entries[i])
	}
	return &store{kind: kind, index: btree.Build(keys, vals)}
}

func (db *store) Kind() Kind { return db.kind }

func (db *store) Get(key string) *VersionedValue {
	e, ok := db.index.Get(key)
	if !ok {
		return nil
	}
	return &e.VersionedValue
}

// GetRange collects a Scan into a slice of exactly its length: it
// counts on a copy of the iterator, then fills from the original.
func (db *store) GetRange(start, end string) []KV {
	it := db.Scan(start, end)
	n := 0
	for c := it; c.Valid(); c.Next() {
		n++
	}
	if n == 0 {
		return nil
	}
	out := make([]KV, 0, n)
	for ; it.Valid(); it.Next() {
		vv := it.Value()
		out = append(out, KV{Key: it.Key(), Value: vv.Value, Version: vv.Version})
	}
	return out
}

func (db *store) Scan(start, end string) Iterator {
	return Iterator{db.index.Range(start, end)}
}

// Iterator walks a key range of a database in ascending order; use
// Valid/Next/Key/Value. It is a value that holds its B-tree path
// inline, so a walk allocates nothing.
type Iterator struct {
	it btree.Iterator[*entry]
}

// Valid reports whether the iterator is positioned on an entry.
func (it *Iterator) Valid() bool { return it.it.Valid() }

// Next advances to the following entry.
func (it *Iterator) Next() { it.it.Next() }

// Key returns the current key. Only valid while Valid() is true.
func (it *Iterator) Key() string { return it.it.Key() }

// Value returns the current stored value, shared with every replica:
// it must not be modified. Only valid while Valid() is true.
func (it *Iterator) Value() *VersionedValue { return &it.it.Value().VersionedValue }

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
	for _, w := range batch.writes {
		if w.e == nil {
			db.index.Delete(w.key)
			continue
		}
		db.index.Put(w.key, w.e)
	}
	db.savepoint = height
	return nil
}

func (db *store) Savepoint() uint64 { return db.savepoint }

func (db *store) Len() int { return db.index.Len() }

func (db *store) Clone(int64) VersionedDB {
	return &store{kind: db.kind, index: db.index.Clone(), savepoint: db.savepoint}
}
