// Package statedb implements the world state: a versioned key/value
// store replicated on every peer (§2). A replica depends on its height
// alone, so a channel keeps one index and each peer's replica is a View
// of it at the peer's savepoint: the head applies a batch once, and a
// view below it reads, key by key, what the batches above it replaced.
// There is one store; its Kind mirrors the paper's database-type
// control variable (§5.1.2) and decides exactly two things:
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
// A store is not safe for concurrent use, and neither are the index it
// shares with its views and the entries it shares with its clones: a
// network's replicas all run on the one goroutine of its discrete-event
// engine.
package statedb

import (
	"encoding/json"
	"errors"
	"fmt"
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
	// ApplyUpdates commits a batch and advances the savepoint; a View
	// below its index's head only advances, past the batch applied next.
	ApplyUpdates(batch *UpdateBatch, height uint64) error
	// Savepoint is the block height up to which updates are applied.
	Savepoint() uint64
	// State names what the database reads now (see State).
	State() State
	// Len reports the number of live keys.
	Len() int
	// Clone returns an independent database holding what this one
	// reads, at its savepoint: a new index, whose entries are shared
	// (a write replaces an entry, never changes one), as they are
	// between all databases one batch is applied to.
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

// store is the one VersionedDB: a view of an index at the view's
// savepoint. The index is the simulator's own bookkeeping: what a read,
// scan or commit costs in virtual time comes from costmodel, never from
// the index.
type store struct {
	kind      Kind
	idx       *index
	savepoint uint64
}

// index is one world state shared by every view of it: a B-tree of
// each key's newest entry, and the history a view below the newest
// (the head) reads its own height through. While one view is below the
// head, the tree also holds a tombstone for each key deleted above it.
type index struct {
	tree *btree.Tree[*entry]
	// head is the highest savepoint of any view; dead counts the
	// tombstones in tree.
	head uint64
	dead int
	// steps holds, in height order, every batch applied above the
	// lowest view; spare holds pruned steps for reuse.
	steps []*step
	spare []*step
	views []*store
}

// step is one batch as its index applied it.
type step struct {
	height uint64
	batch  *UpdateBatch
	// live is the number of live keys before the batch.
	live int
	// undo holds, sorted by key, what each key the batch wrote held
	// before it.
	undo []undo
	// tomb is the tombstone of every key the batch deleted; tombs
	// counts the deletions that placed it.
	tomb  entry
	tombs int
}

// undo is the entry key held before a step wrote it; nil when absent.
type undo struct {
	key  string
	prev *entry
}

// deadMark marks a tombstone: no live entry's object is it.
var deadMark = &jsonObject{}

func (e *entry) dead() bool { return e.object == deadMark }

func newStore(kind Kind, tree *btree.Tree[*entry], savepoint uint64) *store {
	db := &store{kind: kind, idx: &index{tree: tree, head: savepoint}, savepoint: savepoint}
	db.idx.views = []*store{db}
	return db
}

// New constructs an empty database of the given kind.
func New(kind Kind) VersionedDB {
	return newStore(kind, btree.New[*entry](), 0)
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
	return newStore(kind, btree.Build(keys, vals), 0)
}

// View returns a new view of db's index at db's savepoint: it reads
// what db reads now, and it moves only when its own ApplyUpdates
// replays the batches the index applied after that height.
func View(db VersionedDB) VersionedDB {
	s := db.(*store)
	v := &store{kind: s.kind, idx: s.idx, savepoint: s.savepoint}
	s.idx.views = append(s.idx.views, v)
	return v
}

func (db *store) Kind() Kind { return db.kind }

// read returns the entry the view holds under key, given e, the
// index's newest entry of key: e itself, unless a batch above the view
// wrote key (its entry's version names that batch's height), or nil.
func (db *store) read(key string, e *entry) *entry {
	if e.Version.BlockNum > db.savepoint && db.savepoint != db.idx.head {
		if prev, ok := db.idx.before(key, db.savepoint); ok {
			return prev
		}
	}
	if e.dead() {
		return nil
	}
	return e
}

// above returns the position of the first step above height s.
func (x *index) above(s uint64) int {
	i := len(x.steps)
	for i > 0 && x.steps[i-1].height > s {
		i--
	}
	return i
}

// before returns what key held at height s: the entry the first write
// of key above s replaced. ok is false when no step above s wrote key.
func (x *index) before(key string, s uint64) (prev *entry, ok bool) {
	for _, st := range x.steps[x.above(s):] {
		if i, found := slices.BinarySearchFunc(st.undo, key, func(u undo, k string) int {
			return strings.Compare(u.key, k)
		}); found {
			return st.undo[i].prev, true
		}
	}
	return nil, false
}

func (db *store) Get(key string) *VersionedValue {
	e, ok := db.idx.tree.Get(key)
	if !ok {
		return nil
	}
	if e = db.read(key, e); e == nil {
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
	it := Iterator{it: db.idx.tree.Range(start, end), db: db}
	it.settle()
	return it
}

// Iterator walks a key range of a database in ascending order; use
// Valid/Next/Key/Value. It is a value that holds its B-tree path
// inline, so a walk allocates nothing.
type Iterator struct {
	it  btree.Iterator[*entry]
	db  *store
	cur *entry
}

// settle moves the iterator onto the first key from its position on
// that the view holds.
func (it *Iterator) settle() {
	for ; it.it.Valid(); it.it.Next() {
		if it.cur = it.db.read(it.it.Key(), it.it.Value()); it.cur != nil {
			return
		}
	}
}

// Valid reports whether the iterator is positioned on an entry.
func (it *Iterator) Valid() bool { return it.it.Valid() }

// Next advances to the following entry.
func (it *Iterator) Next() {
	it.it.Next()
	it.settle()
}

// Key returns the current key. Only valid while Valid() is true.
func (it *Iterator) Key() string { return it.it.Key() }

// Value returns the current stored value, shared with every replica:
// it must not be modified. Only valid while Valid() is true.
func (it *Iterator) Value() *VersionedValue { return &it.cur.VersionedValue }

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
	for it := db.Scan("", ""); it.Valid(); it.Next() {
		e := it.cur
		if doc, ok := e.document(); ok && sel.MatchesDoc(doc) {
			out = append(out, KV{Key: it.Key(), Value: e.Value, Version: e.Version})
		}
	}
	return out, nil
}

// ApplyUpdates applies the batch at the head and moves the view there.
// A view below the head applies nothing: it moves to height if batch
// is the one its index applied next, at height, and fails otherwise.
// While another view reads the index, a batch applied at the head must
// lie above it and stamp every write with its height, as the
// validator's do: a view tells the entries above it by their version.
func (db *store) ApplyUpdates(batch *UpdateBatch, height uint64) error {
	x := db.idx
	switch {
	case len(x.views) == 1:
		for _, w := range batch.writes {
			if w.e == nil {
				x.tree.Delete(w.key)
			} else {
				x.tree.Put(w.key, w.e)
			}
		}
		x.head = height
	case db.savepoint == x.head:
		if err := x.record(batch, height); err != nil {
			return err
		}
	default:
		if st := x.steps[x.above(db.savepoint)]; st.batch != batch || st.height != height {
			return fmt.Errorf("statedb: a view at %d cannot apply a batch at %d: its index applied another batch at %d next",
				db.savepoint, height, st.height)
		}
	}
	db.savepoint = height
	x.prune()
	return nil
}

// record applies batch at height on top of the head and keeps the step
// the views below read through.
func (x *index) record(batch *UpdateBatch, height uint64) error {
	if height <= x.head {
		return fmt.Errorf("statedb: a batch at %d does not follow the head at %d", height, x.head)
	}
	for _, w := range batch.writes {
		if w.e != nil && w.e.Version.BlockNum != height {
			return fmt.Errorf("statedb: a write of %q at version %v is applied at %d", w.key, w.e.Version, height)
		}
	}
	var st *step
	if n := len(x.spare); n > 0 {
		st, x.spare = x.spare[n-1], x.spare[:n-1]
	} else {
		st = &step{}
	}
	st.height, st.batch, st.live = height, batch, x.tree.Len()-x.dead
	st.tomb = entry{VersionedValue: VersionedValue{Version: ledger.Height{BlockNum: height}}, object: deadMark}
	for _, w := range batch.writes {
		old, ok := x.tree.Get(w.key)
		if ok && old.dead() {
			old = nil
		}
		switch {
		case w.e != nil:
			if ok && old == nil {
				x.dead--
			}
			x.tree.Put(w.key, w.e)
		case old == nil:
			continue // deleting an absent key changes nothing
		default:
			x.tree.Put(w.key, &st.tomb)
			x.dead++
			st.tombs++
		}
		st.undo = append(st.undo, undo{w.key, old})
	}
	// Sorted, keeping the first write of each key: what it replaced is
	// what the key held before the batch.
	slices.SortStableFunc(st.undo, func(a, b undo) int { return strings.Compare(a.key, b.key) })
	st.undo = slices.CompactFunc(st.undo, func(a, b undo) bool { return a.key == b.key })
	x.steps = append(x.steps, st)
	x.head = height
	return nil
}

// prune drops the steps at or below the lowest view, and with them
// their tombstones, which no view reads any more.
func (x *index) prune() {
	low := x.head
	for _, v := range x.views {
		low = min(low, v.savepoint)
	}
	n := 0
	for ; n < len(x.steps) && x.steps[n].height <= low; n++ {
		st := x.steps[n]
		for i := 0; i < len(st.undo) && st.tombs > 0; i++ {
			if e, _ := x.tree.Get(st.undo[i].key); e == &st.tomb {
				x.tree.Delete(st.undo[i].key)
				x.dead--
				st.tombs--
			}
		}
		clear(st.undo)
		st.undo, st.batch, st.tombs = st.undo[:0], nil, 0
		x.spare = append(x.spare, st)
	}
	if n > 0 {
		k := copy(x.steps, x.steps[n:])
		clear(x.steps[k:])
		x.steps = x.steps[:k]
	}
}

func (db *store) Savepoint() uint64 { return db.savepoint }

// State is an index at a savepoint. Every view with one State reads the
// same world state; a Clone has an index of its own, so it never shares
// a State with the database it was cloned from.
type State struct {
	idx       *index
	savepoint uint64
}

func (db *store) State() State { return State{db.idx, db.savepoint} }

func (db *store) Len() int {
	x := db.idx
	if db.savepoint != x.head {
		return x.steps[x.above(db.savepoint)].live
	}
	return x.tree.Len() - x.dead
}

// Clone copies the index as the view reads it: the tree itself at a
// head without tombstones, and otherwise a tree built from a Scan.
func (db *store) Clone(int64) VersionedDB {
	if x := db.idx; db.savepoint == x.head && x.dead == 0 {
		return newStore(db.kind, x.tree.Clone(), db.savepoint)
	}
	var keys []string
	var vals []*entry
	for it := db.Scan("", ""); it.Valid(); it.Next() {
		keys = append(keys, it.Key())
		vals = append(vals, it.cur)
	}
	return newStore(db.kind, btree.Build(keys, vals), db.savepoint)
}
