package statedb

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/ledger"
)

func allKinds() []Kind { return []Kind{LevelDB, CouchDB} }

func TestKindString(t *testing.T) {
	if LevelDB.String() != "LevelDB" || CouchDB.String() != "CouchDB" {
		t.Error("Kind.String wrong")
	}
}

func TestGetAbsent(t *testing.T) {
	for _, k := range allKinds() {
		db := New(k)
		if db.Get("nope") != nil {
			t.Errorf("%v: Get on empty db returned value", k)
		}
	}
}

func TestApplyAndGet(t *testing.T) {
	for _, k := range allKinds() {
		db := New(k)
		b := &UpdateBatch{}
		b.Put("a", []byte(`{"n":1}`), ledger.Height{BlockNum: 1, TxNum: 0})
		b.Put("b", []byte(`{"n":2}`), ledger.Height{BlockNum: 1, TxNum: 1})
		if err := db.ApplyUpdates(b, 1); err != nil {
			t.Fatal(err)
		}
		vv := db.Get("a")
		if vv == nil || string(vv.Value) != `{"n":1}` {
			t.Fatalf("%v: Get(a) = %v", k, vv)
		}
		if vv.Version != (ledger.Height{BlockNum: 1, TxNum: 0}) {
			t.Errorf("%v: version = %v", k, vv.Version)
		}
		if db.Savepoint() != 1 {
			t.Errorf("%v: savepoint = %d", k, db.Savepoint())
		}
		if db.Len() != 2 {
			t.Errorf("%v: Len = %d", k, db.Len())
		}
	}
}

func TestDeleteRemovesKey(t *testing.T) {
	for _, k := range allKinds() {
		db := New(k)
		b := &UpdateBatch{}
		b.Put("a", []byte(`{"x":1}`), ledger.Height{BlockNum: 1})
		if err := db.ApplyUpdates(b, 1); err != nil {
			t.Fatal(err)
		}
		b2 := &UpdateBatch{}
		b2.Delete("a", ledger.Height{BlockNum: 2})
		if err := db.ApplyUpdates(b2, 2); err != nil {
			t.Fatal(err)
		}
		if db.Get("a") != nil {
			t.Errorf("%v: deleted key still readable", k)
		}
		if db.Len() != 0 {
			t.Errorf("%v: Len = %d after delete", k, db.Len())
		}
	}
}

func TestOverwriteBumpsVersion(t *testing.T) {
	for _, k := range allKinds() {
		db := New(k)
		b := &UpdateBatch{}
		b.Put("a", []byte(`1`), ledger.Height{BlockNum: 1})
		db.ApplyUpdates(b, 1)
		b2 := &UpdateBatch{}
		b2.Put("a", []byte(`2`), ledger.Height{BlockNum: 5, TxNum: 3})
		db.ApplyUpdates(b2, 5)
		vv := db.Get("a")
		if vv.Version != (ledger.Height{BlockNum: 5, TxNum: 3}) {
			t.Errorf("%v: version after overwrite = %v", k, vv.Version)
		}
	}
}

func TestGetRangeOrderedHalfOpen(t *testing.T) {
	for _, k := range allKinds() {
		db := New(k)
		b := &UpdateBatch{}
		for i := 0; i < 10; i++ {
			b.Put(fmt.Sprintf("k%02d", i), []byte(`{}`), ledger.Height{BlockNum: 1, TxNum: uint64(i)})
		}
		db.ApplyUpdates(b, 1)
		kvs := db.GetRange("k02", "k05")
		if len(kvs) != 3 || kvs[0].Key != "k02" || kvs[2].Key != "k04" {
			t.Errorf("%v: GetRange = %v", k, kvs)
		}
		all := db.GetRange("", "")
		if len(all) != 10 {
			t.Errorf("%v: unbounded range returned %d", k, len(all))
		}
	}
}

func TestLevelDBRejectsRichQuery(t *testing.T) {
	db := New(LevelDB)
	if _, err := db.ExecuteQuery(`{"a":1}`); err == nil {
		t.Fatal("LevelDB accepted a rich query")
	}
}

func TestCouchDBRichQuery(t *testing.T) {
	db := New(CouchDB)
	b := &UpdateBatch{}
	b.Put("art1", []byte(`{"owner":"alice","plays":5}`), ledger.Height{BlockNum: 1})
	b.Put("art2", []byte(`{"owner":"bob","plays":9}`), ledger.Height{BlockNum: 1})
	b.Put("art3", []byte(`{"owner":"alice","plays":12}`), ledger.Height{BlockNum: 1})
	b.Put("blob", []byte(`not-json`), ledger.Height{BlockNum: 1})
	db.ApplyUpdates(b, 1)

	kvs, err := db.ExecuteQuery(`{"owner":"alice"}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 2 || kvs[0].Key != "art1" || kvs[1].Key != "art3" {
		t.Fatalf("query result = %v", kvs)
	}
	kvs, err = db.ExecuteQuery(`{"plays":{"$gt":6}}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 2 {
		t.Fatalf("numeric query result = %v", kvs)
	}
	if _, err := db.ExecuteQuery(`{"$bad":1}`); err == nil {
		t.Fatal("invalid selector accepted")
	}
}

func TestCouchDBQueryAfterDelete(t *testing.T) {
	db := New(CouchDB)
	b := &UpdateBatch{}
	b.Put("d1", []byte(`{"t":"x"}`), ledger.Height{BlockNum: 1})
	db.ApplyUpdates(b, 1)
	b2 := &UpdateBatch{}
	b2.Delete("d1", ledger.Height{BlockNum: 2})
	db.ApplyUpdates(b2, 2)
	kvs, err := db.ExecuteQuery(`{"t":"x"}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 0 {
		t.Fatalf("query saw deleted doc: %v", kvs)
	}
}

func TestCouchDBNonJSONValueOverwrite(t *testing.T) {
	db := New(CouchDB)
	b := &UpdateBatch{}
	b.Put("k", []byte(`{"a":1}`), ledger.Height{BlockNum: 1})
	db.ApplyUpdates(b, 1)
	b2 := &UpdateBatch{}
	b2.Put("k", []byte(`raw-bytes`), ledger.Height{BlockNum: 2})
	db.ApplyUpdates(b2, 2)
	kvs, err := db.ExecuteQuery(`{"a":1}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 0 {
		t.Fatal("query matched stale document after non-JSON overwrite")
	}
	if vv := db.Get("k"); string(vv.Value) != "raw-bytes" {
		t.Fatalf("Get = %q", vv.Value)
	}
}

// queryKeys runs a rich query and returns the matched keys with their
// values, in result order.
func queryKeys(t *testing.T, db VersionedDB, query string) string {
	t.Helper()
	kvs, err := db.ExecuteQuery(query)
	if err != nil {
		t.Fatal(err)
	}
	out := ""
	for _, kv := range kvs {
		out += kv.Key + "=" + string(kv.Value) + ";"
	}
	return out
}

// commit applies writes as block height, stamping each with that height.
func commit(t *testing.T, db VersionedDB, height uint64, writes ...ledger.KVWrite) {
	t.Helper()
	batch := &UpdateBatch{}
	for i, w := range writes {
		batch.Add(w, ledger.Height{BlockNum: height, TxNum: uint64(i)})
	}
	if err := db.ApplyUpdates(batch, height); err != nil {
		t.Fatal(err)
	}
}

// Get hands out the stored entry without copying it, as a Scan walk
// does, and a write decodes nothing whatever the kind: documents are
// decoded on first selector use only.
func TestNoAllocOnGetNoDecodeOnApply(t *testing.T) {
	batch := &UpdateBatch{}
	batch.Put("k", []byte(`{"owner":"alice","plays":[1,2,3],"meta":{"a":"b"}}`), ledger.Height{BlockNum: 1})
	applyAllocs := map[Kind]float64{}
	for _, k := range allKinds() {
		db := New(k)
		if err := db.ApplyUpdates(batch, 1); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(100, func() { db.Get("k") }); n != 0 {
			t.Errorf("%v: Get of a present key allocates %.0f objects, want 0", k, n)
		}
		// Overwrites only, so the index never splits a node.
		applyAllocs[k] = testing.AllocsPerRun(100, func() { db.ApplyUpdates(batch, 1) })
		commit(t, db, 2, ledger.KVWrite{Key: "j", Value: []byte("1")}, ledger.KVWrite{Key: "l", Value: []byte("2")})
		walk := func() int {
			n := 0
			for it := db.Scan("j", "m"); it.Valid(); it.Next() {
				if it.Key() != "" && it.Value() != nil {
					n++
				}
			}
			return n
		}
		if n := walk(); n != 3 {
			t.Fatalf("%v: Scan of [j, m) walked %d keys, want 3", k, n)
		}
		if n := testing.AllocsPerRun(100, func() { walk() }); n != 0 {
			t.Errorf("%v: a 3-key Scan walk allocates %.0f objects, want 0", k, n)
		}
	}
	if applyAllocs[CouchDB] != applyAllocs[LevelDB] {
		t.Errorf("ApplyUpdates of a JSON object allocates %.0f objects on CouchDB, %.0f on LevelDB; want equal",
			applyAllocs[CouchDB], applyAllocs[LevelDB])
	}
}

// Clones share entries, and with them the decoded-document memo. A
// write replaces the entry, so the memo a query left on replica A must
// never answer for what replica B wrote afterwards, nor the reverse.
func TestCloneIsolationUnderSharedMemo(t *testing.T) {
	const alice, bob = `{"owner":"alice"}`, `{"owner":"bob"}`
	a := New(CouchDB)
	commit(t, a, 1, ledger.KVWrite{Key: "k", Value: []byte(alice)}, ledger.KVWrite{Key: "other", Value: []byte(alice)})
	b := a.Clone(2)
	const both = `k={"owner":"alice"};other={"owner":"alice"};`

	// Query A first: every shared entry now carries its memo.
	if got := queryKeys(t, a, alice); got != both {
		t.Fatalf("A before any write: %q", got)
	}
	if got := queryKeys(t, b, alice); got != both {
		t.Fatalf("B reading A's memo: %q", got)
	}

	commit(t, b, 2, ledger.KVWrite{Key: "k", Value: []byte(bob)})
	if got := queryKeys(t, b, bob); got != `k={"owner":"bob"};` {
		t.Errorf("B after overwrite does not see its new document: %q", got)
	}
	if got := queryKeys(t, b, alice); got != `other={"owner":"alice"};` {
		t.Errorf("B after overwrite still matches A's memo: %q", got)
	}

	commit(t, b, 3, ledger.KVWrite{Key: "k", Value: []byte(`raw-bytes`)})
	if got := queryKeys(t, b, bob) + queryKeys(t, b, alice); got != `other={"owner":"alice"};` {
		t.Errorf("B after non-JSON overwrite: %q", got)
	}

	commit(t, b, 4, ledger.KVWrite{Key: "k", IsDelete: true})
	if got := queryKeys(t, b, alice); got != `other={"owner":"alice"};` {
		t.Errorf("B after delete: %q", got)
	}
	if b.Get("k") != nil {
		t.Error("B still reads the deleted key")
	}

	// A saw none of it.
	if got := queryKeys(t, a, alice); got != both {
		t.Errorf("A after B's writes: %q", got)
	}
	if got := queryKeys(t, a, bob); got != "" {
		t.Errorf("A matches B's document: %q", got)
	}
	if vv := a.Get("k"); vv == nil || string(vv.Value) != alice || a.Savepoint() != 1 {
		t.Errorf("A's key or savepoint moved: %v, savepoint %d", vv, a.Savepoint())
	}
}

// Property: both kinds agree with each other and with a reference map
// under random batches, while the CouchDB side is repeatedly swapped
// for a clone of itself and asked rich queries (which leave memos on
// the entries the clones share).
func TestBackendsAgree(t *testing.T) {
	type wr struct {
		Key   uint8
		Val   uint16
		Del   bool
		Clone bool
		Query bool
	}
	// Four distinct documents, so a selector matches many keys.
	doc := func(v uint16) string { return fmt.Sprintf(`{"v":%d}`, v%4) }
	f := func(batches [][]wr) bool {
		ldb, cdb := New(LevelDB), New(CouchDB)
		ref := map[string]string{}
		for bi, ops := range batches {
			b := &UpdateBatch{}
			h := uint64(bi + 1)
			for ti, o := range ops {
				key := fmt.Sprintf("key%03d", o.Key)
				if o.Del {
					b.Delete(key, ledger.Height{BlockNum: h, TxNum: uint64(ti)})
					delete(ref, key)
				} else {
					val := doc(o.Val)
					b.Put(key, []byte(val), ledger.Height{BlockNum: h, TxNum: uint64(ti)})
					ref[key] = val
				}
			}
			if ldb.ApplyUpdates(b, h) != nil || cdb.ApplyUpdates(b, h) != nil {
				return false
			}
			for _, o := range ops {
				if o.Clone {
					stale := cdb
					cdb = cdb.Clone(int64(o.Val))
					// Writes to the abandoned original must not reach the clone.
					wipe := &UpdateBatch{}
					for k := range ref {
						wipe.Put(k, []byte(`{"v":99}`), ledger.Height{BlockNum: h + 1})
					}
					if stale.ApplyUpdates(wipe, h+1) != nil {
						return false
					}
				}
				if o.Query {
					want := 0
					for _, v := range ref {
						if v == doc(o.Val) {
							want++
						}
					}
					kvs, err := cdb.ExecuteQuery(doc(o.Val))
					if err != nil || len(kvs) != want {
						return false
					}
					for _, kv := range kvs {
						if ref[kv.Key] != string(kv.Value) {
							return false
						}
					}
				}
			}
		}
		if ldb.Len() != len(ref) || cdb.Len() != len(ref) || ldb.Savepoint() != cdb.Savepoint() {
			return false
		}
		for k, v := range ref {
			lv, cv := ldb.Get(k), cdb.Get(k)
			if lv == nil || cv == nil || string(lv.Value) != v || string(cv.Value) != v {
				return false
			}
			if lv.Version != cv.Version {
				return false
			}
		}
		lr, cr := ldb.GetRange("", ""), cdb.GetRange("", "")
		if len(lr) != len(ref) || len(cr) != len(ref) {
			return false
		}
		for i := range lr {
			if lr[i].Key != cr[i].Key || lr[i].Version != cr[i].Version {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Error(err)
	}
}

// Scan and GetRange walk the same entries as a sorted-slice oracle, on a
// store and on a clone of it that diverges, for bounds that are open,
// equal to stored keys, between keys or inverted.
func TestScanMatchesGetRangeAndOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	key := func() string { return fmt.Sprintf("k%02d", rng.Intn(60)) }
	bound := func() string {
		switch rng.Intn(3) {
		case 0:
			return ""
		case 1:
			return key()
		}
		return key() + "~"
	}
	// apply commits a random put/delete batch to db and its model.
	apply := func(db VersionedDB, model map[string]ledger.Height, height uint64) {
		b := &UpdateBatch{}
		for i, n := 0, rng.Intn(30); i < n; i++ {
			k, h := key(), ledger.Height{BlockNum: height, TxNum: uint64(i)}
			if rng.Intn(3) == 0 {
				b.Delete(k, h)
				delete(model, k)
			} else {
				b.Put(k, []byte(k), h)
				model[k] = h
			}
		}
		if err := db.ApplyUpdates(b, height); err != nil {
			t.Fatal(err)
		}
	}
	// oracle lists the model's keys in [start, end) with their versions.
	oracle := func(model map[string]ledger.Height, start, end string) string {
		keys := make([]string, 0, len(model))
		for k := range model {
			if k >= start && (end == "" || k < end) {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		out := ""
		for _, k := range keys {
			out += fmt.Sprintf("%s@%v;", k, model[k])
		}
		return out
	}
	check := func(db VersionedDB, model map[string]ledger.Height) {
		for q := 0; q < 20; q++ {
			start, end := bound(), bound()
			scanned, ranged := "", ""
			for it := db.Scan(start, end); it.Valid(); it.Next() {
				if string(it.Value().Value) != it.Key() {
					t.Fatalf("Scan hands out %q under key %q", it.Value().Value, it.Key())
				}
				scanned += fmt.Sprintf("%s@%v;", it.Key(), it.Value().Version)
			}
			for _, kv := range db.GetRange(start, end) {
				ranged += fmt.Sprintf("%s@%v;", kv.Key, kv.Version)
			}
			if want := oracle(model, start, end); scanned != want || ranged != want {
				t.Fatalf("%v [%q, %q): Scan %q, GetRange %q, want %q", db.Kind(), start, end, scanned, ranged, want)
			}
		}
	}
	for round := 0; round < 40; round++ {
		db, model := New(allKinds()[round%2]), map[string]ledger.Height{}
		for h := uint64(1); h <= 3; h++ {
			apply(db, model, h)
			check(db, model)
		}
		clone, cloneModel := db.Clone(0), map[string]ledger.Height{}
		for k, v := range model {
			cloneModel[k] = v
		}
		for h := uint64(4); h <= 6; h++ {
			apply(clone, cloneModel, h)
			apply(db, model, h)
			check(clone, cloneModel)
			check(db, model)
		}
	}
}

func BenchmarkLevelDBGet(b *testing.B) {
	db := New(LevelDB)
	batch := &UpdateBatch{}
	for i := 0; i < 10000; i++ {
		batch.Put(fmt.Sprintf("key%06d", i), []byte(`{"n":1}`), ledger.Height{BlockNum: 1})
	}
	db.ApplyUpdates(batch, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.Get(fmt.Sprintf("key%06d", i%10000))
	}
}

func BenchmarkCouchDBRichQuery(b *testing.B) {
	db := New(CouchDB)
	batch := &UpdateBatch{}
	for i := 0; i < 1000; i++ {
		batch.Put(fmt.Sprintf("key%06d", i),
			[]byte(fmt.Sprintf(`{"owner":"o%d","n":%d}`, i%10, i)), ledger.Height{BlockNum: 1})
	}
	db.ApplyUpdates(batch, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.ExecuteQuery(`{"owner":"o3"}`)
	}
}

// A batch builds each write's entry once: every database it is applied
// to — not just clones of one of them — hands out that same entry, with
// the document the write carried.
func TestBatchEntrySharedByEveryReplica(t *testing.T) {
	type doc struct{ N int }
	carried := &doc{N: 1}
	batch := &UpdateBatch{}
	batch.Add(ledger.KVWrite{Key: "k", Value: []byte(`{"N":1}`), Doc: carried}, ledger.Height{BlockNum: 1})
	batch.Add(ledger.KVWrite{Key: "gone", IsDelete: true}, ledger.Height{BlockNum: 1, TxNum: 1})
	batch.Put("raw", []byte("bytes"), ledger.Height{BlockNum: 1, TxNum: 2})
	if batch.Len() != 3 {
		t.Fatalf("batch holds %d writes, want 3", batch.Len())
	}
	a, b := New(CouchDB), New(LevelDB)
	commit(t, a, 0, ledger.KVWrite{Key: "gone", Value: []byte("x")})
	commit(t, b, 0, ledger.KVWrite{Key: "gone", Value: []byte("x")})
	for _, db := range []VersionedDB{a, b} {
		if err := db.ApplyUpdates(batch, 1); err != nil {
			t.Fatal(err)
		}
		if db.Get("gone") != nil || db.Len() != 2 {
			t.Errorf("%v: deletion not applied, %d keys", db.Kind(), db.Len())
		}
	}
	for _, key := range []string{"k", "raw"} {
		if a.Get(key) == nil || a.Get(key) != b.Get(key) {
			t.Errorf("%s: replicas hold %p and %p, want one shared entry", key, a.Get(key), b.Get(key))
		}
	}
	if vv := b.Get("k"); vv.Doc != any(carried) || vv.Version != (ledger.Height{BlockNum: 1}) {
		t.Errorf("k = %+v, want the carried document at 1:0", vv)
	}
	if vv := a.Get("raw"); vv.Doc != nil || string(vv.Value) != "bytes" {
		t.Errorf("raw = %+v, want bytes without a document", vv)
	}
	// Applying allocates nothing per write beyond the index's own nodes:
	// overwrites only, so none.
	if n := testing.AllocsPerRun(100, func() { a.ApplyUpdates(batch, 1) }); n != 0 {
		t.Errorf("re-applying a 3-write batch allocates %.0f objects", n)
	}
}
