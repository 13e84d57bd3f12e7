package chaincode

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/ledger"
	"repro/internal/statedb"
)

func seeded(kind statedb.Kind) statedb.VersionedDB {
	db := statedb.New(kind)
	b := &statedb.UpdateBatch{}
	b.Put("k1", []byte(`{"n":1}`), ledger.Height{BlockNum: 1, TxNum: 0})
	b.Put("k2", []byte(`{"n":2}`), ledger.Height{BlockNum: 1, TxNum: 1})
	b.Put("k3", []byte(`{"n":3}`), ledger.Height{BlockNum: 2, TxNum: 0})
	db.ApplyUpdates(b, 2)
	return db
}

func TestGetStateRecordsVersion(t *testing.T) {
	s := NewStub(seeded(statedb.LevelDB))
	v, err := s.GetState("k1")
	if err != nil || string(v) != `{"n":1}` {
		t.Fatalf("GetState = %q, %v", v, err)
	}
	rw := s.RWSet()
	if len(rw.Reads) != 1 || rw.Reads[0].Key != "k1" ||
		rw.Reads[0].Version != (ledger.Height{BlockNum: 1, TxNum: 0}) {
		t.Fatalf("read set = %+v", rw.Reads)
	}
}

func TestGetStateAbsentKeyRecordsZeroVersion(t *testing.T) {
	s := NewStub(seeded(statedb.LevelDB))
	v, err := s.GetState("missing")
	if err != nil || v != nil {
		t.Fatalf("GetState(missing) = %q, %v", v, err)
	}
	if len(s.RWSet().Reads) != 1 || s.RWSet().Reads[0].Version != ledger.ZeroHeight {
		t.Fatalf("read set = %+v", s.RWSet().Reads)
	}
}

// A read set is scanned while it is short and indexed once it outgrows
// scanLimit; the rows sit on each side of that switch.
func TestDuplicateReadRecordedOnce(t *testing.T) {
	for _, keys := range []int{1, scanLimit, scanLimit + 1, 3 * scanLimit} {
		s := NewStub(seeded(statedb.LevelDB))
		for round := 0; round < 2; round++ {
			for k := 0; k < keys; k++ {
				s.GetState(fmt.Sprintf("k%d", k))
			}
		}
		if len(s.RWSet().Reads) != keys {
			t.Errorf("%d keys read twice: %d reads recorded: %+v", keys, len(s.RWSet().Reads), s.RWSet().Reads)
		}
		if s.Trace().Gets != 2*keys {
			t.Errorf("%d keys read twice: trace gets = %d, want %d", keys, s.Trace().Gets, 2*keys)
		}
		if indexed := s.readKey != nil; indexed != (keys > scanLimit) {
			t.Errorf("%d keys: read set indexed = %v, scan limit %d", keys, indexed, scanLimit)
		}
	}
}

func TestNoReadYourOwnWrites(t *testing.T) {
	s := NewStub(seeded(statedb.LevelDB))
	s.PutState("k1", []byte("new"))
	v, _ := s.GetState("k1")
	if string(v) != `{"n":1}` {
		t.Fatalf("GetState after PutState = %q, want committed value", v)
	}
}

// Like the read set, the write set is scanned up to scanLimit keys and
// indexed beyond it.
// TestLastWriteWins rewrites and deletes every buffered key in each of
// the write set's three regimes: scanned up to scanLimit writes,
// searched without a map while the keys ascend (k0…k8), and indexed by
// a map once one arrives out of order (k10 after k9).
func TestLastWriteWins(t *testing.T) {
	for _, c := range []struct {
		keys    int
		indexed bool
	}{{1, false}, {scanLimit, false}, {scanLimit + 1, false}, {3 * scanLimit, true}} {
		keys := c.keys
		s := NewStub(seeded(statedb.LevelDB))
		for k := 0; k < keys; k++ {
			s.PutState(fmt.Sprintf("k%d", k), []byte("a"))
		}
		for k := 0; k < keys; k++ {
			s.PutState(fmt.Sprintf("k%d", k), []byte("b"))
			s.DelState(fmt.Sprintf("k%d", k))
		}
		rw := s.RWSet()
		if len(rw.Writes) != keys {
			t.Fatalf("%d keys: writes = %+v", keys, rw.Writes)
		}
		for k, w := range rw.Writes {
			if w.Key != fmt.Sprintf("k%d", k) || !w.IsDelete {
				t.Errorf("%d keys: write %d = %+v, want the deletion of k%d", keys, k, w, k)
			}
		}
		if s.Trace().Puts != 2*keys || s.Trace().Deletes != keys {
			t.Errorf("%d keys: trace = %+v", keys, s.Trace())
		}
		if indexed := s.writes != nil; indexed != c.indexed {
			t.Errorf("%d keys: write set indexed = %v, want %v", keys, indexed, c.indexed)
		}
	}
}

// A write set that ascends past scanLimit is searched without a map,
// rewrites included; one key out of order brings the map in, and from
// then on every write keeps its first position and the last one wins.
func TestWriteSetTurnsUnordered(t *testing.T) {
	s := NewStub(seeded(statedb.LevelDB))
	key := func(i int) string { return fmt.Sprintf("k%02d", i) }
	want := map[string]string{}
	write := func(k, v string) {
		if v == "" {
			s.DelState(k)
		} else {
			s.PutState(k, []byte(v))
		}
		want[k] = v
	}
	for i := 0; i < 2*scanLimit; i++ {
		write(key(i), "a")
	}
	write(key(scanLimit), "b")
	write(key(0), "b")
	if s.writes != nil || s.unordered {
		t.Fatalf("an ascending write set was indexed (map %v, unordered %v)", s.writes != nil, s.unordered)
	}
	write("k05x", "a") // between k05 and k06: out of order
	for _, k := range []string{key(0), key(3), "k05x", key(2*scanLimit - 1)} {
		write(k, "c")
	}
	write(key(7), "")
	if s.writes == nil {
		t.Fatal("the write set stayed unindexed after a key arrived out of order")
	}
	writes := s.RWSet().Writes
	if len(writes) != 2*scanLimit+1 {
		t.Fatalf("%d writes, want %d", len(writes), 2*scanLimit+1)
	}
	for i, w := range writes {
		wantKey := "k05x"
		if i < 2*scanLimit {
			wantKey = key(i)
		}
		if w.Key != wantKey || string(w.Value) != want[w.Key] || w.IsDelete != (want[w.Key] == "") {
			t.Errorf("write %d = %s %q (delete %v), want %s %q", i, w.Key, w.Value, w.IsDelete, wantKey, want[wantKey])
		}
	}
}

func TestNewStubAllocatesNoMaps(t *testing.T) {
	db := seeded(statedb.LevelDB)
	// The stub alone: its sets are scratch inside it.
	if n := testing.AllocsPerRun(100, func() { NewStub(db) }); n > 1 {
		t.Errorf("NewStub allocates %.0f objects, want at most 1", n)
	}
	if s := NewStub(db); s.readKey != nil || s.writes != nil {
		t.Error("NewStub built a look-up map up front")
	}
}

func TestEmptyKeyRejected(t *testing.T) {
	s := NewStub(seeded(statedb.LevelDB))
	if _, err := s.GetState(""); err == nil {
		t.Error("GetState accepted empty key")
	}
	if err := s.PutState("", nil); err == nil {
		t.Error("PutState accepted empty key")
	}
	if err := s.DelState(""); err == nil {
		t.Error("DelState accepted empty key")
	}
}

func TestRangeRecordsQueryInfo(t *testing.T) {
	s := NewStub(seeded(statedb.LevelDB))
	kvs, err := s.GetStateByRange("k1", "k3")
	if err != nil || len(kvs) != 2 {
		t.Fatalf("range = %v, %v", kvs, err)
	}
	rw := s.RWSet()
	if len(rw.RangeQueries) != 1 {
		t.Fatalf("range queries = %+v", rw.RangeQueries)
	}
	rq := rw.RangeQueries[0]
	if rq.StartKey != "k1" || rq.EndKey != "k3" || len(rq.Reads) != 2 || rq.Unchecked {
		t.Fatalf("range query info = %+v", rq)
	}
	if s.Trace().Ranges != 1 || s.Trace().RangeKeys != 2 {
		t.Fatalf("trace = %+v", s.Trace())
	}
}

func TestRichQueryUncheckedOnCouch(t *testing.T) {
	s := NewStub(seeded(statedb.CouchDB))
	if !s.SupportsRichQueries() {
		t.Fatal("CouchDB stub reports no rich queries")
	}
	kvs, err := s.GetQueryResult(`{"n":{"$gte":2}}`)
	if err != nil || len(kvs) != 2 {
		t.Fatalf("query = %v, %v", kvs, err)
	}
	rw := s.RWSet()
	if len(rw.RangeQueries) != 1 || !rw.RangeQueries[0].Unchecked {
		t.Fatalf("rich query not recorded unchecked: %+v", rw.RangeQueries)
	}
	if len(rw.Reads) != 0 {
		t.Fatal("rich query polluted the plain read set")
	}
	if s.Trace().Queries != 1 || s.Trace().QueryDocs != 2 || s.Trace().ScannedLen != 3 {
		t.Fatalf("trace = %+v", s.Trace())
	}
}

func TestRichQueryFailsOnLevelDB(t *testing.T) {
	s := NewStub(seeded(statedb.LevelDB))
	if s.SupportsRichQueries() {
		t.Fatal("LevelDB stub reports rich queries")
	}
	if _, err := s.GetQueryResult(`{"n":1}`); err == nil {
		t.Fatal("rich query succeeded on LevelDB")
	}
}

type numDoc struct{ N int }

func (d numDoc) AppendJSON(b []byte) []byte {
	return append(AppendInt(append(b, `{"N":`...), d.N), '}')
}

// There is no unencodable-document case: PutDoc of a type without
// AppendJSON (a chan int, say) is a compile error.
func TestGetPutDoc(t *testing.T) {
	s := NewStub(seeded(statedb.LevelDB))
	if d, err := GetDoc[numDoc](s, "absent"); d != nil || err != nil {
		t.Fatalf("absent key: %+v, %v; want nil, nil", d, err)
	}
	if r := s.RWSet().Reads; len(r) != 1 || r[0] != (ledger.KVRead{Key: "absent"}) {
		t.Fatalf("absent key read set = %+v, want one zero-version read", r)
	}
	if c, found, err := CloneDoc[numDoc](s, "absent"); c == nil || *c != (numDoc{}) || found || err != nil {
		t.Fatalf("CloneDoc of an absent key: %+v, %v, %v; want the zero document", c, found, err)
	}
	d, err := GetDoc[numDoc](s, "k2")
	if err != nil || d == nil || d.N != 2 {
		t.Fatalf("present key: %+v, %v", d, err)
	}
	c, found, err := CloneDoc[numDoc](s, "k2")
	if err != nil || !found || c == d || *c != *d {
		t.Fatalf("CloneDoc: %+v (stored %p, copy %p), %v, %v", c, d, c, found, err)
	}
	nine := &numDoc{N: 9}
	if err := PutDoc(s, "k9", nine); err != nil {
		t.Fatal(err)
	}
	rw := s.RWSet()
	if len(rw.Reads) != 2 || len(rw.Writes) != 1 || string(rw.Writes[0].Value) != `{"N":9}` || rw.Writes[0].Doc != any(nine) {
		t.Fatalf("rwset = %+v", rw)
	}
	if _, err := GetDoc[numDoc](s, ""); err == nil {
		t.Error("GetDoc accepted an empty key")
	}
	if err := PutDoc(s, "", nine); err == nil {
		t.Error("PutDoc accepted an empty key")
	}
	if err := PutDoc[numDoc](s, "k", nil); err == nil {
		t.Error("PutDoc accepted a nil document")
	}
	if _, err := GetDoc[chan int](s, "k1"); err == nil {
		t.Error("GetDoc decoded an object into a channel")
	}
}

// The document a reader decoded, or a writer wrote, is on the entry
// every clone shares: the next reader gets that pointer and decodes
// nothing.
func TestGetDocSharedWithClonesDecodesOnce(t *testing.T) {
	db := seeded(statedb.CouchDB)
	first, err := GetDoc[numDoc](NewStub(db), "k1")
	if err != nil {
		t.Fatal(err)
	}
	clone := db.Clone(7)
	if again, _ := GetDoc[numDoc](NewStub(clone), "k1"); again != first {
		t.Fatalf("clone read %p, original read %p; want one shared document", again, first)
	}
	s := NewStub(clone)
	if n := testing.AllocsPerRun(100, func() { GetDoc[numDoc](s, "k1") }); n != 0 {
		t.Errorf("GetDoc of an attached document allocates %.0f objects, want 0", n)
	}

	// A written document rides its write into the batch and on to every
	// database the batch is applied to.
	w := NewStub(db)
	written := &numDoc{N: 4}
	if err := PutDoc(w, "k4", written); err != nil {
		t.Fatal(err)
	}
	b := &statedb.UpdateBatch{}
	b.Add(w.RWSet().Writes[0], ledger.Height{BlockNum: 3})
	db.ApplyUpdates(b, 3)
	clone.ApplyUpdates(b, 3)
	for _, replica := range []statedb.VersionedDB{db, clone} {
		if got, _ := GetDoc[numDoc](NewStub(replica), "k4"); got != written {
			t.Errorf("read %p after commit, want the written document %p", got, written)
		}
	}
}

// A document of another type on the entry is a cache miss, not a
// panic: the bytes are decoded and the result replaces it.
func TestGetDocForeignSidecarFallsBackToBytes(t *testing.T) {
	type other struct{ N string }
	db := seeded(statedb.LevelDB)
	db.Get("k3").Doc = &other{N: "stale"}
	d, err := GetDoc[numDoc](NewStub(db), "k3")
	if err != nil || d == nil || d.N != 3 {
		t.Fatalf("GetDoc over a foreign document = %+v, %v", d, err)
	}
	if db.Get("k3").Doc != any(d) {
		t.Error("the decoded document was not attached")
	}
	var typedNil *numDoc
	db.Get("k3").Doc = typedNil
	if d, err := GetDoc[numDoc](NewStub(db), "k3"); err != nil || d == nil || d.N != 3 {
		t.Fatalf("GetDoc over a nil document = %+v, %v", d, err)
	}
}

// The document accessors book exactly what GetState/PutState book for
// the same calls.
func TestDocAccessorsBookLikeGetPutState(t *testing.T) {
	raw, doc := NewStub(seeded(statedb.LevelDB)), NewStub(seeded(statedb.LevelDB))
	for _, k := range []string{"k1", "missing", "k1", "k2"} {
		raw.GetState(k)
		GetDoc[numDoc](doc, k)
	}
	raw.PutState("k1", []byte(`{"N":5}`))
	raw.PutState("k1", []byte(`{"N":6}`))
	PutDoc(doc, "k1", &numDoc{N: 5})
	PutDoc(doc, "k1", &numDoc{N: 6})
	if raw.Trace() != doc.Trace() {
		t.Errorf("trace: GetState/PutState %+v, GetDoc/PutDoc %+v", raw.Trace(), doc.Trace())
	}
	if !raw.RWSet().Equal(doc.RWSet()) {
		t.Errorf("rwset: GetState/PutState %+v, GetDoc/PutDoc %+v", raw.RWSet(), doc.RWSet())
	}
	if n := len(doc.RWSet().Reads); n != 3 {
		t.Errorf("%d reads recorded, want one per key (3)", n)
	}
}

// invocation is a chaincode function body for the stub-reuse tests.
type invocation func(s *Stub) error

// outgrow reads and writes 3*scanLimit keys, the writes in descending
// order: both look-up maps get built and the write set turns unordered.
func outgrow(s *Stub) error {
	for k := 3*scanLimit - 1; k >= 0; k-- {
		s.GetState(fmt.Sprintf("k%d", k))
		s.PutState(fmt.Sprintf("k%d", k), []byte("big"))
	}
	return nil
}

// overlap also outgrows scanLimit, on keys outgrow touched, so a stale
// map would drop reads as repeats or rewrite the wrong position.
func overlap(s *Stub) error {
	for k := 0; k < 2*scanLimit; k++ {
		s.GetState(fmt.Sprintf("k%d", k))
		s.PutState(fmt.Sprintf("k%d", 2*scanLimit-k), []byte("small"))
	}
	s.PutState("k3", []byte("again"))
	_, err := s.GetStateByRange("k1", "k3")
	return err
}

// failing reads and writes, then fails on an empty key.
func failing(s *Stub) error {
	s.GetState("k1")
	s.PutState("k2", []byte("lost"))
	s.GetStateByRange("k1", "k3")
	_, err := s.GetState("")
	return err
}

// A reused stub yields what a fresh one does, whatever the invocation
// before left behind: look-up maps, an unordered write set, or the
// reads, writes and scans of an invocation that failed midway.
func TestResetStubMatchesFresh(t *testing.T) {
	db := seeded(statedb.LevelDB)
	for _, c := range []struct {
		name          string
		before, after invocation
	}{
		{"after outgrowing scanLimit", outgrow, overlap},
		{"after a failed invocation", failing, func(s *Stub) error { _, err := s.GetState("k3"); return err }},
		{"failed, then outgrowing", failing, overlap},
	} {
		reused := NewStub(db)
		c.before(reused)
		reused.Reset(db)
		if reused.readKey != nil || reused.writes != nil || reused.unordered {
			t.Errorf("%s: Reset kept look-up state (reads indexed %v, writes indexed %v, unordered %v)",
				c.name, reused.readKey != nil, reused.writes != nil, reused.unordered)
		}
		fresh := NewStub(db)
		if err := c.after(reused); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if err := c.after(fresh); err != nil {
			t.Fatal(err)
		}
		if got, want := reused.RWSet(), fresh.RWSet(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: reused stub's rwset\n%+v\nfresh stub's\n%+v", c.name, got, want)
		}
		if reused.Trace() != fresh.Trace() {
			t.Errorf("%s: reused stub's trace %+v, fresh stub's %+v", c.name, reused.Trace(), fresh.Trace())
		}
	}
}

// An rwset RWSet handed off is exact-size and shares nothing with the
// stub: later invocations on the same stub leave it as it was.
func TestHandedOffRWSetOutlivesReuse(t *testing.T) {
	db := seeded(statedb.LevelDB)
	s := NewStub(db)
	var kept []*ledger.RWSet
	var want []ledger.RWSet
	for i, inv := range []invocation{overlap, outgrow, failing, overlap} {
		s.Reset(db)
		inv(s)
		rw := s.RWSet()
		if cap(rw.Reads) != len(rw.Reads) || cap(rw.Writes) != len(rw.Writes) || cap(rw.RangeQueries) != len(rw.RangeQueries) {
			t.Errorf("invocation %d: rwset slices are not exact-size (%d/%d reads, %d/%d writes, %d/%d scans)", i,
				len(rw.Reads), cap(rw.Reads), len(rw.Writes), cap(rw.Writes), len(rw.RangeQueries), cap(rw.RangeQueries))
		}
		kept = append(kept, rw)
		want = append(want, ledger.RWSet{
			Reads:        slices.Clone(rw.Reads),
			Writes:       slices.Clone(rw.Writes),
			RangeQueries: slices.Clone(rw.RangeQueries),
		})
	}
	for i, rw := range kept {
		if !reflect.DeepEqual(*rw, want[i]) {
			t.Errorf("invocation %d's rwset changed under later invocations:\n%+v\nwas\n%+v", i, *rw, want[i])
		}
	}
}

// handedOff keeps TestReusedStubAllocs's rwset on the heap, where a
// simulation's goes.
var handedOff *ledger.RWSet

// An invocation on a reused stub allocates its rwset and the exact-size
// copies of its read and write sets, nothing more: the sets it fills are
// the stub's.
func TestReusedStubAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector allocates on its own account")
	}
	db := seeded(statedb.LevelDB)
	s := NewStub(db)
	value := []byte(`{"n":9}`)
	n := testing.AllocsPerRun(100, func() {
		s.Reset(db)
		s.GetState("k1")
		s.GetState("k2")
		s.PutState("k2", value)
		s.PutState("k1", value)
		handedOff = s.RWSet()
	})
	if n != 3 {
		t.Errorf("a two-key invocation on a reused stub allocates %.0f objects, want 3 (the rwset, its reads, its writes)", n)
	}
}
