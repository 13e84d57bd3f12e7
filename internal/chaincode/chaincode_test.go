package chaincode

import (
	"testing"

	"repro/internal/ledger"
	"repro/internal/statedb"
)

func seeded(kind statedb.Kind) statedb.VersionedDB {
	db := statedb.New(kind, 1)
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

func TestDuplicateReadRecordedOnce(t *testing.T) {
	s := NewStub(seeded(statedb.LevelDB))
	s.GetState("k1")
	s.GetState("k1")
	if len(s.RWSet().Reads) != 1 {
		t.Fatalf("duplicate read recorded twice: %+v", s.RWSet().Reads)
	}
	if s.Trace().Gets != 2 {
		t.Fatalf("trace gets = %d, want 2", s.Trace().Gets)
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

func TestLastWriteWins(t *testing.T) {
	s := NewStub(seeded(statedb.LevelDB))
	s.PutState("k9", []byte("a"))
	s.PutState("k9", []byte("b"))
	s.DelState("k9")
	rw := s.RWSet()
	if len(rw.Writes) != 1 || !rw.Writes[0].IsDelete {
		t.Fatalf("writes = %+v", rw.Writes)
	}
	if s.Trace().Puts != 2 || s.Trace().Deletes != 1 {
		t.Fatalf("trace = %+v", s.Trace())
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

func TestGetPutJSON(t *testing.T) {
	type doc struct{ N int }
	s := NewStub(seeded(statedb.LevelDB))
	d := doc{N: 7}
	if found, err := GetJSON(s, "absent", &d); found || err != nil || d.N != 7 {
		t.Fatalf("absent key: found=%v err=%v out=%+v, want out untouched", found, err, d)
	}
	if found, err := GetJSON(s, "k2", &d); !found || err != nil || d.N != 2 {
		t.Fatalf("present key: found=%v err=%v out=%+v", found, err, d)
	}
	if err := PutJSON(s, "k9", &doc{N: 9}); err != nil {
		t.Fatal(err)
	}
	rw := s.RWSet()
	if len(rw.Reads) != 2 || len(rw.Writes) != 1 || string(rw.Writes[0].Value) != `{"N":9}` {
		t.Fatalf("rwset = %+v", rw)
	}
	if _, err := GetJSON(s, "", &d); err == nil {
		t.Fatal("empty key accepted")
	}
	if err := PutJSON(s, "k", make(chan int)); err == nil {
		t.Fatal("unencodable value accepted")
	}
}
