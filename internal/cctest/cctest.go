// Package cctest provides helpers for chaincode unit tests: a
// one-shot committer that applies a captured read/write set to a
// state database, an op-count checker against Table 2 rows, and the
// differential check of a document type's AppendJSON against
// encoding/json.
package cctest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/chaincode"
	"repro/internal/ledger"
	"repro/internal/statedb"
	"repro/internal/workload"
)

// Commit applies the stub's write set to db at the given block height,
// as the validation phase would for a valid transaction.
func Commit(db statedb.VersionedDB, stub *chaincode.Stub, block uint64) error {
	batch := &statedb.UpdateBatch{}
	for i, w := range stub.RWSet().Writes {
		batch.Add(w, ledger.Height{BlockNum: block, TxNum: uint64(i)})
	}
	return db.ApplyUpdates(batch, block)
}

// InitState builds a fresh database seeded by the chaincode's Init,
// the way a network loads its genesis state.
func InitState(cc chaincode.Chaincode, kind statedb.Kind) (statedb.VersionedDB, error) {
	stub := chaincode.NewStub(statedb.New(kind))
	if err := cc.Init(stub); err != nil {
		return nil, err
	}
	return statedb.Load(kind, stub.Writes()), nil
}

// Invoke runs one function on a fresh stub and returns the stub.
func Invoke(cc chaincode.Chaincode, db statedb.VersionedDB, fn string, args ...string) (*chaincode.Stub, error) {
	stub := chaincode.NewStub(db)
	if err := cc.Invoke(stub, fn, args); err != nil {
		return nil, err
	}
	return stub, nil
}

// CheckOps verifies that a stub's operation trace matches a Table 2
// row: the declared number of reads, writes and range reads.
func CheckOps(info workload.FunctionInfo, stub *chaincode.Stub) error {
	tr := stub.Trace()
	if tr.Gets != info.Reads {
		return fmt.Errorf("%s: %d reads, table says %d", info.Name, tr.Gets, info.Reads)
	}
	if tr.Puts+tr.Deletes != info.Writes {
		return fmt.Errorf("%s: %d writes, table says %d", info.Name, tr.Puts+tr.Deletes, info.Writes)
	}
	if tr.Ranges+tr.Queries != info.RangeReads {
		return fmt.Errorf("%s: %d range reads, table says %d", info.Name, tr.Ranges+tr.Queries, info.RangeReads)
	}
	return nil
}

// CheckDocumentJSON proves a document type's AppendJSON against
// encoding/json, which it treats as a black box: for every document of
// table, and for a thousand that testing/quick generates, the appended
// bytes are json.Marshal's and decode back to the document. quick fills
// every field by reflection, so a field added to the struct without its
// line in AppendJSON fails here.
func CheckDocumentJSON[T chaincode.Document](t *testing.T, table ...T) {
	t.Helper()
	same := func(doc T) bool {
		want, err := json.Marshal(doc)
		if err != nil {
			t.Errorf("json.Marshal(%+v): %v", doc, err)
			return false
		}
		got := doc.AppendJSON(nil)
		if !bytes.Equal(got, want) {
			t.Errorf("AppendJSON of %+v\n gives %s\n  want %s", doc, got, want)
			return false
		}
		var back T
		if err := json.Unmarshal(got, &back); err != nil || !reflect.DeepEqual(back, doc) {
			t.Errorf("%s decodes to %+v, %v; want %+v", got, back, err, doc)
			return false
		}
		return true
	}
	for _, doc := range table {
		same(doc)
	}
	if err := quick.Check(same, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}
