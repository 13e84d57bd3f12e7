// Package cctest provides helpers for chaincode unit tests: a
// one-shot committer that applies a captured read/write set to a
// state database, and an op-count checker against Table 2 rows.
package cctest

import (
	"fmt"

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

// InitState builds a fresh database seeded by the chaincode's Init.
func InitState(cc chaincode.Chaincode, kind statedb.Kind) (statedb.VersionedDB, error) {
	db := statedb.New(kind, 1)
	stub := chaincode.NewStub(db)
	if err := cc.Init(stub); err != nil {
		return nil, err
	}
	if err := Commit(db, stub, 0); err != nil {
		return nil, err
	}
	return db, nil
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
