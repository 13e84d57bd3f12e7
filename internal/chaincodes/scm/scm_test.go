package scm

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cctest"
	"repro/internal/statedb"
)

// All three document types append the bytes json.Marshal produces.
func TestDocumentsEncodeLikeEncodingJSON(t *testing.T) {
	cctest.CheckDocumentJSON(t,
		unitDoc{},
		unitDoc{SSCC: "000042", GTIN: "gtin-7", LSP: LSPName(4), Items: 10},
		unitDoc{SSCC: "a&b", Items: -3},
		unitDoc{Items: math.MinInt64},
	)
	cctest.CheckDocumentJSON(t, lspDoc{}, lspDoc{LSPID: LSPName(0), Moves: 7}, lspDoc{Moves: math.MinInt64})
	cctest.CheckDocumentJSON(t, asnDoc{}, asnDoc{ASNID: "asn_0001", From: LSPName(1), To: LSPName(2)}, asnDoc{To: `a\b`})
}

func TestInitSeedsUnits(t *testing.T) {
	db, err := cctest.InitState(New(), statedb.LevelDB)
	if err != nil {
		t.Fatal(err)
	}
	if db.Len() != TotalUnits+LSPs {
		t.Fatalf("seeded %d keys, want %d", db.Len(), TotalUnits+LSPs)
	}
	// Fifth LSP has double stock.
	start, end := unitRange(LSPName(4))
	if got := len(db.GetRange(start, end)); got != DoubleLSPUnits {
		t.Fatalf("LSP4 stock = %d, want %d", got, DoubleLSPUnits)
	}
}

func TestTable2OpCounts(t *testing.T) {
	db, err := cctest.InitState(New(), statedb.LevelDB)
	if err != nil {
		t.Fatal(err)
	}
	argsFor := map[string][]string{
		"pushASN":    {"000001", "LSP0", "LSP1"},
		"Ship":       {UnitKey("LSP0", 3), "LSP0", "LSP1"},
		"Unload":     {UnitKey("LSP1", 5), "LSP1"},
		"queryASN":   {"LSP2"},
		"queryStock": {"LSP2"},
	}
	for _, info := range Functions() {
		stub, err := cctest.Invoke(New(), db, info.Name, argsFor[info.Name]...)
		if err != nil {
			t.Fatalf("%s: %v", info.Name, err)
		}
		if err := cctest.CheckOps(info, stub); err != nil {
			t.Error(err)
		}
	}
}

func TestShipMovesUnitBetweenPrefixes(t *testing.T) {
	cc := New()
	db, err := cctest.InitState(cc, statedb.LevelDB)
	if err != nil {
		t.Fatal(err)
	}
	key := UnitKey("LSP0", 7)
	stub, err := cctest.Invoke(cc, db, "Ship", key, "LSP0", "LSP3")
	if err != nil {
		t.Fatal(err)
	}
	if err := cctest.Commit(db, stub, 1); err != nil {
		t.Fatal(err)
	}
	if db.Get(key) != nil {
		t.Fatal("unit still at source after Ship")
	}
	start, end := unitRange("LSP3")
	if got := len(db.GetRange(start, end)); got != UnitsPerLSP+1 {
		t.Fatalf("LSP3 stock = %d, want %d", got, UnitsPerLSP+1)
	}
}

func TestShipMissingUnitStillWrites(t *testing.T) {
	cc := New()
	db, err := cctest.InitState(cc, statedb.LevelDB)
	if err != nil {
		t.Fatal(err)
	}
	stub, err := cctest.Invoke(cc, db, "Ship", "lu_LSP0_9999", "LSP0", "LSP1")
	if err != nil {
		t.Fatal(err)
	}
	if len(stub.RWSet().Writes) == 0 {
		t.Fatal("Ship of missing unit produced no writes")
	}
}

func TestQueryASNScansOneProvider(t *testing.T) {
	db, err := cctest.InitState(New(), statedb.LevelDB)
	if err != nil {
		t.Fatal(err)
	}
	stub, err := cctest.Invoke(New(), db, "queryASN", "LSP4")
	if err != nil {
		t.Fatal(err)
	}
	rqs := stub.RWSet().RangeQueries
	if len(rqs) != 1 || len(rqs[0].Reads) != DoubleLSPUnits {
		t.Fatalf("queryASN observed %d keys, want %d", len(rqs[0].Reads), DoubleLSPUnits)
	}
	if rqs[0].Unchecked {
		t.Fatal("queryASN range must be phantom-checked")
	}
}

func TestQueryStockUncheckedOnCouch(t *testing.T) {
	db, err := cctest.InitState(New(), statedb.CouchDB)
	if err != nil {
		t.Fatal(err)
	}
	stub, err := cctest.Invoke(New(), db, "queryStock", "LSP1")
	if err != nil {
		t.Fatal(err)
	}
	rqs := stub.RWSet().RangeQueries
	if len(rqs) != 1 || !rqs[0].Unchecked {
		t.Fatal("queryStock on CouchDB should be an unchecked rich query")
	}
	if len(rqs[0].Reads) != UnitsPerLSP {
		t.Fatalf("queryStock matched %d units, want %d", len(rqs[0].Reads), UnitsPerLSP)
	}
	// On LevelDB it falls back to a checked range.
	ldb, err := cctest.InitState(New(), statedb.LevelDB)
	if err != nil {
		t.Fatal(err)
	}
	stub, err = cctest.Invoke(New(), ldb, "queryStock", "LSP1")
	if err != nil {
		t.Fatal(err)
	}
	if stub.RWSet().RangeQueries[0].Unchecked {
		t.Fatal("queryStock on LevelDB should be checked")
	}
}

func TestArgumentValidation(t *testing.T) {
	db, err := cctest.InitState(New(), statedb.LevelDB)
	if err != nil {
		t.Fatal(err)
	}
	for fn, args := range map[string][]string{
		"pushASN":    {"1", "LSP0"},
		"Ship":       {"k", "LSP0"},
		"Unload":     {"k"},
		"queryASN":   {},
		"queryStock": {},
		"wat":        {},
	} {
		if _, err := cctest.Invoke(New(), db, fn, args...); err == nil {
			t.Errorf("%s(%v) accepted", fn, args)
		}
	}
}

func TestWorkloadProducesValidInvocations(t *testing.T) {
	cc := New()
	db, err := cctest.InitState(cc, statedb.CouchDB)
	if err != nil {
		t.Fatal(err)
	}
	gen := NewWorkload(1)
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 200; i++ {
		inv := gen.Next(rng)
		if _, err := cctest.Invoke(cc, db, inv.Function, inv.Args...); err != nil {
			t.Fatalf("%s(%v): %v", inv.Function, inv.Args, err)
		}
	}
}
