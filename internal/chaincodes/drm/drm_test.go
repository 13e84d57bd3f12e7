package drm

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cctest"
	"repro/internal/statedb"
)

func TestInitSeedsCatalog(t *testing.T) {
	db, err := cctest.InitState(New(), statedb.LevelDB)
	if err != nil {
		t.Fatal(err)
	}
	if db.Len() != Artworks+Holders {
		t.Fatalf("seeded %d keys, want %d", db.Len(), Artworks+Holders)
	}
}

// Both document types append the bytes json.Marshal produces.
func TestDocumentsEncodeLikeEncodingJSON(t *testing.T) {
	cctest.CheckDocumentJSON(t,
		artworkDoc{},
		artworkDoc{ArtID: ArtKey(11), Format: "dotbc", Owner: HolderKey(13), Plays: 3, Rate: 2},
		artworkDoc{Format: "<dotbc>", Plays: -1, Rate: math.MinInt64},
	)
	cctest.CheckDocumentJSON(t,
		holderDoc{},
		holderDoc{IPI: HolderKey(13), Works: 4, Revenue: 12},
		holderDoc{Works: math.MinInt64, Revenue: -7},
	)
}

func TestTable2OpCounts(t *testing.T) {
	db, err := cctest.InitState(New(), statedb.CouchDB)
	if err != nil {
		t.Fatal(err)
	}
	argsFor := map[string][]string{
		"create":       {"5", "5"},
		"play":         {"9", "9"},
		"queryRghts":   {"3", "3"},
		"viewMetaData": {"2"},
		"calcRevenue":  {IPI(4)},
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

func TestPlayIncrementsCount(t *testing.T) {
	cc := New()
	db, err := cctest.InitState(cc, statedb.LevelDB)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		stub, err := cctest.Invoke(cc, db, "play", "11", "11")
		if err != nil {
			t.Fatal(err)
		}
		if err := cctest.Commit(db, stub, uint64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	var a struct {
		Plays int `json:"plays"`
	}
	if err := json.Unmarshal(db.Get(ArtKey(11)).Value, &a); err != nil {
		t.Fatal(err)
	}
	if a.Plays != 4 {
		t.Fatalf("plays = %d, want 4", a.Plays)
	}
}

func TestCalcRevenueRichQueryMatchesOwner(t *testing.T) {
	db, err := cctest.InitState(New(), statedb.CouchDB)
	if err != nil {
		t.Fatal(err)
	}
	stub, err := cctest.Invoke(New(), db, "calcRevenue", IPI(7))
	if err != nil {
		t.Fatal(err)
	}
	rqs := stub.RWSet().RangeQueries
	if len(rqs) != 1 || !rqs[0].Unchecked {
		t.Fatal("calcRevenue on CouchDB should be an unchecked rich query")
	}
	// Holder 7 owns artworks 7 (200 artworks, 200 holders, owner = a % Holders).
	if len(rqs[0].Reads) != 1 {
		t.Fatalf("rich query matched %d artworks, want 1", len(rqs[0].Reads))
	}
}

func TestCalcRevenueFallbackOnLevelDB(t *testing.T) {
	db, err := cctest.InitState(New(), statedb.LevelDB)
	if err != nil {
		t.Fatal(err)
	}
	stub, err := cctest.Invoke(New(), db, "calcRevenue", IPI(7))
	if err != nil {
		t.Fatal(err)
	}
	rqs := stub.RWSet().RangeQueries
	if len(rqs) != 1 || rqs[0].Unchecked {
		t.Fatal("calcRevenue on LevelDB should be a checked range scan")
	}
	if len(rqs[0].Reads) != Artworks {
		t.Fatalf("fallback scanned %d artworks, want %d", len(rqs[0].Reads), Artworks)
	}
}

func TestCreateUpdatesHolder(t *testing.T) {
	cc := New()
	db, err := cctest.InitState(cc, statedb.LevelDB)
	if err != nil {
		t.Fatal(err)
	}
	stub, err := cctest.Invoke(cc, db, "create", "42", "13")
	if err != nil {
		t.Fatal(err)
	}
	if err := cctest.Commit(db, stub, 1); err != nil {
		t.Fatal(err)
	}
	var h struct {
		Works int `json:"works"`
	}
	if err := json.Unmarshal(db.Get(HolderKey(13)).Value, &h); err != nil {
		t.Fatal(err)
	}
	if h.Works != 1 {
		t.Fatalf("works = %d, want 1", h.Works)
	}
}

func TestArgumentValidation(t *testing.T) {
	db, err := cctest.InitState(New(), statedb.LevelDB)
	if err != nil {
		t.Fatal(err)
	}
	for fn, args := range map[string][]string{
		"create":       {"1"},
		"play":         {},
		"queryRghts":   {"bad", "1"},
		"viewMetaData": {},
		"calcRevenue":  {},
		"nope":         {},
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
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 300; i++ {
		inv := gen.Next(rng)
		if _, err := cctest.Invoke(cc, db, inv.Function, inv.Args...); err != nil {
			t.Fatalf("%s(%v): %v", inv.Function, inv.Args, err)
		}
	}
}

// Artwork and holder arguments are whole non-negative decimal integers:
// trailing garbage, blanks and signs are errors.
func TestArtAndHolderArgParsing(t *testing.T) {
	for _, tc := range []struct {
		arg  string
		want int
		ok   bool
	}{
		{"7", 7, true},
		{"207", 7, true}, // wraps onto the 200 seeded artworks / holders
		{"7abc", 0, false},
		{"", 0, false},
		{"-1", 0, false},
		{" 7", 0, false},
	} {
		art, err := artArg([]string{tc.arg})
		if (err == nil) != tc.ok || art != tc.want {
			t.Errorf("artArg(%q) = %d, %v; want %d, ok=%v", tc.arg, art, err, tc.want, tc.ok)
		}
		_, holder, err := artHolderArgs([]string{"1", tc.arg})
		if (err == nil) != tc.ok || holder != tc.want {
			t.Errorf("artHolderArgs(1, %q) holder = %d, %v; want %d, ok=%v", tc.arg, holder, err, tc.want, tc.ok)
		}
	}
}
