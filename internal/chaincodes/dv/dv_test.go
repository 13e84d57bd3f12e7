package dv

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cctest"
	"repro/internal/statedb"
)

func TestInitSeedsElectorate(t *testing.T) {
	db, err := cctest.InitState(New(), statedb.LevelDB)
	if err != nil {
		t.Fatal(err)
	}
	if db.Len() != Voters+Parties+1 {
		t.Fatalf("seeded %d keys, want %d", db.Len(), Voters+Parties+1)
	}
}

// All three document types append the bytes json.Marshal produces;
// voterDoc's party is there only once a vote has set it.
func TestDocumentsEncodeLikeEncodingJSON(t *testing.T) {
	cctest.CheckDocumentJSON(t,
		voterDoc{},
		voterDoc{VoterID: VoterKey(17)},
		voterDoc{VoterID: VoterKey(17), Voted: true, Party: PartyKey(2)},
		voterDoc{Voted: true, Party: `"<none>"`},
	)
	cctest.CheckDocumentJSON(t, partyDoc{}, partyDoc{PartyID: PartyKey(3), Votes: 41}, partyDoc{Votes: math.MinInt64})
	cctest.CheckDocumentJSON(t, electionDoc{}, electionDoc{Open: true})
}

func TestTable2OpCounts(t *testing.T) {
	db, err := cctest.InitState(New(), statedb.LevelDB)
	if err != nil {
		t.Fatal(err)
	}
	argsFor := map[string][]string{
		"vote": {"0042", "03"},
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

func TestVoteScansWholeElectorate(t *testing.T) {
	db, err := cctest.InitState(New(), statedb.LevelDB)
	if err != nil {
		t.Fatal(err)
	}
	stub, err := cctest.Invoke(New(), db, "vote", "0001", "05")
	if err != nil {
		t.Fatal(err)
	}
	rqs := stub.RWSet().RangeQueries
	if len(rqs) != 2 {
		t.Fatalf("range queries = %d, want 2", len(rqs))
	}
	if len(rqs[0].Reads) != Voters {
		t.Fatalf("voter scan saw %d keys, want %d", len(rqs[0].Reads), Voters)
	}
	if len(rqs[1].Reads) != Parties {
		t.Fatalf("party scan saw %d keys, want %d", len(rqs[1].Reads), Parties)
	}
}

func TestVoteCountsAndDoubleVoteBlocked(t *testing.T) {
	cc := New()
	db, err := cctest.InitState(cc, statedb.LevelDB)
	if err != nil {
		t.Fatal(err)
	}
	stub, err := cctest.Invoke(cc, db, "vote", "0007", "02")
	if err != nil {
		t.Fatal(err)
	}
	if err := cctest.Commit(db, stub, 1); err != nil {
		t.Fatal(err)
	}
	var p struct {
		Votes int `json:"votes"`
	}
	if err := json.Unmarshal(db.Get(PartyKey(2)).Value, &p); err != nil {
		t.Fatal(err)
	}
	if p.Votes != 1 {
		t.Fatalf("votes = %d, want 1", p.Votes)
	}
	// Second vote by the same voter: no write set beyond nothing.
	stub, err = cctest.Invoke(cc, db, "vote", "0007", "03")
	if err != nil {
		t.Fatal(err)
	}
	if len(stub.RWSet().Writes) != 0 {
		t.Fatalf("double vote produced writes: %+v", stub.RWSet().Writes)
	}
}

func TestCloseElectionStopsVotes(t *testing.T) {
	cc := New()
	db, err := cctest.InitState(cc, statedb.LevelDB)
	if err != nil {
		t.Fatal(err)
	}
	stub, err := cctest.Invoke(cc, db, "closeElctn")
	if err != nil {
		t.Fatal(err)
	}
	if err := cctest.Commit(db, stub, 1); err != nil {
		t.Fatal(err)
	}
	stub, err = cctest.Invoke(cc, db, "vote", "0001", "01")
	if err != nil {
		t.Fatal(err)
	}
	if len(stub.RWSet().Writes) != 0 {
		t.Fatal("vote after close produced writes")
	}
}

func TestUnknownFunction(t *testing.T) {
	db, err := cctest.InitState(New(), statedb.LevelDB)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cctest.Invoke(New(), db, "bogus"); err == nil {
		t.Error("unknown function accepted")
	}
	if _, err := cctest.Invoke(New(), db, "vote", "0001"); err == nil {
		t.Error("vote without party accepted")
	}
}

func TestWorkloadProducesValidInvocations(t *testing.T) {
	cc := New()
	db, err := cctest.InitState(cc, statedb.LevelDB)
	if err != nil {
		t.Fatal(err)
	}
	gen := NewWorkload(1)
	rng := rand.New(rand.NewSource(4))
	votes := 0
	for i := 0; i < 100; i++ {
		inv := gen.Next(rng)
		if inv.Function == "vote" {
			votes++
		}
		if _, err := cctest.Invoke(cc, db, inv.Function, inv.Args...); err != nil {
			t.Fatalf("%s(%v): %v", inv.Function, inv.Args, err)
		}
	}
	if votes < 30 {
		t.Errorf("only %d/100 votes; workload should be vote-dominated", votes)
	}
}
