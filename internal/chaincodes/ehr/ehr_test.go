package ehr

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cctest"
	"repro/internal/statedb"
)

func TestInitSeedsAllEntities(t *testing.T) {
	db, err := cctest.InitState(New(), statedb.LevelDB)
	if err != nil {
		t.Fatal(err)
	}
	if db.Len() != 2*Patients {
		t.Fatalf("seeded %d keys, want %d", db.Len(), 2*Patients)
	}
	if db.Get(ProfileKey(0)) == nil || db.Get(RecordKey(Patients-1)) == nil {
		t.Fatal("expected profile/ehr keys missing")
	}
}

// TestKeysMatchSprintf pins every key byte to the formatted form, inside
// the precomputed table (all of it), at its edge and outside it, and
// that a table hit allocates nothing.
func TestKeysMatchSprintf(t *testing.T) {
	patients := []int{-1, Patients, 1000}
	for p := 0; p < Patients; p++ {
		patients = append(patients, p)
	}
	for _, p := range patients {
		if got, want := ProfileKey(p), fmt.Sprintf("profile_%03d", p); got != want {
			t.Errorf("ProfileKey(%d) = %q, want %q", p, got, want)
		}
		if got, want := RecordKey(p), fmt.Sprintf("ehr_%03d", p); got != want {
			t.Errorf("RecordKey(%d) = %q, want %q", p, got, want)
		}
	}
	for i := 0; i < Actors; i++ {
		if got, want := actorName(i), fmt.Sprintf("actor%02d", i); got != want {
			t.Errorf("actorName(%d) = %q, want %q", i, got, want)
		}
	}
	var profile, record string
	if n := testing.AllocsPerRun(100, func() { profile, record = ProfileKey(42), RecordKey(99) }); n != 0 {
		t.Errorf("table keys %q and %q cost %v allocations", profile, record, n)
	}
}

// Both document types append the bytes json.Marshal produces.
func TestDocumentsEncodeLikeEncodingJSON(t *testing.T) {
	fifty := map[string]bool{}
	for i := 0; i < Actors; i++ {
		fifty[actorName((i*37)%Actors)] = i%3 != 0
	}
	cctest.CheckDocumentJSON(t,
		profile{},
		profile{PatientID: "17", Access: map[string]bool{}},
		profile{PatientID: "99", Access: map[string]bool{"actor07": true, "actor03": false}, Updates: 12},
		profile{PatientID: "<&>", Access: fifty, Updates: -1},
		profile{Updates: math.MinInt64},
	)
	cctest.CheckDocumentJSON(t,
		record{},
		record{PatientID: "17", Access: map[string]bool{}},
		record{PatientID: "0", Access: fifty, Entries: 3},
		record{Entries: math.MinInt64},
	)
}

// TestTable2OpCounts verifies every function's read/write/range counts
// against the paper's Table 2.
func TestTable2OpCounts(t *testing.T) {
	db, err := cctest.InitState(New(), statedb.LevelDB)
	if err != nil {
		t.Fatal(err)
	}
	argsFor := func(fn string) []string {
		switch fn {
		case "grantProfileAccess", "revokeProfileAccess", "grantEhrAccess", "revokeEhrAccess":
			return []string{"7", "actor01"}
		case "addEhr", "readProfile", "viewPartialProfile", "viewEHR", "queryEHR", "initLedger":
			return []string{"7"}
		}
		return nil
	}
	for _, info := range Functions() {
		stub, err := cctest.Invoke(New(), db, info.Name, argsFor(info.Name)...)
		if err != nil {
			t.Fatalf("%s: %v", info.Name, err)
		}
		if err := cctest.CheckOps(info, stub); err != nil {
			t.Error(err)
		}
	}
}

func TestGrantThenRevokeRoundTrip(t *testing.T) {
	cc := New()
	db, err := cctest.InitState(cc, statedb.LevelDB)
	if err != nil {
		t.Fatal(err)
	}
	stub, err := cctest.Invoke(cc, db, "grantProfileAccess", "3", "actor09")
	if err != nil {
		t.Fatal(err)
	}
	if err := cctest.Commit(db, stub, 1); err != nil {
		t.Fatal(err)
	}
	var p struct {
		Access map[string]bool `json:"access"`
	}
	if err := json.Unmarshal(db.Get(ProfileKey(3)).Value, &p); err != nil {
		t.Fatal(err)
	}
	if !p.Access["actor09"] {
		t.Fatal("grant not persisted")
	}
	stub, err = cctest.Invoke(cc, db, "revokeProfileAccess", "3", "actor09")
	if err != nil {
		t.Fatal(err)
	}
	if err := cctest.Commit(db, stub, 2); err != nil {
		t.Fatal(err)
	}
	p.Access = nil // json.Unmarshal merges into an existing map
	if err := json.Unmarshal(db.Get(ProfileKey(3)).Value, &p); err != nil {
		t.Fatal(err)
	}
	if p.Access["actor09"] {
		t.Fatal("revoke not persisted")
	}
}

func TestAddEhrIncrementsCounters(t *testing.T) {
	cc := New()
	db, err := cctest.InitState(cc, statedb.LevelDB)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		stub, err := cctest.Invoke(cc, db, "addEhr", "5")
		if err != nil {
			t.Fatal(err)
		}
		if err := cctest.Commit(db, stub, uint64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	var r struct {
		Entries int `json:"entries"`
	}
	if err := json.Unmarshal(db.Get(RecordKey(5)).Value, &r); err != nil {
		t.Fatal(err)
	}
	if r.Entries != 3 {
		t.Fatalf("entries = %d, want 3", r.Entries)
	}
}

func TestUnknownFunctionAndBadArgs(t *testing.T) {
	cc := New()
	db, err := cctest.InitState(cc, statedb.LevelDB)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cctest.Invoke(cc, db, "nope"); err == nil {
		t.Error("unknown function accepted")
	}
	if _, err := cctest.Invoke(cc, db, "readProfile"); err == nil {
		t.Error("missing patient accepted")
	}
	if _, err := cctest.Invoke(cc, db, "readProfile", "xyz"); err == nil {
		t.Error("non-numeric patient accepted")
	}
	if _, err := cctest.Invoke(cc, db, "grantProfileAccess", "1"); err == nil {
		t.Error("missing actor accepted")
	}
}

func TestWorkloadProducesValidInvocations(t *testing.T) {
	cc := New()
	db, err := cctest.InitState(cc, statedb.LevelDB)
	if err != nil {
		t.Fatal(err)
	}
	gen := NewWorkload(1)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 500; i++ {
		inv := gen.Next(rng)
		if inv.Chaincode != Name {
			t.Fatalf("invocation for %q", inv.Chaincode)
		}
		if _, err := cctest.Invoke(cc, db, inv.Function, inv.Args...); err != nil {
			t.Fatalf("%s(%v): %v", inv.Function, inv.Args, err)
		}
	}
}

func TestWorkloadSkewFavoursHighPatients(t *testing.T) {
	gen := NewWorkload(2)
	rng := rand.New(rand.NewSource(10))
	high, low := 0, 0
	for i := 0; i < 2000; i++ {
		inv := gen.Next(rng)
		var p int
		if _, err := sscan(inv.Args[0], &p); err != nil {
			t.Fatal(err)
		}
		if p >= Patients/2 {
			high++
		} else {
			low++
		}
	}
	if high <= low {
		t.Errorf("skew 2: high=%d low=%d, want high > low", high, low)
	}
}

func sscan(s string, p *int) (int, error) {
	n := 0
	for _, r := range s {
		n = n*10 + int(r-'0')
	}
	*p = n
	return 1, nil
}

// A patient argument is a whole non-negative decimal integer: trailing
// garbage, blanks and signs are errors, not patient 7.
func TestPatientArgParsing(t *testing.T) {
	for _, tc := range []struct {
		arg  string
		want int
		ok   bool
	}{
		{"7", 7, true},
		{"107", 7, true}, // wraps onto the seeded patients
		{"7abc", 0, false},
		{"", 0, false},
		{"-1", 0, false},
		{" 7", 0, false},
	} {
		got, err := patientArg([]string{tc.arg})
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("patientArg(%q) = %d, %v; want %d, ok=%v", tc.arg, got, err, tc.want, tc.ok)
		}
	}
}

// TestCopyOnWrite: a document reachable from the state is shared by
// every replica and by every earlier state that still indexes its
// entry, so an invocation must change a copy. Every function runs twice
// against one evolving state; each earlier state is kept (a clone of
// the database shares the entries) and must still read exactly as it
// did when it was current — documents and bytes.
func TestCopyOnWrite(t *testing.T) {
	cc := New()
	db, err := cctest.InitState(cc, statedb.CouchDB)
	if err != nil {
		t.Fatal(err)
	}
	type frozen struct {
		after string
		db    statedb.VersionedDB
		docs  map[string]string // key -> its document, encoded when the state was current
	}
	var history []frozen
	block := uint64(0)
	step := func(fn string, args ...string) {
		t.Helper()
		stub, err := cctest.Invoke(cc, db, fn, args...)
		if err != nil {
			t.Fatalf("%s%v: %v", fn, args, err)
		}
		block++
		if err := cctest.Commit(db, stub, block); err != nil {
			t.Fatal(err)
		}
		f := frozen{after: fmt.Sprint(fn, args), db: db.Clone(int64(block)), docs: map[string]string{}}
		for _, kv := range db.GetRange("", "") {
			doc := db.Get(kv.Key).Doc
			if doc == nil {
				t.Fatalf("after %s: %s carries no document", f.after, kv.Key)
			}
			raw, err := json.Marshal(doc)
			if err != nil {
				t.Fatal(err)
			}
			f.docs[kv.Key] = string(raw)
		}
		history = append(history, f)
	}
	// Grants first, so that the revocations below remove something.
	for _, actor := range []string{"actor01", "actor02", "actor03"} {
		step("grantEhrAccess", "7", actor)
	}
	for _, info := range Functions() {
		for _, actor := range []string{"actor01", "actor02"} {
			step(info.Name, "7", actor)
		}
	}
	for _, f := range history {
		for _, kv := range f.db.GetRange("", "") {
			vv := f.db.Get(kv.Key)
			raw, err := json.Marshal(vv.Doc)
			if err != nil {
				t.Fatal(err)
			}
			if string(raw) != f.docs[kv.Key] || string(raw) != string(vv.Value) {
				t.Errorf("state after %s, key %s: document now encodes to %s; it was %s and the bytes are %s",
					f.after, kv.Key, raw, f.docs[kv.Key], vv.Value)
			}
		}
	}
}
