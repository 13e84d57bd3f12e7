package ehr

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/cctest"
	"repro/internal/chaincode"
	"repro/internal/ledger"
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
	fifty := actors(actorNames[:])
	cctest.CheckDocumentJSON(t,
		profile{},
		profile{PatientID: "17", Access: actors{}},
		profile{PatientID: "99", Access: actors{"actor03", "actor07"}, Updates: 12},
		profile{PatientID: "<&>", Access: fifty, Updates: -1},
		profile{Access: actors{"", "<&>", "é", "\u2028"}, Updates: math.MinInt64},
	)
	cctest.CheckDocumentJSON(t,
		record{},
		record{PatientID: "17", Access: actors{}},
		record{PatientID: "0", Access: fifty, Entries: 3},
		record{Entries: math.MinInt64},
	)
}

// MarshalJSON encodes a as the map[string]bool it stands for, through
// encoding/json and not through chaincode.AppendSet, so that json.Marshal
// of a document stays an oracle independent of its AppendJSON.
func (a actors) MarshalJSON() ([]byte, error) {
	var m map[string]bool
	if a != nil {
		m = make(map[string]bool, len(a))
		for _, actor := range a {
			m[actor] = true
		}
	}
	return json.Marshal(m)
}

// Generate implements quick.Generator: nil, empty, or up to size
// strings, sorted and distinct, as every stored access list is. The
// strings are valid UTF-8, which encoding/json decodes back unchanged.
func (actors) Generate(rng *rand.Rand, size int) reflect.Value {
	var a actors
	switch n := rng.Intn(size + 2); n {
	case 0:
	case 1:
		a = actors{}
	default:
		a = make(actors, n-2)
		for i := range a {
			if rng.Intn(2) == 0 {
				a[i] = actorName(rng.Intn(Actors))
			} else {
				a[i] = quickString(rng)
			}
		}
		slices.Sort(a)
		a = slices.Compact(a)
	}
	return reflect.ValueOf(a)
}

func quickString(rng *rand.Rand) string {
	v, _ := quick.Value(reflect.TypeOf(""), rng)
	return v.String()
}

// A member mapped to false is refused, by name, not dropped.
func TestActorsRefuseFalseMembers(t *testing.T) {
	var p profile
	err := json.Unmarshal([]byte(`{"patientId":"3","access":{"actor01":true,"actor02":false},"updates":0}`), &p)
	if err == nil || !strings.Contains(err.Error(), `"actor02"`) {
		t.Fatalf("decoding a false member: err = %v, want one naming actor02", err)
	}
}

// GetDoc decodes a value that carries no document (one written as raw
// bytes), and the document it returns encodes back to those bytes.
func TestGetDocDecodesStoredBytes(t *testing.T) {
	fifty := make([]string, Actors)
	for i := range fifty {
		fifty[i] = fmt.Sprintf("%q:true", actorName(i))
	}
	for _, access := range []string{"null", "{}", "{" + strings.Join(fifty, ",") + "}"} {
		raw := `{"patientId":"3","access":` + access + `,"updates":4}`
		db := statedb.New(statedb.CouchDB)
		batch := &statedb.UpdateBatch{}
		batch.Add(ledger.KVWrite{Key: ProfileKey(3), Value: []byte(raw)}, ledger.Height{BlockNum: 1})
		if err := db.ApplyUpdates(batch, 1); err != nil {
			t.Fatal(err)
		}
		p, err := chaincode.GetDoc[profile](chaincode.NewStub(db), ProfileKey(3))
		if err != nil {
			t.Fatalf("access %.20s: %v", access, err)
		}
		if got := p.AppendJSON(nil); string(got) != raw {
			t.Errorf("stored %s\n decodes and encodes to %s", raw, got)
		}
	}
}

// withAccessMap and appendBoolMap are the access list as it was before
// it became a sorted set, a map[string]bool encoded by sorting its keys:
// the oracle of TestActorsMatchTheMapForm.
func withAccessMap(access map[string]bool, actor string, grant bool) map[string]bool {
	if access != nil && access[actor] == grant {
		return access
	}
	out := make(map[string]bool, len(access)+1)
	for a, ok := range access {
		out[a] = ok
	}
	if grant {
		out[actor] = true
	} else {
		delete(out, actor)
	}
	return out
}

func appendBoolMap(b []byte, m map[string]bool) []byte {
	if m == nil {
		return append(b, "null"...)
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	b = append(b, '{')
	for i, k := range keys {
		if i > 0 {
			b = append(b, ',')
		}
		b = chaincode.AppendString(b, k)
		b = append(b, ':')
		b = chaincode.AppendBool(b, m[k])
	}
	return append(b, '}')
}

// TestActorsMatchTheMapForm drives the set and the old map through the
// same random grants and revokes, from nil and from empty, over actors
// that need escaping and actors that are absent when revoked. After
// every step the profile must encode to the old form's bytes, and no
// set returned by an earlier step may have changed: each one may be a
// stored document's, shared by every replica.
func TestActorsMatchTheMapForm(t *testing.T) {
	names := []string{"actor00", "actor07", "actor13", "actor42", "", "<&>", "é", "\u2028", "\xff", "\xfe", "a\xc0b"}
	rng := rand.New(rand.NewSource(36))
	type kept struct{ set, was actors }
	for seq := 0; seq < 10000; seq++ {
		var set actors
		var m map[string]bool
		if seq%2 == 1 {
			set, m = actors{}, map[string]bool{}
		}
		var history []kept
		for step, steps := 0, 1+rng.Intn(24); step < steps; step++ {
			actor, grant := names[rng.Intn(len(names))], rng.Intn(2) == 0
			set, m = set.with(actor, grant), withAccessMap(m, actor, grant)
			got := profile{PatientID: "7", Access: set, Updates: step}.AppendJSON(nil)
			want := chaincode.AppendString([]byte(`{"patientId":`), "7")
			want = appendBoolMap(append(want, `,"access":`...), m)
			want = chaincode.AppendInt(append(want, `,"updates":`...), step)
			want = append(want, '}')
			if !bytes.Equal(got, want) {
				t.Fatalf("sequence %d, step %d (%q, grant %v): set %q encodes to %s, the map to %s",
					seq, step, actor, grant, set, got, want)
			}
			history = append(history, kept{set, slices.Clone(set)})
			for i, h := range history {
				if !slices.Equal(h.set, h.was) {
					t.Fatalf("sequence %d, step %d (%q, grant %v): the set of step %d changed from %q to %q",
						seq, step, actor, grant, i, h.was, h.set)
				}
			}
		}
	}
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
