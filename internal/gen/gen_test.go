package gen

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cctest"
	"repro/internal/statedb"
)

func smallSpec() ChaincodeSpec {
	s := GenChainSpec()
	s.Keys = 500 // keep unit tests fast
	return s
}

func TestSpecValidation(t *testing.T) {
	good := GenChainSpec()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []ChaincodeSpec{
		{Name: "", Keys: 10, Functions: []FunctionSpec{{Name: "f", Reads: 1}}},
		{Name: "x", Keys: 0, Functions: []FunctionSpec{{Name: "f", Reads: 1}}},
		{Name: "x", Keys: 10},
		{Name: "x", Keys: 10, Functions: []FunctionSpec{{Name: "", Reads: 1}}},
		{Name: "x", Keys: 10, Functions: []FunctionSpec{{Name: "f", Reads: 1}, {Name: "f", Reads: 1}}},
		{Name: "x", Keys: 10, Functions: []FunctionSpec{{Name: "f"}}},
		// Too few keys for an 8-key range read to start anywhere
		// (NewWorkload's draw would panic), and too many for six-digit
		// key names to sort in index order.
		{Name: "x", Keys: 8, Functions: []FunctionSpec{{Name: "f", RangeReads: 1}}},
		{Name: "x", Keys: 1000001, Functions: []FunctionSpec{{Name: "f", Reads: 1}}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: invalid spec accepted", i)
		}
	}
	for _, keys := range []int{9, 1000000} {
		s := ChaincodeSpec{Name: "x", Keys: keys, Functions: []FunctionSpec{{Name: "f", RangeReads: 1}}}
		if err := s.Validate(); err != nil {
			t.Errorf("%d keys: %v", keys, err)
		}
	}
	// At the lower bound every range the workload draws is in the key
	// space; one key fewer, NewWorkload panicked.
	s := ChaincodeSpec{Name: "x", Keys: 9, Functions: []FunctionSpec{{Name: "rangeOp", RangeReads: 1}}}
	g, rng := NewWorkload(s, RangeHeavy, 0), rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		inv := g.Next(rng)
		if inv.Function != "rangeOp" {
			continue
		}
		if start, width, err := rangeArg(inv.Args[0]); err != nil || start < 0 || start+width >= s.Keys {
			t.Fatalf("range %q runs past the %d seeded keys (%v)", inv.Args[0], s.Keys, err)
		}
	}
}

func TestInitSeedsKeys(t *testing.T) {
	cc := MustChaincode(smallSpec())
	db, err := cctest.InitState(cc, statedb.LevelDB)
	if err != nil {
		t.Fatal(err)
	}
	if db.Len() != 500 {
		t.Fatalf("seeded %d keys, want 500", db.Len())
	}
}

func TestOpsExecuteAndRecord(t *testing.T) {
	cc := MustChaincode(smallSpec())
	db, err := cctest.InitState(cc, statedb.LevelDB)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		fn     string
		args   []string
		reads  int
		writes int
		ranges int
	}{
		{"readOp", []string{"42"}, 1, 0, 0},
		{"insertOp", []string{"seq00000001"}, 0, 1, 0},
		{"updateOp", []string{"42"}, 1, 1, 0},
		{"deleteOp", []string{"42"}, 0, 1, 0},
		{"rangeOp", []string{"10:4"}, 0, 0, 1},
	}
	for _, c := range cases {
		stub, err := cctest.Invoke(cc, db, c.fn, c.args...)
		if err != nil {
			t.Fatalf("%s: %v", c.fn, err)
		}
		tr := stub.Trace()
		if tr.Gets != c.reads || tr.Puts+tr.Deletes != c.writes || tr.Ranges != c.ranges {
			t.Errorf("%s: trace %+v, want r=%d w=%d rr=%d", c.fn, tr, c.reads, c.writes, c.ranges)
		}
	}
}

func TestRangeOpObservesWidthKeys(t *testing.T) {
	cc := MustChaincode(smallSpec())
	db, err := cctest.InitState(cc, statedb.LevelDB)
	if err != nil {
		t.Fatal(err)
	}
	stub, err := cctest.Invoke(cc, db, "rangeOp", "100:8")
	if err != nil {
		t.Fatal(err)
	}
	rq := stub.RWSet().RangeQueries[0]
	if len(rq.Reads) != 8 {
		t.Fatalf("range observed %d keys, want 8", len(rq.Reads))
	}
}

// genChain formats its keys and arguments without fmt, byte for byte as
// fmt's verbs print them.
func TestFormattingMatchesFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	values := []int{0, 9, 10, 99_999, 999_999, 1_000_000, -1, -99_999, -100_000, math.MaxInt64, math.MinInt64}
	for i := 0; i < 1000; i++ {
		values = append(values, rng.Intn(2_000_000)-1_000_000, int(rng.Int63()))
	}
	for _, v := range values {
		if got, want := KeyName(v), fmt.Sprintf("key_%06d", v); got != want {
			t.Fatalf("KeyName(%d) = %q, want %q", v, got, want)
		}
		if got, want := padded("ins", v, 8), fmt.Sprintf("ins%08d", v); got != want {
			t.Fatalf("insert token %d = %q, want %q", v, got, want)
		}
		if got, want := rangeToken(v, 8), fmt.Sprintf("%d:%d", v, 8); got != want {
			t.Fatalf("range token %d = %q, want %q", v, got, want)
		}
	}
}

// rangeArg accepts every argument the range-heavy workload emits, and
// only "start:width" with two integers and a positive width.
func TestRangeArg(t *testing.T) {
	spec := smallSpec()
	g := NewWorkload(spec, Mix{Range: 1}, 0)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 1000; i++ {
		a := g.Next(rng).Args[0]
		start, width, err := rangeArg(a)
		if err != nil || start < 0 || start+width >= spec.Keys || fmt.Sprintf("%d:%d", start, width) != a {
			t.Fatalf("rangeArg(%q) = %d, %d, %v", a, start, width, err)
		}
	}
	for _, c := range []struct {
		arg          string
		start, width int
	}{{"0:2", 0, 2}, {"99991:8", 99991, 8}, {"-3:4", -3, 4}} {
		if start, width, err := rangeArg(c.arg); err != nil || start != c.start || width != c.width {
			t.Errorf("rangeArg(%q) = %d, %d, %v; want %d, %d", c.arg, start, width, err, c.start, c.width)
		}
	}
	for _, a := range []string{"", "5", ":", "a:1", "1:b", "5:0", "5:-2", "5:3x", "5x:3", "5:3:1", " 5:3"} {
		if start, width, err := rangeArg(a); err == nil {
			t.Errorf("rangeArg(%q) = %d, %d, want an error", a, start, width)
		}
	}
}

func TestInvokeArgCountChecked(t *testing.T) {
	cc := MustChaincode(smallSpec())
	db, err := cctest.InitState(cc, statedb.LevelDB)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cctest.Invoke(cc, db, "readOp"); err == nil {
		t.Error("readOp without args accepted")
	}
	if _, err := cctest.Invoke(cc, db, "nope", "1"); err == nil {
		t.Error("unknown function accepted")
	}
	if _, err := cctest.Invoke(cc, db, "rangeOp", "notarange"); err == nil {
		t.Error("bad range arg accepted")
	}
	if _, err := cctest.Invoke(cc, db, "rangeOp", "5:0"); err == nil {
		t.Error("zero-width range accepted")
	}
}

func TestRichQueryFunction(t *testing.T) {
	spec := ChaincodeSpec{
		Name: "rich", Keys: 200,
		Functions: []FunctionSpec{{Name: "q", RichQueries: 1}},
	}
	cc := MustChaincode(spec)
	cdb, err := cctest.InitState(cc, statedb.CouchDB)
	if err != nil {
		t.Fatal(err)
	}
	stub, err := cctest.Invoke(cc, cdb, "q", "13")
	if err != nil {
		t.Fatal(err)
	}
	if stub.Trace().Queries != 1 {
		t.Fatalf("trace = %+v, want 1 rich query", stub.Trace())
	}
	// LevelDB degrades to a point read instead of failing.
	ldb, err := cctest.InitState(cc, statedb.LevelDB)
	if err != nil {
		t.Fatal(err)
	}
	stub, err = cctest.Invoke(cc, ldb, "q", "13")
	if err != nil {
		t.Fatal(err)
	}
	if stub.Trace().Gets != 1 || stub.Trace().Queries != 0 {
		t.Fatalf("LevelDB trace = %+v", stub.Trace())
	}
}

func TestMixByName(t *testing.T) {
	for _, n := range []string{"RH", "IH", "UH", "DH", "RaH", "RU"} {
		if _, err := MixByName(n); err != nil {
			t.Errorf("MixByName(%s): %v", n, err)
		}
	}
	if _, err := MixByName("XX"); err == nil {
		t.Error("unknown mix accepted")
	}
}

func TestWorkloadMixProportions(t *testing.T) {
	spec := smallSpec()
	gen := NewWorkload(spec, UpdateHeavy, 0)
	rng := rand.New(rand.NewSource(5))
	counts := map[string]int{}
	const n = 5000
	for i := 0; i < n; i++ {
		counts[gen.Next(rng).Function]++
	}
	frac := float64(counts["updateOp"]) / n
	if frac < 0.76 || frac > 0.84 {
		t.Errorf("updateOp fraction %.3f, want ~0.80", frac)
	}
	for _, other := range []string{"readOp", "insertOp", "deleteOp", "rangeOp"} {
		f := float64(counts[other]) / n
		if f < 0.02 || f > 0.09 {
			t.Errorf("%s fraction %.3f, want ~0.05", other, f)
		}
	}
}

func TestInsertAndDeleteKeysUnique(t *testing.T) {
	spec := smallSpec()
	gen := NewWorkload(spec, Mix{Insert: 50, Delete: 50}, 0)
	rng := rand.New(rand.NewSource(6))
	seenIns, seenDel := map[string]bool{}, map[string]bool{}
	for i := 0; i < 400; i++ { // < spec.Keys so deletes stay unique
		inv := gen.Next(rng)
		switch inv.Function {
		case "insertOp":
			if seenIns[inv.Args[0]] {
				t.Fatalf("duplicate insert key %s", inv.Args[0])
			}
			seenIns[inv.Args[0]] = true
		case "deleteOp":
			if seenDel[inv.Args[0]] {
				t.Fatalf("duplicate delete key %s", inv.Args[0])
			}
			seenDel[inv.Args[0]] = true
		}
	}
}

func TestWorkloadRunsAgainstChaincode(t *testing.T) {
	spec := smallSpec()
	cc := MustChaincode(spec)
	db, err := cctest.InitState(cc, statedb.LevelDB)
	if err != nil {
		t.Fatal(err)
	}
	for _, mix := range []Mix{ReadHeavy, InsertHeavy, UpdateHeavy, DeleteHeavy, RangeHeavy, UniformRU} {
		gen := NewWorkload(spec, mix, 1)
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 200; i++ {
			inv := gen.Next(rng)
			if _, err := cctest.Invoke(cc, db, inv.Function, inv.Args...); err != nil {
				t.Fatalf("mix %+v: %s(%v): %v", mix, inv.Function, inv.Args, err)
			}
		}
	}
}

func TestRenderParsesAndContainsFunctions(t *testing.T) {
	spec := ChaincodeSpec{
		Name: "demo", Keys: 100,
		Functions: []FunctionSpec{
			{Name: "mixed", Reads: 2, Inserts: 1, Updates: 1, Deletes: 1, RangeReads: 1},
			{Name: "qonly", RichQueries: 2},
		},
	}
	for _, rich := range []bool{false, true} {
		src, err := Render(spec, rich)
		if err != nil {
			t.Fatalf("rich=%v: %v", rich, err)
		}
		for _, want := range []string{"func (c *Contract) mixed(", "func (c *Contract) qonly(", "package demo"} {
			if !strings.Contains(src, want) {
				t.Errorf("rich=%v: rendered source missing %q", rich, want)
			}
		}
		if rich && !strings.Contains(src, "GetQueryResult") {
			t.Error("rich variant lacks GetQueryResult")
		}
		if !rich && strings.Contains(src, "GetQueryResult") {
			t.Error("plain variant uses GetQueryResult")
		}
	}
}

func TestRenderRejectsInvalidSpec(t *testing.T) {
	if _, err := Render(ChaincodeSpec{Name: "x"}, false); err == nil {
		t.Fatal("invalid spec rendered")
	}
}
