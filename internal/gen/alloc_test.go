package gen

import (
	"fmt"
	"strconv"
	"testing"
	"unsafe"

	"repro/internal/cctest"
	"repro/internal/chaincode"
	"repro/internal/ledger"
	"repro/internal/statedb"
)

// raceDetector is set by race_test.go, which only -race builds.
var raceDetector bool

// handedOff keeps TestUpdateOpAllocs's rwset on the heap, where a
// simulation's goes.
var handedOff *ledger.RWSet

// An index a spec seeds resolves to the chaincode's key table, with no
// string of its own; any other index is formatted by KeyName, and an
// argument that is no index is the key itself. The table is built at
// the largest size a spec may seed, so every digit rolls over in it.
func TestKeyArgReadsTheTable(t *testing.T) {
	spec := smallSpec()
	spec.Keys = maxKeys
	c := MustChaincode(spec)
	if len(c.keys) != maxKeys*keyLen {
		t.Fatalf("key table holds %d bytes, want %d", len(c.keys), maxKeys*keyLen)
	}
	for i := 0; i < maxKeys; i++ {
		if got := c.key(i); got != KeyName(i) {
			t.Fatalf("key(%d) = %q, want %q", i, got, KeyName(i))
		}
	}
	for _, i := range []int{0, 1, 9, 10, 42, 99_999, maxKeys - 1} {
		got := c.keyArg(strconv.Itoa(i))
		if got != KeyName(i) || unsafe.StringData(got) != unsafe.StringData(c.keys[i*keyLen:]) {
			t.Errorf("keyArg(%d) = %q is not the table's KeyName(%d)", i, got, i)
		}
	}
	c = MustChaincode(smallSpec())
	for _, i := range []int{-1, -100_000, c.spec.Keys, c.spec.Keys + 1, maxKeys, 1 << 40} {
		if got := c.keyArg(strconv.Itoa(i)); got != KeyName(i) {
			t.Errorf("keyArg(%d) = %q, want KeyName's %q", i, got, KeyName(i))
		}
	}
	for _, a := range []string{padded("ins", 7, 8), "new_x", "key_000001"} {
		if got := c.keyArg(a); got != a {
			t.Errorf("keyArg(%q) = %q, want the argument itself", a, got)
		}
	}
}

// genChain's Init names its keys from the chaincode's table and writes
// them into a write set it sizes once: what it allocates does not grow
// with the key count, and exactly one object of it is the write set (a
// stub that already has the room saves that one).
func TestInitAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector allocates on its own account")
	}
	// Enough runs that a stray allocation of the runtime's during one of
	// them does not count (AllocsPerRun truncates the mean).
	const runs = 20
	initAllocs := func(keys int, stubs func() *chaincode.Stub) float64 {
		spec := GenChainSpec()
		spec.Keys = keys
		c := MustChaincode(spec)
		return testing.AllocsPerRun(runs, func() {
			s := stubs()
			if err := c.Init(s); err != nil {
				t.Fatal(err)
			}
			if len(s.Writes()) != keys {
				t.Fatalf("Init wrote %d keys, want %d", len(s.Writes()), keys)
			}
		})
	}
	fresh := func() func() *chaincode.Stub {
		stubs := make([]*chaincode.Stub, runs+1)
		for i := range stubs {
			stubs[i] = chaincode.NewStub(nil)
		}
		return func() *chaincode.Stub {
			s := stubs[0]
			stubs[0], stubs = nil, stubs[1:]
			return s
		}
	}
	reused := chaincode.NewStub(nil)
	reused.Grow(20000)
	reset := func() *chaincode.Stub {
		reused.Reset(nil)
		return reused
	}
	small, large, roomy := initAllocs(10000, fresh()), initAllocs(20000, fresh()), initAllocs(20000, reset)
	t.Logf("Init allocates %.0f objects at 10k keys, %.0f at 20k, %.0f into a stub with room", small, large, roomy)
	if small != large {
		t.Errorf("Init allocates %.0f objects for 10k keys but %.0f for 20k: something is allocated per key", small, large)
	}
	if large-roomy != 1 {
		t.Errorf("Init allocates %.0f objects into a fresh stub and %.0f into one with room, want exactly one more (its write set)", large, roomy)
	}
}

// An updateOp on a reused stub allocates only what the stub hands off
// (the rwset and its exact-size read and write sets): its key is the
// table's and its value one of seven shared ones.
func TestUpdateOpAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector allocates on its own account")
	}
	c := MustChaincode(smallSpec())
	db, err := cctest.InitState(c, statedb.LevelDB)
	if err != nil {
		t.Fatal(err)
	}
	s := chaincode.NewStub(db)
	args := []string{"42"}
	n := testing.AllocsPerRun(100, func() {
		s.Reset(db)
		if err := c.Invoke(s, "updateOp", args); err != nil {
			t.Fatal(err)
		}
		handedOff = s.RWSet()
	})
	if n != 3 {
		t.Errorf("an updateOp allocates %.0f objects, want 3 (the rwset, its reads, its writes)", n)
	}
	want := fmt.Sprintf(`{"v":%d}`, len(db.Get(KeyName(42)).Value)%7+1)
	if w := handedOff.Writes[0]; w.Key != KeyName(42) || string(w.Value) != want {
		t.Errorf("updateOp wrote %s = %s, want %s = %s", w.Key, w.Value, KeyName(42), want)
	}
}
