package statedb_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/chaincode"
	"repro/internal/chaincodes/drm"
	"repro/internal/chaincodes/dv"
	"repro/internal/chaincodes/ehr"
	"repro/internal/chaincodes/scm"
	"repro/internal/gen"
	"repro/internal/ledger"
	"repro/internal/statedb"
)

// applied is the oracle of Load: the genesis path it replaced, one
// batch of every write applied at height 0.
func applied(kind statedb.Kind, writes []ledger.KVWrite) statedb.VersionedDB {
	db := statedb.New(kind)
	batch := &statedb.UpdateBatch{}
	for i, w := range writes {
		batch.Add(w, ledger.Height{TxNum: uint64(i)})
	}
	db.ApplyUpdates(batch, 0)
	return db
}

// sameDB reports the first difference between two databases: in kind,
// savepoint or length, in what GetRange returns, or in a key, value,
// version or document pointer along a Scan and its Get.
func sameDB(got, want statedb.VersionedDB) error {
	if got.Kind() != want.Kind() || got.Savepoint() != want.Savepoint() || got.Len() != want.Len() {
		return fmt.Errorf("%v at %d with %d keys, want %v at %d with %d keys",
			got.Kind(), got.Savepoint(), got.Len(), want.Kind(), want.Savepoint(), want.Len())
	}
	g, w := got.GetRange("", ""), want.GetRange("", "")
	if len(g) != len(w) {
		return fmt.Errorf("GetRange yields %d entries, want %d", len(g), len(w))
	}
	for i := range w {
		if g[i].Key != w[i].Key || !bytes.Equal(g[i].Value, w[i].Value) || g[i].Version != w[i].Version {
			return fmt.Errorf("GetRange entry %d = %s %q at %v, want %s %q at %v",
				i, g[i].Key, g[i].Value, g[i].Version, w[i].Key, w[i].Value, w[i].Version)
		}
	}
	gi, wi := got.Scan("", ""), want.Scan("", "")
	for ; wi.Valid(); gi.Next() {
		if !gi.Valid() {
			return fmt.Errorf("Scan ends before %s", wi.Key())
		}
		k, gv, wv := wi.Key(), gi.Value(), wi.Value()
		if gi.Key() != k || !bytes.Equal(gv.Value, wv.Value) || gv.Version != wv.Version || gv.Doc != wv.Doc {
			return fmt.Errorf("Scan reaches %s %q at %v (doc %p), want %s %q at %v (doc %p)",
				gi.Key(), gv.Value, gv.Version, gv.Doc, k, wv.Value, wv.Version, wv.Doc)
		}
		if vv := got.Get(k); vv == nil || vv.Version != wv.Version || vv.Doc != wv.Doc || !bytes.Equal(vv.Value, wv.Value) {
			return fmt.Errorf("Get(%s) = %+v, want %+v", k, vv, wv)
		}
		wi.Next()
	}
	if gi.Valid() {
		return fmt.Errorf("Scan goes on to %s", gi.Key())
	}
	return nil
}

// churn applies the same 200 random batches, at heights 1 to 200, to
// both databases and compares them every 20 batches: puts and deletes
// of seeded keys and of new ones.
func churn(rng *rand.Rand, keys []string, got, want statedb.VersionedDB) error {
	for h := uint64(1); h <= 200; h++ {
		batch := &statedb.UpdateBatch{}
		for tx := uint64(0); tx < uint64(1+rng.Intn(20)); tx++ {
			k := fmt.Sprintf("new%05d", rng.Intn(500))
			if len(keys) > 0 && rng.Intn(3) > 0 {
				k = keys[rng.Intn(len(keys))]
			}
			if rng.Intn(4) == 0 {
				batch.Delete(k, ledger.Height{BlockNum: h, TxNum: tx})
			} else {
				batch.Put(k, []byte(fmt.Sprint(h, tx)), ledger.Height{BlockNum: h, TxNum: tx})
			}
		}
		got.ApplyUpdates(batch, h)
		want.ApplyUpdates(batch, h)
		if h%20 == 0 {
			if err := sameDB(got, want); err != nil {
				return fmt.Errorf("after batch %d: %w", h, err)
			}
		}
	}
	return nil
}

// checkLoad holds Load of writes to its oracle, as loaded and after
// the same churn on both.
func checkLoad(t *testing.T, name string, kind statedb.Kind, writes []ledger.KVWrite, seed int64) {
	t.Helper()
	got, want := statedb.Load(kind, writes), applied(kind, writes)
	if err := sameDB(got, want); err != nil {
		t.Fatalf("%s: loaded: %v", name, err)
	}
	keys := make([]string, len(writes))
	for i, w := range writes {
		keys[i] = w.Key
	}
	if err := churn(rand.New(rand.NewSource(seed)), keys, got, want); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
}

// Load builds the genesis state of every chaincode the lab runs
// exactly as the batch it replaced did. genChain writes its keys in
// ascending order; the four use-case chaincodes do not.
func TestLoadMatchesGenesisBatch(t *testing.T) {
	spec := gen.GenChainSpec()
	spec.Keys = 10000
	for i, cc := range []chaincode.Chaincode{gen.MustChaincode(spec), ehr.New(), drm.New(), scm.New(), dv.New()} {
		for _, kind := range []statedb.Kind{statedb.LevelDB, statedb.CouchDB} {
			stub := chaincode.NewStub(statedb.New(kind))
			if err := cc.Init(stub); err != nil {
				t.Fatal(err)
			}
			writes := stub.RWSet().Writes
			if ascends := slices.IsSortedFunc(writes, func(a, b ledger.KVWrite) int {
				return strings.Compare(a.Key, b.Key)
			}); ascends != (i == 0) {
				t.Errorf("%s: writes ascend = %v, want %v", cc.Name(), ascends, i == 0)
			}
			checkLoad(t, cc.Name(), kind, writes, int64(i))
		}
	}
}

// Load agrees with the batch on random write sets: shuffled or
// ascending, with and without deletions, and with a key written more
// than once (the last write wins).
func TestLoadMatchesBatchOnRandomWrites(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for seed := int64(1); seed <= 40; seed++ {
		n := rng.Intn(3000)
		deletes := seed%2 == 0
		order := [...]string{"shuffled", "ascending", "with repeats"}[seed%3]
		var writes []ledger.KVWrite
		for i, k := range rng.Perm(n) {
			switch seed % 3 {
			case 1:
				k = i
			case 2:
				k = rng.Intn(n/2 + 1)
			}
			w := ledger.KVWrite{Key: fmt.Sprintf("key%05d", k), Value: []byte(fmt.Sprint(i))}
			if deletes && rng.Intn(5) == 0 {
				w = ledger.KVWrite{Key: w.Key, IsDelete: true}
			}
			writes = append(writes, w)
		}
		name := fmt.Sprintf("seed %d (%d writes %s, deletes %v)", seed, n, order, deletes)
		checkLoad(t, name, statedb.LevelDB, writes, seed)
	}
}
