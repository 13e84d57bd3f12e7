package statedb

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ledger"
)

// FuzzViews holds the views of one index to the design they replace:
// each view has an oracle, an independent Clone that applies every
// batch the view applies. See checkViews.
func FuzzViews(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		if err := checkViews(seed); err != nil {
			t.Fatal(err)
		}
	})
}

// checkViews drives a head and five views of its index through 120
// random batches. The views trail the head by random lags; the last
// one stalls for 50 heights once and then replays them, as a crashed
// peer does. After every step each database is compared with its
// oracle, a lagging view must refuse a batch other than its next, and
// the index may keep no more history than the largest lag and no
// tombstone at or below the lowest view.
func checkViews(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	kind := []Kind{LevelDB, CouchDB}[seed&1]
	key := func() string { return fmt.Sprintf("k%02d", rng.Intn(24)) }
	var genesis []ledger.KVWrite
	for i := 0; i < 12; i++ {
		genesis = append(genesis, ledger.KVWrite{Key: key(), Value: []byte(fmt.Sprintf(`{"v":%d}`, i%4))})
	}
	head := Load(kind, genesis)
	dbs := []VersionedDB{head}
	for len(dbs) < 6 {
		dbs = append(dbs, View(head))
	}
	oracles := make([]VersionedDB, len(dbs))
	for i, db := range dbs {
		oracles[i] = db.Clone(0)
	}
	lags := []int{0, 0, 1, 3, rng.Intn(8), 2}
	stall := uint64(10 + rng.Intn(30))
	batches := []*UpdateBatch{nil}
	// advance moves view i and its oracle to height target, one batch
	// at a time, and compares them after each.
	advance := func(i int, target uint64) error {
		db := dbs[i]
		for n := db.Savepoint() + 1; n <= target; n++ {
			if err := db.ApplyUpdates(batches[n], n); err != nil {
				return fmt.Errorf("seed %d, view %d at height %d: %v", seed, i, n-1, err)
			}
			if err := oracles[i].ApplyUpdates(batches[n], n); err != nil {
				return err
			}
			if err := sameView(db, oracles[i], rng); err != nil {
				return fmt.Errorf("seed %d, view %d at height %d (head %d): %v", seed, i, n, dbs[0].Savepoint(), err)
			}
		}
		return nil
	}
	var deleted []string
	for h := uint64(1); h <= 120; h++ {
		batch := &UpdateBatch{}
		for tx, n := 0, rng.Intn(12); tx < n; tx++ {
			k, v := key(), ledger.Height{BlockNum: h, TxNum: uint64(tx)}
			switch r := rng.Intn(10); {
			case r == 0 && tx > 0:
				k = batch.writes[rng.Intn(len(batch.writes))].key // a second write in the batch
			case r == 1 && len(deleted) > 0:
				k = deleted[rng.Intn(len(deleted))] // a re-insert, if this write is a put
			}
			if rng.Intn(3) == 0 {
				batch.Delete(k, v)
				deleted = append(deleted, k)
			} else {
				batch.Put(k, []byte(fmt.Sprintf(`{"v":%d}`, rng.Intn(4))), v)
			}
		}
		batches = append(batches, batch)
		if err := advance(0, h); err != nil {
			return err
		}
		for i, db := range dbs {
			if err := sameView(db, oracles[i], rng); err != nil {
				return fmt.Errorf("seed %d, view %d at height %d (head %d): %v", seed, i, db.Savepoint(), h, err)
			}
		}
		for i := 1; i < len(dbs); i++ {
			db := dbs[i]
			target := db.Savepoint()
			switch {
			case i == 5 && h >= stall && h < stall+50:
				// stalled: a crashed peer commits nothing
			case lags[i] == 0 || uint64(lags[i]) < h && rng.Intn(2) == 0:
				target = max(target, h-uint64(min(lags[i], rng.Intn(lags[i]+1))))
			}
			if s := db.Savepoint(); s+1 < h {
				if db.ApplyUpdates(batch, h) == nil || db.Savepoint() != s {
					return fmt.Errorf("seed %d, view %d at height %d: applied the batch at %d", seed, i, s, h)
				}
			}
			if err := advance(i, target); err != nil {
				return err
			}
		}
		if err := keptHistory(head.(*store).idx); err != nil {
			return fmt.Errorf("seed %d, head %d: %v", seed, h, err)
		}
	}
	return nil
}

// sameView compares a view with its oracle on Savepoint, Get of every
// key, Scan and GetRange of random bounds, Len and a rich query: a key
// must be held by the very entry the oracle holds. A panic is an error.
func sameView(got, want VersionedDB, rng *rand.Rand) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	if got.Savepoint() != want.Savepoint() {
		return fmt.Errorf("savepoint %d, want %d", got.Savepoint(), want.Savepoint())
	}
	for i := 0; i <= 24; i++ {
		k := fmt.Sprintf("k%02d", i)
		if g, w := got.Get(k), want.Get(k); g != w {
			return fmt.Errorf("key %q: Get = %v, want %v", k, g, w)
		}
	}
	bound := func() string {
		if rng.Intn(4) == 0 {
			return ""
		}
		return fmt.Sprintf("k%02d", rng.Intn(26))
	}
	for q := 0; q < 4; q++ {
		start, end := bound(), bound()
		gi, wi := got.Scan(start, end), want.Scan(start, end)
		for ; wi.Valid(); gi.Next() {
			if !gi.Valid() || gi.Key() != wi.Key() || gi.Value() != wi.Value() {
				return fmt.Errorf("key %q: Scan [%q, %q) is elsewhere", wi.Key(), start, end)
			}
			wi.Next()
		}
		if gi.Valid() {
			return fmt.Errorf("key %q: Scan [%q, %q) goes on past the oracle's end", gi.Key(), start, end)
		}
		if err := sameKVs("GetRange", got.GetRange(start, end), want.GetRange(start, end)); err != nil {
			return err
		}
	}
	if got.Len() != want.Len() {
		return fmt.Errorf("%d keys, want %d", got.Len(), want.Len())
	}
	query := fmt.Sprintf(`{"v":%d}`, rng.Intn(4))
	g, gerr := got.ExecuteQuery(query)
	w, werr := want.ExecuteQuery(query)
	if (gerr == nil) != (werr == nil) {
		return fmt.Errorf("ExecuteQuery(%s) fails with %v, want %v", query, gerr, werr)
	}
	return sameKVs("ExecuteQuery("+query+")", g, w)
}

func sameKVs(what string, got, want []KV) error {
	for i := 0; i < max(len(got), len(want)); i++ {
		var g, w KV
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g.Key != w.Key || g.Version != w.Version || string(g.Value) != string(w.Value) {
			return fmt.Errorf("key %q: %s result %d is %q at %v, want %q at %v", max(g.Key, w.Key), what, i, g.Key, g.Version, w.Key, w.Version)
		}
	}
	return nil
}

// keptHistory checks that x keeps no step at or below its lowest view,
// so no more steps than the largest lag, and that every tombstone in
// its tree belongs to a step some view still reads through.
func keptHistory(x *index) error {
	low := x.head
	for _, v := range x.views {
		low = min(low, v.savepoint)
	}
	if uint64(len(x.steps)) > x.head-low {
		return fmt.Errorf("%d steps kept, largest lag %d", len(x.steps), x.head-low)
	}
	for _, st := range x.steps {
		if st.height <= low {
			return fmt.Errorf("step %d kept below the lowest view at %d", st.height, low)
		}
	}
	dead := 0
	for it := x.tree.Iter(); it.Valid(); it.Next() {
		if e := it.Value(); e.dead() {
			dead++
			if e.Version.BlockNum <= low {
				return fmt.Errorf("key %q: tombstone of height %d outlives the lowest view at %d", it.Key(), e.Version.BlockNum, low)
			}
		}
	}
	if dead != x.dead {
		return fmt.Errorf("%d tombstones in the tree, %d counted", dead, x.dead)
	}
	return nil
}
