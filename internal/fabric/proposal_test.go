package fabric

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/cctest"
	"repro/internal/chaincode"
	"repro/internal/chaincodes/ehr"
	"repro/internal/ledger"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/statedb"
	"repro/internal/workload"
)

// The tests below pin the proposal memo without an off-switch: a reused
// simulation must be indistinguishable from a fresh one on the same
// replica, and every way two replicas can differ on what was read must
// still produce two simulations.

// response is what one endorser sent back and when.
type response struct {
	end *ledger.Endorsement
	err error
	at  time.Duration
}

// endorseOn asks p to endorse prop and records the response when it
// arrives. The peer must have a free worker, so the simulation (or the
// memo check) happens during the call.
func endorseOn(t *testing.T, nw *Network, p *Peer, prop *proposal) *response {
	t.Helper()
	if !idle(nw, p) {
		t.Fatalf("%s has a busy endorsement worker; the probe would queue", p.name)
	}
	r := &response{}
	p.endorse(prop, replyFunc(func(e *ledger.Endorsement, err error) {
		r.end, r.err, r.at = e, err, time.Duration(nw.eng.Now())
	}))
	return r
}

// idle reports whether every endorsement worker of the peers is free.
func idle(nw *Network, peers ...*Peer) bool {
	for _, p := range peers {
		for _, busy := range p.endorserSlots {
			if busy > nw.eng.Now() {
				return false
			}
		}
	}
	return true
}

// probeNetwork builds a network whose drivers have not started: the
// replicas hold the genesis state and the engine is empty. Endorsement
// service time is not jittered, so two endorsements of equal cost
// started together answer together.
func probeNetwork(t *testing.T, cc chaincode.Chaincode, kind statedb.Kind) (nw *Network, a, b *Peer) {
	t.Helper()
	cfg := testConfig(1)
	cfg.Chaincode = cc
	cfg.Workload = workload.Func(func(*rand.Rand) workload.Invocation { return workload.Invocation{} })
	cfg.DBKind = kind
	cfg.PeerCosts.Jitter = 0
	nw, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return nw, nw.peerOf(nw.orgs[0], 0), nw.peerOf(nw.orgs[1], 0)
}

// commitOn applies the writes of invoking fn on p's replica to that
// replica alone, as block `block` — the state of a peer that committed
// a block its fellow endorser has not yet. The replica first gets an
// index of its own: the channel's shared one applies only the chain.
func commitOn(t *testing.T, nw *Network, p *Peer, block uint64, fn string, args ...string) {
	t.Helper()
	p.dbs[0] = p.dbs[0].Clone(0)
	stub, err := cctest.Invoke(nw.cfg.Chaincode, p.dbs[0], fn, args...)
	if err != nil {
		t.Fatal(err)
	}
	if err := cctest.Commit(p.dbs[0], stub, block); err != nil {
		t.Fatal(err)
	}
}

// endorsePair endorses one fresh proposal on first and then on second,
// and returns both responses and how the second fared against the memo.
func endorsePair(t *testing.T, nw *Network, first, second *Peer, fn string, args ...string) (r1, r2 *response, hit, miss bool) {
	t.Helper()
	prop := &proposal{inv: workload.Invocation{Function: fn, Args: args}}
	r1 = endorseOn(t, nw, first, prop)
	hits, misses := nw.memoHits, nw.memoMisses
	r2 = endorseOn(t, nw, second, prop)
	nw.eng.Run()
	if r1.end == nil || r2.end == nil {
		t.Fatalf("%s%v: endorsements missing (errors %v, %v)", fn, args, r1.err, r2.err)
	}
	return r1, r2, nw.memoHits == hits+1, nw.memoMisses == misses+1
}

// Differential test: on a live, contended network whose replicas keep
// diverging, peer B's answer to a proposal peer A already simulated
// must be byte-for-byte and tick-for-tick the answer B gives to the
// same invocation through the public Endorse (fresh proposal, no memo)
// — whether B reused A's simulation or had to run its own.
func TestMemoisedEndorsementEqualsFreshSimulation(t *testing.T) {
	cfg := testConfig(3)
	cfg.Rate = 100
	// No service-time jitter, so equal costs mean equal response times;
	// the replicas diverge instead because Org1 hears of every block
	// tens of milliseconds after Org0.
	cfg.PeerCosts.Jitter = 0
	cfg.DelayOrg = 1
	cfg.DelayLink = netem.Link{Base: 40 * time.Millisecond, Jitter: 20 * time.Millisecond}
	nw, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, b := nw.peerOf(nw.orgs[0], 0), nw.peerOf(nw.orgs[1], 0)
	for _, d := range nw.drivers {
		d.start()
	}
	nw.eng.RunUntil(sim.Time(5 * time.Second))

	gen := ehr.NewWorkload(1)
	rng := rand.New(rand.NewSource(11))
	type probe struct {
		inv             workload.Invocation
		shared, fresh   *response
		first           *response
		hit, missedMemo bool
	}
	var probes []*probe
	for len(probes) < 400 {
		nw.eng.RunUntil(nw.eng.Now() + sim.Time(7*time.Millisecond))
		if !idle(nw, a, b) {
			continue
		}
		pr := &probe{inv: gen.Next(rng)}
		prop := &proposal{inv: pr.inv}
		pr.first = endorseOn(t, nw, a, prop)
		hits, misses := nw.memoHits, nw.memoMisses
		pr.shared = endorseOn(t, nw, b, prop)
		pr.hit, pr.missedMemo = nw.memoHits == hits+1, nw.memoMisses == misses+1
		pr.fresh = &response{}
		fresh := pr.fresh
		b.Endorse(pr.inv, 0, func(e *ledger.Endorsement, err error) {
			fresh.end, fresh.err, fresh.at = e, err, time.Duration(nw.eng.Now())
		})
		probes = append(probes, pr)
	}
	nw.eng.RunUntil(nw.eng.Now() + sim.Time(5*time.Second))

	hits, misses := 0, 0
	for i, pr := range probes {
		if pr.shared.end == nil || pr.fresh.end == nil || pr.first.end == nil {
			t.Fatalf("probe %d %v: endorsement missing", i, pr.inv)
		}
		if pr.hit == pr.missedMemo {
			t.Fatalf("probe %d %v: B neither hit nor missed A's memo", i, pr.inv)
		}
		if !reflect.DeepEqual(pr.shared.end.RWSet, pr.fresh.end.RWSet) {
			t.Errorf("probe %d %v (hit=%v): rwset through the shared proposal %+v, fresh %+v",
				i, pr.inv, pr.hit, pr.shared.end.RWSet, pr.fresh.end.RWSet)
		}
		if pr.shared.end.RWSet.Digest() != pr.fresh.end.RWSet.Digest() {
			t.Errorf("probe %d %v (hit=%v): rwset digests differ", i, pr.inv, pr.hit)
		}
		if !bytes.Equal(pr.shared.end.Signature, pr.fresh.end.Signature) {
			t.Errorf("probe %d %v (hit=%v): signatures differ", i, pr.inv, pr.hit)
		}
		if pr.shared.at != pr.fresh.at {
			t.Errorf("probe %d %v (hit=%v): answered at %v through the shared proposal, %v fresh",
				i, pr.inv, pr.hit, pr.shared.at, pr.fresh.at)
		}
		if pr.hit {
			hits++
			if pr.shared.end.RWSet != pr.first.end.RWSet {
				t.Errorf("probe %d: a hit must share A's rwset pointer", i)
			}
		} else {
			misses++
			if pr.shared.end.RWSet.Equal(pr.first.end.RWSet) {
				t.Errorf("probe %d %v: B missed the memo but reproduced A's rwset", i, pr.inv)
			}
		}
	}
	if hits == 0 || misses == 0 {
		t.Fatalf("%d hits, %d misses: the probes must exercise both", hits, misses)
	}
	t.Logf("%d probes: %d hits, %d misses", len(probes), hits, misses)
}

// A proposal reading a key that one endorser's replica has a newer
// version of is simulated twice, and the two answers fail VSCC — the
// paper's Equation 1, end to end through the client and the validator.
func TestReplicaAheadOnReadKeyMissesMemo(t *testing.T) {
	nw, a, _ := probeNetwork(t, ehr.New(), statedb.CouchDB)
	// Block 1 reaches Org0's peers only.
	for _, p := range nw.peers {
		if p.org == a.org {
			commitOn(t, nw, p, 1, "grantProfileAccess", "5", "actor01")
		}
	}
	j := &pendingTx{inv: workload.Invocation{Chaincode: ehr.Name, Function: "readProfile", Args: []string{"5"}}, legs: 1}
	nw.drivers[0].submitAttempt(j)
	nw.eng.RunUntil(sim.Time(5 * time.Second))

	if nw.memoHits != 0 || nw.memoMisses != 1 {
		t.Fatalf("hits %d, misses %d; want 0 and 1", nw.memoHits, nw.memoMisses)
	}
	blocks := nw.Chain().Blocks()
	if len(blocks) != 2 || len(blocks[1].Transactions) != 1 {
		t.Fatalf("chain has %d blocks, want genesis + one block of one transaction", len(blocks))
	}
	// The run strips endorsements after commit; the validation code is
	// what the chain keeps.
	if code := blocks[1].ValidationCodes[0]; code != ledger.EndorsementPolicyFailure {
		t.Fatalf("validation code %v, want %v", code, ledger.EndorsementPolicyFailure)
	}

	// The same proposal, looked at directly: two distinct rwsets.
	nw2, a2, b2 := probeNetwork(t, ehr.New(), statedb.CouchDB)
	commitOn(t, nw2, a2, 1, "grantProfileAccess", "5", "actor01")
	r1, r2, hit, miss := endorsePair(t, nw2, a2, b2, "readProfile", "5")
	if hit || !miss || r1.end.RWSet.Equal(r2.end.RWSet) {
		t.Fatalf("hit=%v miss=%v, rwsets %+v and %+v: want a miss and two different rwsets", hit, miss, r1.end.RWSet, r2.end.RWSet)
	}
	tx := &ledger.Transaction{RWSet: r1.end.RWSet, Endorsements: []*ledger.Endorsement{r1.end, r2.end}}
	if code := nw2.vals[0].vscc(tx); code != ledger.EndorsementPolicyFailure {
		t.Fatalf("vscc = %v, want %v", code, ledger.EndorsementPolicyFailure)
	}
	// A key neither replica differs on still hits.
	if _, _, hit, _ := endorsePair(t, nw2, a2, b2, "readProfile", "6"); !hit {
		t.Fatal("replicas agree on profile 6, yet the second endorser simulated")
	}
}

// An endorsement is allocated with room for its signature: the bytes
// must be Sign's over the rwset digest, and each endorsement must keep
// its own — a signer writing into shared scratch would leave two
// endorsements by one peer aliasing the last signature.
func TestEndorsementCarriesItsOwnSignature(t *testing.T) {
	nw, a, b := probeNetwork(t, ehr.New(), statedb.CouchDB)
	var rs []*response
	for _, p := range []*Peer{a, a, b} {
		rs = append(rs, endorseOn(t, nw, p, &proposal{inv: workload.Invocation{Function: "readProfile", Args: []string{fmt.Sprint(len(rs))}}}))
		nw.eng.Run()
	}
	for i, r := range rs {
		if r.end == nil {
			t.Fatalf("endorsement %d missing (error %v)", i, r.err)
		}
		d := r.end.RWSet.Digest()
		id := nw.msp.Lookup(r.end.Org, r.end.PeerID)
		if want := id.Sign(d[:]); !bytes.Equal(r.end.Signature, want) {
			t.Errorf("endorsement %d by %s: signature %x, Sign gives %x", i, r.end.PeerID, r.end.Signature, want)
		}
	}
	if &rs[0].end.Signature[0] == &rs[1].end.Signature[0] {
		t.Error("two endorsements by one peer share signature storage")
	}
	if bytes.Equal(rs[0].end.Signature, rs[1].end.Signature) {
		t.Error("two endorsements of different rwsets carry one signature")
	}
}

// edgeCC is a chaincode for the cases the bundled ones do not reach.
// Its first genesis write is "k0", so k0 is present at version {0,0} —
// the version a read of an absent key carries too.
type edgeCC struct{}

func (edgeCC) Name() string { return "edge" }

func (edgeCC) Init(stub *chaincode.Stub) error {
	for i := 0; i < 4; i++ {
		if err := stub.PutState(fmt.Sprintf("k%d", i), []byte(fmt.Sprintf(`{"n":%d}`, i))); err != nil {
			return err
		}
	}
	return nil
}

func (edgeCC) Invoke(stub *chaincode.Stub, fn string, args []string) error {
	switch fn {
	case "del": // delete a key
		return stub.DelState(args[0])
	case "put": // insert or update a key
		return stub.PutState(args[0], []byte(`{"n":9}`))
	case "touch": // recreate the key when absent, else copy it aside
		v, err := stub.GetState(args[0])
		if err != nil {
			return err
		}
		if v == nil {
			return stub.PutState(args[0], []byte(`{"n":-1}`))
		}
		return stub.PutState("seen", v)
	case "scan": // checked range query
		_, err := stub.GetStateByRange(args[0], args[1])
		return err
	case "rich": // unchecked rich query
		_, err := stub.GetQueryResult(`{"selector":{"n":{"$gte":0}}}`)
		return err
	}
	return fmt.Errorf("edge: unknown function %q", fn)
}

// Presence edge: a replica that applied a delete of genesis key 0 and
// one that did not agree on the read's *version* ({0,0} both ways) but
// not on what the chaincode does next. The memo must compare presence.
func TestMemoComparesPresenceNotJustVersion(t *testing.T) {
	for _, deletedOnFirst := range []bool{true, false} {
		nw, a, b := probeNetwork(t, edgeCC{}, statedb.LevelDB)
		first, second := a, b
		if !deletedOnFirst {
			first, second = b, a
		}
		commitOn(t, nw, a, 1, "del", "k0")
		r1, r2, hit, miss := endorsePair(t, nw, first, second, "touch", "k0")
		if r1.end.RWSet.Reads[0] != r2.end.RWSet.Reads[0] || r1.end.RWSet.Reads[0].Version != ledger.ZeroHeight {
			t.Fatalf("reads %+v and %+v: the edge needs equal reads at ZeroHeight", r1.end.RWSet.Reads, r2.end.RWSet.Reads)
		}
		if hit || !miss {
			t.Fatalf("deleted on first=%v: hit=%v miss=%v, want a miss", deletedOnFirst, hit, miss)
		}
		if r1.end.RWSet.Equal(r2.end.RWSet) {
			t.Fatalf("deleted on first=%v: both endorsers answered %+v", deletedOnFirst, r1.end.RWSet)
		}
		// Absent on both replicas, and present on both, are hits.
		if _, _, hit, _ := endorsePair(t, nw, first, second, "touch", "nope"); !hit {
			t.Fatal("a key absent on both replicas must hit")
		}
		if _, _, hit, _ := endorsePair(t, nw, first, second, "touch", "k1"); !hit {
			t.Fatal("a key unchanged on both replicas must hit")
		}
		commitOn(t, nw, b, 1, "del", "k0")
		if _, _, hit, _ := endorsePair(t, nw, first, second, "touch", "k0"); !hit {
			t.Fatal("k0 deleted on both replicas must hit")
		}
	}
}

// A range observation is reused only while the second replica's scan
// returns the same keys at the same versions.
func TestRangeProposalMissesAfterChangeInInterval(t *testing.T) {
	for _, change := range [][]string{
		{"put", "k15"}, // insert into the interval
		{"put", "k2"},  // update inside it
		{"del", "k2"},  // delete inside it
	} {
		nw, a, b := probeNetwork(t, edgeCC{}, statedb.LevelDB)
		r1, r2, hit, _ := endorsePair(t, nw, a, b, "scan", "k1", "k3")
		if !hit || r1.end.RWSet != r2.end.RWSet || len(r1.end.RWSet.RangeQueries[0].Reads) != 2 {
			t.Fatalf("identical replicas: the second endorser must reuse the scan of k1, k2 (hit=%v, %+v)", hit, r1.end.RWSet)
		}
		commitOn(t, nw, b, 1, change[0], change[1])
		r1, r2, hit, miss := endorsePair(t, nw, a, b, "scan", "k1", "k3")
		if hit || !miss || r1.end.RWSet.Equal(r2.end.RWSet) {
			t.Fatalf("%v on one replica: hit=%v miss=%v, scans %+v and %+v", change, hit, miss,
				r1.end.RWSet.RangeQueries, r2.end.RWSet.RangeQueries)
		}
		// Once the other replica applies the same block the scan is
		// reusable again, and a write outside [k1, k3) does not disturb it.
		commitOn(t, nw, a, 1, change[0], change[1])
		commitOn(t, nw, a, 2, "put", "k3")
		if _, _, hit, _ := endorsePair(t, nw, a, b, "scan", "k1", "k3"); !hit {
			t.Fatalf("%v on both replicas, k3 outside the interval: want a hit", change)
		}
	}
}

// Rich-query observations are unchecked — nothing can re-validate them —
// so a simulation that made one is never handed to a second endorser.
func TestRichQueryProposalIsNeverReused(t *testing.T) {
	nw, a, b := probeNetwork(t, edgeCC{}, statedb.CouchDB)
	prop := &proposal{inv: workload.Invocation{Function: "rich"}}
	r1 := endorseOn(t, nw, a, prop)
	r2 := endorseOn(t, nw, b, prop)
	nw.eng.Run()
	if r1.end == nil || r2.end == nil {
		t.Fatalf("endorsements missing: %v, %v", r1.err, r2.err)
	}
	if prop.memo.rwset != nil || nw.memoHits != 0 {
		t.Fatalf("memo %v, %d hits: a rich-query simulation must not be kept", prop.memo.rwset, nw.memoHits)
	}
	if r1.end.RWSet == r2.end.RWSet || !r1.end.RWSet.Equal(r2.end.RWSet) {
		t.Fatal("identical replicas: want two separately simulated, equal rwsets")
	}
	if len(r1.end.RWSet.RangeQueries) != 1 || !r1.end.RWSet.RangeQueries[0].Unchecked {
		t.Fatalf("rwset %+v: want one unchecked observation", r1.end.RWSet)
	}
}

// On the default EHR run nearly every second endorser finds its replica
// in step with the first one's. A change that silently stops the reuse
// fails here, not just on the benchmark; and the misses that remain are
// the endorsement policy failures of §3.2.1.
func TestMemoHitRateOnDefaultEHRRun(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Duration = 30 * time.Second
	cfg.Drain = 20 * time.Second
	cfg.Chaincode = ehr.New()
	cfg.Workload = ehr.NewWorkload(1)
	nw, rep := run(t, cfg)
	checked := nw.memoHits + nw.memoMisses
	if checked < uint64(rep.Total)*9/10 {
		t.Fatalf("%d memo checks for %d transactions endorsed by two orgs", checked, rep.Total)
	}
	if rate := float64(nw.memoHits) / float64(checked); rate < 0.95 {
		t.Fatalf("memo hit rate %.3f (%d of %d), want >= 0.95", rate, nw.memoHits, checked)
	}
	if nw.memoMisses == 0 || rep.Counts[ledger.EndorsementPolicyFailure] == 0 {
		t.Fatalf("%d misses, %d endorsement policy failures: replica skew must still show",
			nw.memoMisses, rep.Counts[ledger.EndorsementPolicyFailure])
	}
	if uint64(rep.Counts[ledger.EndorsementPolicyFailure]) > nw.memoMisses {
		t.Fatalf("%d endorsement policy failures from %d misses", rep.Counts[ledger.EndorsementPolicyFailure], nw.memoMisses)
	}
}

// refRangeUnchanged is rangeUnchanged as it was when the re-scan
// collected the range with GetRange before comparing: the oracle the
// in-place walk is held to.
func refRangeUnchanged(db statedb.VersionedDB, rq *ledger.RangeQueryInfo, overlay map[string]ledger.Height, overlayDel map[string]bool) bool {
	seen := 0
	for _, kv := range db.GetRange(rq.StartKey, rq.EndKey) {
		if overlayDel[kv.Key] {
			continue
		}
		ver := kv.Version
		if h, ok := overlay[kv.Key]; ok {
			ver = h
		}
		if seen == len(rq.Reads) || rq.Reads[seen].Key != kv.Key || rq.Reads[seen].Version != ver {
			return false
		}
		seen++
	}
	if seen != len(rq.Reads) {
		return false
	}
	// Overlay inserts of keys absent from committed state.
	for key := range overlay {
		if key >= rq.StartKey && (rq.EndKey == "" || key < rq.EndKey) && db.Get(key) == nil {
			return false
		}
	}
	return true
}

// rangeCase is one random re-scan: a committed state of at most 64 of
// 80 possible keys with some deleted, a block overlay built the way
// validate builds it, and an observation recorded from the state the
// overlay describes, then perturbed in the state or in the record.
func rangeCase(rng *rand.Rand) (db statedb.VersionedDB, rq *ledger.RangeQueryInfo, overlay map[string]ledger.Height, overlayDel map[string]bool) {
	key := func() string { return fmt.Sprintf("k%02d", rng.Intn(80)) }
	// A bound is open, a possible key, or between two keys.
	bound := func() string {
		switch rng.Intn(4) {
		case 0:
			return ""
		case 1:
			return key()
		}
		return key() + "~"
	}
	kinds := []statedb.Kind{statedb.LevelDB, statedb.CouchDB}
	db = statedb.New(kinds[rng.Intn(2)])
	commit := func(block uint64, n int, del float64) {
		b := &statedb.UpdateBatch{}
		for i := 0; i < n; i++ {
			h := ledger.Height{BlockNum: block, TxNum: uint64(i)}
			if rng.Float64() < del {
				b.Delete(key(), h)
			} else {
				b.Put(key(), []byte("v"), h)
			}
		}
		db.ApplyUpdates(b, block)
	}
	commit(1, rng.Intn(65), 0)
	commit(2, rng.Intn(12), 1)

	if rng.Intn(4) > 0 {
		overlay, overlayDel = map[string]ledger.Height{}, map[string]bool{}
		for i, n := 0, rng.Intn(10); i < n; i++ {
			k := key()
			if rng.Intn(3) == 0 {
				overlayDel[k] = true
				delete(overlay, k)
			} else {
				overlay[k] = ledger.Height{BlockNum: 9, TxNum: uint64(i)}
				delete(overlayDel, k)
			}
		}
	}

	rq = &ledger.RangeQueryInfo{StartKey: bound(), EndKey: bound()}
	if rng.Intn(8) == 0 {
		rq.EndKey = rq.StartKey
	}
	for it := db.Scan(rq.StartKey, rq.EndKey); it.Valid(); it.Next() {
		k, ver := it.Key(), it.Value().Version
		if overlayDel[k] {
			continue
		}
		if h, ok := overlay[k]; ok {
			ver = h
		}
		rq.Reads = append(rq.Reads, ledger.KVRead{Key: k, Version: ver})
	}

	switch rng.Intn(3) {
	case 0: // the state moves on: inserts, updates and deletes anywhere
		commit(3, 1+rng.Intn(4), 0.4)
	case 1: // the record differs: a key dropped, added or re-versioned
		switch i := rng.Intn(len(rq.Reads) + 1); {
		case i < len(rq.Reads) && rng.Intn(2) == 0:
			rq.Reads = append(rq.Reads[:i:i], rq.Reads[i+1:]...)
		case i < len(rq.Reads):
			rq.Reads[i].Version.TxNum += 100
		default:
			rq.Reads = append(rq.Reads, ledger.KVRead{Key: key(), Version: ledger.Height{BlockNum: 1}})
		}
	}
	return db, rq, overlay, overlayDel
}

// The re-scan walks the index in place; it must decide every case as
// the materialising version does.
func TestRangeUnchangedMatchesMaterialisedScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	outcomes := map[bool]int{}
	for c := 0; c < 3000; c++ {
		db, rq, overlay, overlayDel := rangeCase(rng)
		want := refRangeUnchanged(db, rq, overlay, overlayDel)
		if got := rangeUnchanged(db, rq, overlay, overlayDel); got != want {
			t.Fatalf("case %d: [%q, %q) over %v with overlay %v, deleted %v, recorded %+v: got %v, want %v",
				c, rq.StartKey, rq.EndKey, db.GetRange("", ""), overlay, overlayDel, rq.Reads, got, want)
		}
		outcomes[want]++
	}
	t.Logf("unchanged %d, changed %d", outcomes[true], outcomes[false])
	if outcomes[true] < 500 || outcomes[false] < 500 {
		t.Fatalf("outcomes %v: both verdicts must be common", outcomes)
	}
}

// Re-checking a range observation allocates nothing, at endorsement
// (holdsOn, no overlay) and at validation (with a block overlay).
func TestRangeRecheckAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector allocates on its own account")
	}
	db := statedb.New(statedb.LevelDB)
	b := &statedb.UpdateBatch{}
	for i := 0; i < 16; i++ {
		b.Put(fmt.Sprintf("k%02d", i), []byte("v"), ledger.Height{BlockNum: 1, TxNum: uint64(i)})
	}
	db.ApplyUpdates(b, 1)
	stub := chaincode.NewStub(db)
	if _, err := stub.GetStateByRange("k04", "k12"); err != nil {
		t.Fatal(err)
	}
	sim := &simulation{rwset: stub.RWSet()}
	rq := &sim.rwset.RangeQueries[0]
	if len(rq.Reads) != 8 {
		t.Fatalf("recorded %d keys, want 8", len(rq.Reads))
	}
	// Writes and deletes of the block, all outside the interval.
	overlay := map[string]ledger.Height{"k01": {BlockNum: 2}, "k14": {BlockNum: 2, TxNum: 1}}
	overlayDel := map[string]bool{"k02": true}
	for _, c := range []struct {
		name  string
		check func() bool
	}{
		{"rangeUnchanged, no overlay", func() bool { return rangeUnchanged(db, rq, nil, nil) }},
		{"rangeUnchanged, block overlay", func() bool { return rangeUnchanged(db, rq, overlay, overlayDel) }},
		{"holdsOn", func() bool { return sim.holdsOn(db) }},
	} {
		if !c.check() {
			t.Fatalf("%s: the unchanged range must pass", c.name)
		}
		if n := testing.AllocsPerRun(100, func() { c.check() }); n != 0 {
			t.Errorf("%s allocates %.0f objects, want 0", c.name, n)
		}
	}
}
