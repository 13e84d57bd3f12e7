package fabric

import (
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/chaincodes/ehr"
	"repro/internal/gen"
	"repro/internal/ledger"
	"repro/internal/policy"
)

// TestEndorsementRotationSpreadsLoad verifies that clients rotate
// across the peers of each endorsing org, so endorsement load is
// balanced like a round-robin SDK.
func TestEndorsementRotationSpreadsLoad(t *testing.T) {
	cfg := testConfig(60)
	cfg.PeersPerOrg = 2
	cfg.Duration = 10 * time.Second
	nw, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	nw.Run()
	// Every peer's endorser pool must have been used: its slots moved
	// past zero.
	for _, p := range nw.Peers() {
		used := false
		for _, s := range p.endorserSlots {
			if s > 0 {
				used = true
			}
		}
		if !used {
			t.Errorf("peer %s never endorsed", p.Name())
		}
	}
}

// TestP1OnlySubsetEndorses verifies that under P1 only Org0 plus one
// other org endorse each transaction, so endorsement spread follows
// the policy.
func TestP1OnlySubsetEndorses(t *testing.T) {
	cfg := testConfig(61)
	cfg.Orgs = 4
	cfg.PeersPerOrg = 1
	cfg.Policy = policy.P1
	cfg.Duration = 10 * time.Second
	nw, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := nw.Run()
	if rep.Valid == 0 {
		t.Fatal("no valid transactions under P1")
	}
	// Under P1, every tx carries exactly 2 endorsements. Check via
	// chain (unstripped txs would be needed; instead check valid
	// share is high — VSCC would reject wrong sets).
	if rep.FailurePct > 60 {
		t.Fatalf("P1 run mostly failing: %v", rep)
	}
}

// TestClientCheckDropsMismatches ensures that with the optional §2
// step-3 check enabled, endorsement mismatches become early aborts
// instead of on-chain endorsement failures.
func TestClientCheckDropsMismatches(t *testing.T) {
	base := testConfig(62)
	base.Duration = 40 * time.Second
	nwA, err := NewNetwork(base)
	if err != nil {
		t.Fatal(err)
	}
	repA := nwA.Run()

	checked := testConfig(62)
	checked.Duration = 40 * time.Second
	checked.ClientCheck = true
	nwB, err := NewNetwork(checked)
	if err != nil {
		t.Fatal(err)
	}
	repB := nwB.Run()

	if repA.Counts[ledger.EndorsementPolicyFailure] == 0 {
		t.Skip("no endorsement mismatches in this window")
	}
	if repB.Counts[ledger.AbortedInOrdering] == 0 {
		t.Errorf("client check produced no early aborts: %v", repB)
	}
	// With the check on, on-chain endorsement failures shrink (only
	// signature/policy problems remain, and we inject none).
	if repB.Counts[ledger.EndorsementPolicyFailure] >= repA.Counts[ledger.EndorsementPolicyFailure] {
		t.Errorf("client check did not reduce on-chain endorsement failures: %d vs %d",
			repB.Counts[ledger.EndorsementPolicyFailure], repA.Counts[ledger.EndorsementPolicyFailure])
	}
}

// raceDetector is set by race_test.go, which only -race builds.
var raceDetector bool

// TestDefaultRunAllocsPerTransaction pins what the paper's default run
// (EHR, CouchDB, open loop 100 tps) allocates per simulated transaction.
// Per endorser nothing is left: the Endorsement, whose signature and
// digest live in the same object, comes off the network's free list and
// goes back at the metrics peer's commit; the request, queued-worker
// start, answer and reply hops wait in the network's queues (sim.Queue)
// as values, the leg is the replier every endorser answers, and VSCC
// verifies the carried digest into the identity's scratch. Per leg: the
// transaction, its id and the endorsement slice; the first leg lives in
// its job, recycled through a free list too, and the invocation's
// arguments are one more object. Per simulation, on the network's one
// stub: the rwset and its exact-length read and write sets. A write
// stores one document and a grant or revoke copies one exact-length
// access list. The pipeline's messages wait in their receivers' queues
// too, and a block's outcome holds its update batch: 9.40 objects per
// transaction, 12.30 with a job and two endorsements made per
// transaction, 18.30 with a closure per endorsement hop, 21.40 with a
// closure per message and a separate batch, 25.3 with a stub, a
// simulation and a leg allocated per use and sets grown by append.
func TestDefaultRunAllocsPerTransaction(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Duration = 30 * time.Second
	cfg.Chaincode = ehr.New()
	cfg.Workload = ehr.NewWorkload(1)
	checkAllocsPerTx(t, cfg, 9.9)
}

// TestControlPlaneAllocsPerTransaction pins the ehr-controlplane shape,
// where gossip sends about 32 messages per simulated transaction: each
// is a recycled gossipMsg, so the gossip path adds no object per
// message (a closure per message made it 60 objects per transaction).
// Outcome events, retry and think timers and the endorsement hops wait
// in the network's queues like the pipeline's messages, and jobs and
// endorsements are recycled (see the default run): 9.64 objects per
// transaction, 12.51 with a job and two endorsements made per
// transaction, 19.84 with a closure per endorsement hop and client
// timer, 23.89 with a closure per message, 27.6 before the endorsement
// path reused its stub, simulation and first leg.
func TestControlPlaneAllocsPerTransaction(t *testing.T) {
	cfg := controlPlaneConfig(33)
	cfg.Duration = 30 * time.Second
	checkAllocsPerTx(t, cfg, 10.1)
}

// TestRangeHeavyAllocsPerTransaction pins the genchain-range shape:
// genChain's range-heavy mix over 100,000 keys. A range transaction
// keeps one slice of observations; the second endorser's memo check and
// the validator's phantom re-scan walk the index in place, genChain
// formats and parses its arguments without fmt, and it reads its key
// names from a table and shares its update values. Messages wait in
// their receivers' queues and jobs and endorsements are recycled (see
// the default run): 9.04 objects per transaction, 11.93 with a job and
// two endorsements made per transaction, 18.55 with a closure per
// endorsement hop, 21.65 with a closure per message, 23.73 when genChain
// formatted each key name and value, 26.8 before the endorsement path
// reused its stub, simulation and first leg, 41.4 when all three
// allocated.
func TestRangeHeavyAllocsPerTransaction(t *testing.T) {
	spec := gen.GenChainSpec()
	cfg := DefaultConfig()
	cfg.Duration = 30 * time.Second
	cfg.Chaincode = gen.MustChaincode(spec)
	cfg.Workload = gen.NewWorkload(spec, gen.RangeHeavy, 1)
	checkAllocsPerTx(t, cfg, 9.5)
}

// TestOneTxBlockAllocsPerTransaction pins Streamchain's shape (one
// transaction per block, a 1 ms cut timer, its committer and cutter
// costs) on genChain's update-heavy mix, where every per-block cost is
// paid once per transaction. The cut timer, the ready event, the four
// deliveries, the four commits and the endorsement hops wait in their
// receivers' queues instead of taking a closure each, the block's
// outcome holds its update batch, and jobs and endorsements are
// recycled: 13.73 objects per transaction, 16.70 with a job and two
// endorsements made per transaction, 22.70 with a closure per
// endorsement hop, 35.68 with a closure per message.
func TestOneTxBlockAllocsPerTransaction(t *testing.T) {
	spec := gen.GenChainSpec()
	cfg := DefaultConfig()
	cfg.Duration = 30 * time.Second
	cfg.Chaincode = gen.MustChaincode(spec)
	cfg.Workload = gen.NewWorkload(spec, gen.UpdateHeavy, 1)
	cfg.BlockSize = 1
	cfg.BlockTimeout = time.Millisecond
	cfg.PeerCosts.BlockBase = 2500 * time.Microsecond
	cfg.OrdererCosts.BlockCut = 300 * time.Microsecond
	checkAllocsPerTx(t, cfg, 14.2)
}

// TestGenesisAllocsPerKey pins what NewNetwork allocates to build a
// 10,000-key genChain genesis state and fan it out to five replicas:
// Init shares its 97 values, names its keys from the chaincode's key
// table and writes them in ascending order into a write set sized once,
// so the write set needs no map, and the state is loaded into one array
// of entries and an index built bottom-up. 0.11 objects per key; 1.11
// when Init formatted each key name and regrew its write set, 4.8 when
// the state was a batch inserted key by key.
func TestGenesisAllocsPerKey(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector allocates on its own account")
	}
	spec := gen.GenChainSpec()
	spec.Keys = 10000
	cfg := DefaultConfig()
	cfg.Chaincode = gen.MustChaincode(spec)
	cfg.Workload = gen.NewWorkload(spec, gen.RangeHeavy, 1)
	perKey := testing.AllocsPerRun(5, func() {
		if _, err := NewNetwork(cfg); err != nil {
			t.Fatal(err)
		}
	}) / float64(spec.Keys)
	t.Logf("%.2f objects per genesis key", perKey)
	if perKey > 0.15 {
		t.Errorf("NewNetwork allocates %.2f objects per genesis key, want at most 0.15", perKey)
	}
}

// TestPeerReplicaAllocs pins what one more peer adds to NewNetwork: a
// view of the channel's world state, not a copy of its 10k-key index.
// The least of three builds counts, at 2 and at 8 peers per org.
func TestPeerReplicaAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector allocates on its own account")
	}
	spec := gen.GenChainSpec()
	spec.Keys = 10000
	build := func(peersPerOrg int) (bytes uint64, peers int) {
		cfg := DefaultConfig()
		cfg.Chaincode = gen.MustChaincode(spec)
		cfg.Workload = gen.NewWorkload(spec, gen.RangeHeavy, 1)
		cfg.PeersPerOrg = peersPerOrg
		bytes = math.MaxUint64
		for i := 0; i < 3; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			nw, err := NewNetwork(cfg)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			bytes, peers = min(bytes, after.TotalAlloc-before.TotalAlloc), len(nw.peers)
		}
		return bytes, peers
	}
	few, m := build(2)
	many, n := build(8)
	perPeer := (float64(many) - float64(few)) / float64(n-m)
	t.Logf("%.0f bytes per added peer (%d B at %d peers, %d B at %d)", perPeer, few, m, many, n)
	if perPeer > 4096 {
		t.Errorf("NewNetwork allocates %.0f bytes per added peer, want at most 4096", perPeer)
	}
}

// checkAllocsPerTx runs cfg and fails if it allocates more than limit
// objects per simulated transaction.
func checkAllocsPerTx(t *testing.T, cfg Config, limit float64) {
	t.Helper()
	if raceDetector {
		t.Skip("the race detector allocates on its own account")
	}
	nw, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep := nw.Run()
	runtime.ReadMemStats(&after)
	got := float64(after.Mallocs-before.Mallocs) / float64(rep.Total)
	if got > limit {
		t.Errorf("%.1f objects per simulated transaction over %d transactions, want <= %g", got, rep.Total, limit)
	}
	t.Logf("%.2f objects per simulated transaction over %d transactions", got, rep.Total)
}
