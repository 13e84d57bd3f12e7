package fabric

import (
	"bytes"
	"fmt"
	"sort"
	"testing"
	"time"

	"repro/internal/chaincodes/ehr"
	"repro/internal/gen"
	"repro/internal/ledger"
	"repro/internal/metrics"
	"repro/internal/statedb"
)

// chainCodes lists every validation code that may legally appear on
// the chain (ABORTED_IN_ORDERING never reaches a block).
var chainCodes = map[ledger.ValidationCode]bool{
	ledger.Valid:                    true,
	ledger.MVCCConflictIntraBlock:   true,
	ledger.MVCCConflictInterBlock:   true,
	ledger.PhantomReadConflict:      true,
	ledger.EndorsementPolicyFailure: true,
}

// checkConservation asserts the paper's accounting identity on every
// block of every channel: valid + MVCC(intra) + MVCC(inter) + phantom +
// endorsement failures sum to the block's transaction count (no
// transaction is lost or double-counted), the versions committed to a
// channel's world state advance strictly monotonically per key, and the
// metrics peer's replica of that channel holds each key's last version.
// Summed over channels, metrics.ParseChain reads off the chains what the
// collector counted during the run: as many blocks and committed
// transactions, and as many of each on-chain code. The relation is
// equality with cross-channel transactions too: each leg is its own
// transaction on its own chain, and the collector counts it when that
// channel's block commits.
func checkConservation(t *testing.T, nw *Network, rep metrics.Report) {
	t.Helper()
	var parsed metrics.Report
	parsed.Counts = map[ledger.ValidationCode]int{}
	for ch, chain := range nw.Chains() {
		p := metrics.ParseChain(chain)
		parsed.Blocks += p.Blocks
		parsed.Committed += p.Committed
		for code, n := range p.Counts {
			parsed.Counts[code] += n
		}
		checkChannelConservation(t, nw, ch)
	}
	if parsed.Blocks != rep.Blocks || parsed.Committed != rep.Committed {
		t.Errorf("parsed %d blocks and %d committed, collector %d and %d",
			parsed.Blocks, parsed.Committed, rep.Blocks, rep.Committed)
	}
	for code := range chainCodes {
		if parsed.Counts[code] != rep.Counts[code] {
			t.Errorf("%v: parsed %d, collector %d", code, parsed.Counts[code], rep.Counts[code])
		}
	}
}

// checkChannelConservation checks one channel's chain block by block
// and against the metrics peer's replica of that channel.
func checkChannelConservation(t *testing.T, nw *Network, ch int) {
	t.Helper()
	lastWrite := map[string]ledger.Height{}
	blocks := nw.Chains()[ch].Blocks()
	if len(blocks) < 2 {
		t.Fatalf("channel %d committed no blocks", ch)
	}
	for _, b := range blocks {
		if len(b.Transactions) == 0 {
			continue // genesis
		}
		if b.Channel != ch {
			t.Fatalf("channel %d block %d: carries channel %d", ch, b.Number, b.Channel)
		}
		if len(b.ValidationCodes) != len(b.Transactions) {
			t.Fatalf("channel %d block %d: %d codes for %d transactions",
				ch, b.Number, len(b.ValidationCodes), len(b.Transactions))
		}
		perCode := map[ledger.ValidationCode]int{}
		for _, code := range b.ValidationCodes {
			if !chainCodes[code] {
				t.Fatalf("channel %d block %d: illegal on-chain code %v", ch, b.Number, code)
			}
			perCode[code]++
		}
		sum := perCode[ledger.Valid] + perCode[ledger.MVCCConflictIntraBlock] +
			perCode[ledger.MVCCConflictInterBlock] + perCode[ledger.PhantomReadConflict] +
			perCode[ledger.EndorsementPolicyFailure]
		if sum != len(b.Transactions) {
			t.Fatalf("channel %d block %d: codes sum to %d, %d transactions", ch, b.Number, sum, len(b.Transactions))
		}
		// Valid writes commit at version (block, txNum): per key, the
		// committed version sequence must be strictly increasing.
		for i, tx := range b.Transactions {
			if b.ValidationCodes[i] != ledger.Valid {
				continue
			}
			h := ledger.Height{BlockNum: b.Number, TxNum: uint64(i)}
			for _, w := range tx.RWSet.Writes {
				if prev, ok := lastWrite[w.Key]; ok && prev.Compare(h) >= 0 {
					t.Fatalf("channel %d block %d tx %d: key %q version %v does not advance past %v",
						ch, b.Number, i, w.Key, h, prev)
				}
				lastWrite[w.Key] = h
			}
		}
	}
	if len(lastWrite) == 0 {
		t.Fatalf("channel %d: no valid write ever committed", ch)
	}
	// The metrics peer's replica must agree with the chain's final
	// version for keys that still exist (later deletes remove them).
	db := nw.metricsPeer().dbs[ch]
	checked := 0
	for key, h := range lastWrite {
		vv := db.Get(key)
		if vv == nil {
			continue // deleted after its last write
		}
		if vv.Version != h {
			t.Fatalf("channel %d key %q: replica version %v, chain says %v", ch, key, vv.Version, h)
		}
		checked++
	}
	if checked == 0 {
		t.Fatalf("channel %d: replica holds none of the chain's written keys", ch)
	}
}

// TestConservationInvariant checks the accounting identity on a
// contended fire-and-forget run.
func TestConservationInvariant(t *testing.T) {
	cfg := testConfig(11)
	cfg.StripAfterCommit = false // keep rwsets for the walk
	nw, rep := run(t, cfg)
	checkConservation(t, nw, rep)
}

// TestConservationInvariantWithRetries checks the same identity with
// the retry subsystem active: resubmissions are new transactions and
// must obey exactly the same per-block accounting.
func TestConservationInvariantWithRetries(t *testing.T) {
	cfg := retryConfig(12, ImmediateRetry{MaxAttempts: 3})
	cfg.StripAfterCommit = false
	nw, rep := run(t, cfg)
	if rep.RetryAmplification <= 1 {
		t.Fatalf("amplification %.2f: retries did not engage", rep.RetryAmplification)
	}
	checkConservation(t, nw, rep)
}

// TestConservationInvariantLevelDB repeats the walk on the LevelDB
// backend.
func TestConservationInvariantLevelDB(t *testing.T) {
	cfg := testConfig(13)
	cfg.DBKind = statedb.LevelDB
	cfg.StripAfterCommit = false
	nw, rep := run(t, cfg)
	checkConservation(t, nw, rep)
}

// TestConservationInvariantAcrossChannels walks every channel of a
// short run of the million-sharded shape: 10^6 clients in cohorts of
// 10,000 over 4 channels with 10% cross-channel transactions at 200 tps.
func TestConservationInvariantAcrossChannels(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 15
	cfg.Duration = 10 * time.Second
	cfg.StripAfterCommit = false
	cfg.Chaincode = ehr.New()
	cfg.Workload = ehr.NewWorkload(2)
	cfg.Rate = 200
	cfg.Clients = 1_000_000
	cfg.CohortSize = 10_000
	cfg.Channels = 4
	cfg.CrossChannel = 0.1
	nw, rep := run(t, cfg)
	checkConservation(t, nw, rep)
}

// TestConservationInvariantWithGossip runs the per-block conservation
// walk with the gossip signal live at several fanouts: gossip may
// only move *when* transactions are resubmitted, never what the
// validator decides about them — the accounting identity and the
// per-key version monotonicity must hold untouched at any mesh width.
func TestConservationInvariantWithGossip(t *testing.T) {
	for _, fanout := range []int{1, 2, 4} {
		cfg := retryConfig(14, ImmediateRetry{MaxAttempts: 3})
		cfg.StripAfterCommit = false
		cfg.OrdererCosts.PerTx = 25 * time.Millisecond // congest so the signal matters
		cfg.Backpressure = &Backpressure{}
		cfg.Gossip = &Gossip{Fanout: fanout}
		cfg.HintSource = HintGossip
		nw, rep := run(t, cfg)
		if rep.GossipMessages == 0 {
			t.Fatalf("fanout %d: gossip never engaged", fanout)
		}
		checkConservation(t, nw, rep)
	}
}

// snapshotGenesis scans every channel's world state off the first
// peer before the run, for checkReplicas to fold the chain onto.
func snapshotGenesis(nw *Network) [][]statedb.KV {
	out := make([][]statedb.KV, len(nw.chains))
	for ch := range out {
		out[ch] = nw.peers[0].dbs[ch].GetRange("", "")
	}
	return out
}

// checkReplicas is the replay-equivalence oracle. Per channel it folds
// the valid writes of the chain, in commit order, onto a copy of the
// genesis state, and holds every replica — each peer's and the
// validator's — to that fold: its savepoint must equal its height (the
// blocks validated, less those the peer has yet to commit), and a scan
// of it must yield the fold at that height, key by key, version and
// value bytes alike. Writes survive StripAfterCommit, so any run can be
// checked. The fold lives in a map, not in a statedb, so a broken index
// cannot agree with itself.
func checkReplicas(t *testing.T, nw *Network, genesis [][]statedb.KV) {
	t.Helper()
	type replica struct {
		name   string
		db     statedb.VersionedDB
		height uint64
	}
	for ch, chain := range nw.chains {
		validated := nw.vals[ch].next
		replicas := []replica{{"validator", nw.vals[ch].db, validated}}
		for _, p := range nw.peers {
			queued := uint64(0)
			for _, q := range [][]*ledger.Block{p.inflight, p.backlog} {
				for _, b := range q {
					if b.Channel == ch {
						queued++
					}
				}
			}
			replicas = append(replicas, replica{p.name, p.dbs[ch], validated - queued})
		}
		sort.SliceStable(replicas, func(i, j int) bool { return replicas[i].height < replicas[j].height })

		fold := map[string]statedb.KV{}
		for _, kv := range genesis[ch] {
			fold[kv.Key] = kv
		}
		blocks, folded := chain.Blocks(), uint64(0)
		for _, r := range replicas {
			if sp := r.db.Savepoint(); sp != r.height {
				t.Errorf("%s, channel %d: savepoint %d, height %d", r.name, ch, sp, r.height)
			}
			if r.height >= uint64(len(blocks)) {
				t.Errorf("%s, channel %d: height %d is beyond the chain's %d blocks", r.name, ch, r.height, len(blocks)-1)
				continue
			}
			for ; folded < r.height; folded++ {
				foldBlock(fold, blocks[folded+1])
			}
			if err := sameState(r.db.GetRange("", ""), fold); err != nil {
				t.Errorf("%s, channel %d, height %d: %v", r.name, ch, r.height, err)
			}
		}
	}
}

// foldBlock applies the valid writes of b to state at their commit
// versions.
func foldBlock(state map[string]statedb.KV, b *ledger.Block) {
	for i, tx := range b.Transactions {
		if b.ValidationCodes[i] != ledger.Valid {
			continue
		}
		for _, w := range tx.RWSet.Writes {
			if w.IsDelete {
				delete(state, w.Key)
				continue
			}
			state[w.Key] = statedb.KV{Key: w.Key, Value: w.Value,
				Version: ledger.Height{BlockNum: b.Number, TxNum: uint64(i)}}
		}
	}
}

// sameState compares a replica's full scan with the fold and names the
// first key on which they differ.
func sameState(scan []statedb.KV, fold map[string]statedb.KV) error {
	keys := make([]string, 0, len(fold))
	for k := range fold {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for i := 0; i < len(scan) || i < len(keys); i++ {
		switch {
		case i == len(scan) || (i < len(keys) && keys[i] < scan[i].Key):
			return fmt.Errorf("key %q at %v is missing from the replica", keys[i], fold[keys[i]].Version)
		case i == len(keys) || scan[i].Key < keys[i]:
			return fmt.Errorf("key %q at %v is on the replica, not in the chain's fold", scan[i].Key, scan[i].Version)
		case i > 0 && scan[i-1].Key >= scan[i].Key:
			return fmt.Errorf("key %q follows %q in the replica's scan", scan[i].Key, scan[i-1].Key)
		}
		if want := fold[keys[i]]; scan[i].Version != want.Version || !bytes.Equal(scan[i].Value, want.Value) {
			return fmt.Errorf("key %q: replica holds %s at %v, the fold %s at %v",
				keys[i], scan[i].Value, scan[i].Version, want.Value, want.Version)
		}
	}
	return nil
}

// runChecked runs cfg and checks every replica against the chain.
func runChecked(t *testing.T, cfg Config) (*Network, metrics.Report) {
	t.Helper()
	nw, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	genesis := snapshotGenesis(nw)
	rep := nw.Run()
	if rep.Valid == 0 {
		t.Fatal("no valid transaction: the run wrote nothing to check")
	}
	checkReplicas(t, nw, genesis)
	return nw, rep
}

// genChainConfig runs genChain over 2,000 keys: small enough that its
// inserts split index nodes and its deletes (which walk up from the
// first key) merge them within one run.
func genChainConfig(seed int64, mix gen.Mix) Config {
	spec := gen.GenChainSpec()
	spec.Keys = 2000
	cfg := testConfig(seed)
	cfg.Chaincode = gen.MustChaincode(spec)
	cfg.Workload = gen.NewWorkload(spec, mix, 0)
	return cfg
}

// TestReplicasConvergeGenChain holds every replica to the chain's fold
// under genChain's update-, insert- and range-heavy mixes.
func TestReplicasConvergeGenChain(t *testing.T) {
	for _, c := range []struct {
		name string
		mix  gen.Mix
	}{{"UpdateHeavy", gen.UpdateHeavy}, {"InsertHeavy", gen.InsertHeavy}, {"RangeHeavy", gen.RangeHeavy}} {
		c := c
		t.Run(c.name, func(t *testing.T) { runChecked(t, genChainConfig(31, c.mix)) })
	}
}

// TestReplicasConvergeAcrossChannels checks every channel's replicas on
// a sharded EHR run with cross-channel transactions.
func TestReplicasConvergeAcrossChannels(t *testing.T) {
	cfg := testConfig(32)
	cfg.Chaincode = ehr.New()
	cfg.Channels = 4
	cfg.CrossChannel = 0.1
	runChecked(t, cfg)
}

// TestReplicasConvergeAfterPeerCrash checks the replica a crashed peer
// rebuilt by replaying the blocks it missed.
func TestReplicasConvergeAfterPeerCrash(t *testing.T) {
	cfg := faultConfig(4, &Faults{
		Events:         []FaultEvent{{Kind: FaultCrashPeer, At: 5 * time.Second, For: 5 * time.Second, Target: 3}},
		EndorseTimeout: time.Second,
	})
	_, rep := runChecked(t, cfg)
	if rep.Recovery.N != 1 {
		t.Errorf("%d recoveries, want the crashed peer to replay the blocks it missed", rep.Recovery.N)
	}
}

// controlPlaneConfig is the ehr-controlplane shape: LevelDB, 200
// closed-loop clients, every client control on, gossip fanout 3 every
// 200 ms.
func controlPlaneConfig(seed int64) Config {
	cfg := testConfig(seed)
	cfg.DBKind = statedb.LevelDB
	cfg.ClosedLoop = true
	cfg.Clients = 200
	cfg.InFlightPerClient = 1
	cfg.ThinkTime = ThinkTime{Kind: ThinkExponential, Mean: time.Second}
	cfg.Retry = GiveUpAfter(BackpressurePolicy{}, 5)
	cfg.Backpressure = &Backpressure{}
	cfg.Gossip = &Gossip{Fanout: 3, Period: 200 * time.Millisecond}
	cfg.HintSource = HintBoth
	cfg.SplitSignal = &SplitSignal{}
	cfg.RetryBudget = &RetryBudget{RefillPerSec: 1, Burst: 3, Adaptive: true}
	return cfg
}

// TestControlPlaneRunChecked holds a run of the ehr-controlplane shape
// to the replica fold, the per-block accounting and the chain parse:
// the regime where gossip peer sampling draws most of the engine's
// random stream.
func TestControlPlaneRunChecked(t *testing.T) {
	cfg := controlPlaneConfig(33)
	cfg.StripAfterCommit = false
	nw, rep := runChecked(t, cfg)
	if rep.GossipMessages == 0 {
		t.Fatal("gossip never engaged")
	}
	if rep.RetryAmplification <= 1 {
		t.Fatalf("amplification %.2f: retries did not engage", rep.RetryAmplification)
	}
	checkConservation(t, nw, rep)
}

// hintModes enumerates every retry/coordination mode the lab
// supports — client-local, budgeted, orderer-hinted, gossip-hinted,
// combined, and closed-loop pacing — for the hint-range invariant.
func hintModes() []struct {
	name string
	cfg  func(seed int64) Config
} {
	congest := func(cfg Config) Config {
		cfg.OrdererCosts.PerTx = 25 * time.Millisecond
		return cfg
	}
	return []struct {
		name string
		cfg  func(seed int64) Config
	}{
		{"fire-and-forget", func(s int64) Config { return testConfig(s) }},
		{"immediate", func(s int64) Config { return retryConfig(s, ImmediateRetry{MaxAttempts: 3}) }},
		{"backoff", func(s int64) Config {
			return retryConfig(s, ExponentialBackoff{Initial: 100 * time.Millisecond, Cap: time.Second, MaxAttempts: 4, Jitter: 0.2})
		}},
		{"adaptive", func(s int64) Config { return retryConfig(s, AdaptivePolicy{MaxAttempts: 5, Jitter: 0.2}) }},
		{"budgeted", func(s int64) Config {
			cfg := retryConfig(s, ImmediateRetry{MaxAttempts: 5})
			cfg.RetryBudget = &RetryBudget{RefillPerSec: 1, Burst: 3, DropOnEmpty: true}
			return cfg
		}},
		{"hinted-orderer", func(s int64) Config {
			cfg := congest(retryConfig(s, BackpressurePolicy{MaxAttempts: 5, Jitter: 0.2}))
			cfg.Backpressure = &Backpressure{}
			return cfg
		}},
		{"hinted-gossip", func(s int64) Config {
			cfg := congest(retryConfig(s, BackpressurePolicy{MaxAttempts: 5, Jitter: 0.2}))
			cfg.Backpressure = &Backpressure{}
			cfg.Gossip = &Gossip{}
			cfg.HintSource = HintGossip
			return cfg
		}},
		{"hinted-both", func(s int64) Config {
			cfg := congest(retryConfig(s, BackpressurePolicy{MaxAttempts: 5, Jitter: 0.2}))
			cfg.Backpressure = &Backpressure{}
			cfg.Gossip = &Gossip{}
			cfg.HintSource = HintBoth
			return cfg
		}},
		{"closedloop-paced-gossip", func(s int64) Config {
			cfg := congest(testConfig(s))
			cfg.ClosedLoop = true
			cfg.InFlightPerClient = 8
			cfg.Backpressure = &Backpressure{}
			cfg.Gossip = &Gossip{}
			cfg.HintSource = HintGossip
			return cfg
		}},
		{"split-gossip", func(s int64) Config {
			cfg := congest(retryConfig(s, BackpressurePolicy{MaxAttempts: 5, Jitter: 0.2}))
			cfg.Backpressure = &Backpressure{}
			cfg.Gossip = &Gossip{}
			cfg.HintSource = HintGossip
			cfg.SplitSignal = &SplitSignal{}
			return cfg
		}},
		{"split-both", func(s int64) Config {
			cfg := congest(retryConfig(s, BackpressurePolicy{MaxAttempts: 5, Jitter: 0.2}))
			cfg.Backpressure = &Backpressure{}
			cfg.Gossip = &Gossip{}
			cfg.HintSource = HintBoth
			cfg.SplitSignal = &SplitSignal{}
			return cfg
		}},
		{"split-adaptive-orderer", func(s int64) Config {
			cfg := congest(retryConfig(s, AdaptivePolicy{MaxAttempts: 5}))
			cfg.Backpressure = &Backpressure{}
			cfg.Gossip = &Gossip{}
			cfg.HintSource = HintOrderer
			cfg.SplitSignal = &SplitSignal{}
			return cfg
		}},
	}
}

// checkHintRange asserts the shared-signal invariants on one report:
// every hint/estimate trajectory stays inside [0,1], no single pacing
// pause exceeds maxPause, and subsystems that are off
// leave exactly zero traces in the metrics.
func checkHintRange(t *testing.T, name string, cfg Config, rep metrics.Report) {
	t.Helper()
	inUnit := func(label string, v float64) {
		if v < 0 || v > 1 {
			t.Errorf("%s: %s = %g outside [0,1]", name, label, v)
		}
	}
	inUnit("hint avg", rep.Hint.Avg())
	inUnit("hint max", rep.Hint.Max)
	inUnit("hint final", rep.Hint.Last)
	inUnit("gossip est avg", rep.GossipEstimate.Avg())
	inUnit("gossip est max", rep.GossipEstimate.Max)
	inUnit("gossip est final", rep.GossipEstimate.Last)
	inUnit("conflict est avg", rep.ConflictEst.Avg())
	inUnit("conflict est max", rep.ConflictEst.Max)
	inUnit("conflict est final", rep.ConflictEst.Last)
	inUnit("congestion est avg", rep.CongestEst.Avg())
	inUnit("congestion est max", rep.CongestEst.Max)
	inUnit("congestion est final", rep.CongestEst.Last)
	if rep.Hint.Avg() > rep.Hint.Max || rep.GossipEstimate.Avg() > rep.GossipEstimate.Max {
		t.Errorf("%s: trajectory average above its max", name)
	}
	if rep.ConflictEst.Avg() > rep.ConflictEst.Max || rep.CongestEst.Avg() > rep.CongestEst.Max {
		t.Errorf("%s: split trajectory average above its max", name)
	}
	if cfg.SplitSignal == nil && (rep.ConflictEst.N != 0 || rep.CongestEst.N != 0) {
		t.Errorf("%s: split signal off but component trajectories non-zero: %+v", name, rep)
	}

	if cfg.Backpressure != nil {
		if rep.Paced.Max > maxPause {
			t.Errorf("%s: single pace %v exceeds maxPause %v", name, rep.Paced.Max, maxPause)
		}
	} else if rep.PacedSubmissions != 0 || rep.Paced.Sum != 0 || rep.Paced.Max != 0 {
		t.Errorf("%s: no pacer configured but paced=%d time=%v max=%v",
			name, rep.PacedSubmissions, rep.Paced.Sum, rep.Paced.Max)
	}
	ordererOn := cfg.Backpressure != nil && cfg.HintSource.usesOrderer()
	if !ordererOn && rep.Hint.N != 0 {
		t.Errorf("%s: orderer hints off but trajectory non-zero: %+v", name, rep)
	}
	if cfg.Gossip == nil && (rep.GossipMessages != 0 || rep.GossipMerges != 0 ||
		rep.GossipStaleness.N != 0 || rep.GossipEstimate.Max != 0 || rep.GossipStaleness.Max != 0) {
		t.Errorf("%s: gossip off but metrics non-zero: %+v", name, rep)
	}
	if rep.GossipStaleness.Avg() > rep.GossipStaleness.Max || rep.GossipStaleness.Max < 0 {
		t.Errorf("%s: staleness avg %v / max %v inconsistent",
			name, rep.GossipStaleness.Avg(), rep.GossipStaleness.Max)
	}
}

// TestHintRangeInvariantAcrossModes runs every retry/coordination
// mode — gossip modes included — and checks the hint-range property:
// whatever the configuration, observed hints and estimates stay in
// [0,1], pacing pauses respect maxPause, and disabled subsystems
// report exactly zero.
func TestHintRangeInvariantAcrossModes(t *testing.T) {
	for _, mode := range hintModes() {
		mode := mode
		t.Run(mode.name, func(t *testing.T) {
			cfg := mode.cfg(21)
			_, rep := run(t, cfg)
			checkHintRange(t, mode.name, cfg, rep)
		})
	}
}
