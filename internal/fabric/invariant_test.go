package fabric

import (
	"bytes"
	"fmt"
	"sort"
	"testing"
	"time"

	"repro/internal/chaincode"
	"repro/internal/gen"
	"repro/internal/ledger"
	"repro/internal/metrics"
	"repro/internal/statedb"
)

// checkRun applies every run oracle to a finished network whose run
// kept its read/write sets (StripAfterCommit off) and returns the first
// violation, naming the channel, the block or height, and the peer:
// every channel's hash chain verifies, the accounting identity holds
// per block and per channel (checkConservation), every replica equals
// the chain's fold at its own height (checkReplicas), every document a
// replica holds still encodes to its entry's bytes (checkDocuments),
// and the shared signals stay in range and leave no trace when off
// (checkHintRange).
// genesis is snapshotGenesis of the network before it ran.
func checkRun(nw *Network, rep metrics.Report, genesis [][]statedb.KV) error {
	for ch, chain := range nw.chains {
		if err := chain.Verify(); err != nil {
			return fmt.Errorf("channel %d: %w", ch, err)
		}
	}
	if err := checkConservation(nw); err != nil {
		return err
	}
	if err := checkReplicas(nw, genesis); err != nil {
		return err
	}
	if err := checkDocuments(nw); err != nil {
		return err
	}
	return checkHintRange(nw.ctl, rep)
}

// chainCodes lists every validation code that may legally appear on
// the chain (ABORTED_IN_ORDERING never reaches a block).
var chainCodes = map[ledger.ValidationCode]bool{
	ledger.Valid:                    true,
	ledger.MVCCConflictIntraBlock:   true,
	ledger.MVCCConflictInterBlock:   true,
	ledger.PhantomReadConflict:      true,
	ledger.EndorsementPolicyFailure: true,
}

// checkConservation checks the paper's accounting identity on every
// block of every channel: valid + MVCC(intra) + MVCC(inter) + phantom +
// endorsement failures sum to the block's transaction count (no
// transaction is lost or double-counted), the versions committed to a
// channel's world state advance strictly monotonically per key, and the
// metrics peer's replica of that channel holds each key's last version.
func checkConservation(nw *Network) error {
	for ch := range nw.chains {
		if err := checkChannelConservation(nw, ch); err != nil {
			return err
		}
	}
	return nil
}

// checkChannelConservation checks one channel's chain block by block
// and against the metrics peer's replica of that channel.
func checkChannelConservation(nw *Network, ch int) error {
	lastWrite := map[string]ledger.Height{}
	blocks := nw.chains[ch].Blocks()
	if len(blocks) < 2 {
		return fmt.Errorf("channel %d committed no blocks", ch)
	}
	for _, b := range blocks[1:] {
		if b.Channel != ch {
			return fmt.Errorf("channel %d block %d: carries channel %d", ch, b.Number, b.Channel)
		}
		if len(b.ValidationCodes) != len(b.Transactions) {
			return fmt.Errorf("channel %d block %d: %d codes for %d transactions",
				ch, b.Number, len(b.ValidationCodes), len(b.Transactions))
		}
		perCode := map[ledger.ValidationCode]int{}
		for _, code := range b.ValidationCodes {
			if !chainCodes[code] {
				return fmt.Errorf("channel %d block %d: illegal on-chain code %v", ch, b.Number, code)
			}
			perCode[code]++
		}
		sum := perCode[ledger.Valid] + perCode[ledger.MVCCConflictIntraBlock] +
			perCode[ledger.MVCCConflictInterBlock] + perCode[ledger.PhantomReadConflict] +
			perCode[ledger.EndorsementPolicyFailure]
		if sum != len(b.Transactions) {
			return fmt.Errorf("channel %d block %d: codes sum to %d, %d transactions", ch, b.Number, sum, len(b.Transactions))
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
					return fmt.Errorf("channel %d block %d tx %d: key %q version %v does not advance past %v",
						ch, b.Number, i, w.Key, h, prev)
				}
				lastWrite[w.Key] = h
			}
		}
	}
	if len(lastWrite) == 0 {
		return fmt.Errorf("channel %d: no valid write ever committed", ch)
	}
	// The metrics peer's replica must agree with the chain's final
	// version for keys that still exist (later deletes remove them).
	mp := nw.metricsPeer()
	checked := 0
	for key, h := range lastWrite {
		vv := mp.dbs[ch].Get(key)
		if vv == nil {
			continue // deleted after its last write
		}
		if vv.Version != h {
			return fmt.Errorf("%s, channel %d, key %q: replica version %v, the chain says %v", mp.name, ch, key, vv.Version, h)
		}
		checked++
	}
	if checked == 0 {
		return fmt.Errorf("%s, channel %d: replica holds none of the chain's written keys", mp.name, ch)
	}
	return nil
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
// genesis state, and holds every peer's replica to that fold at the
// replica's own savepoint, key by key, version and value bytes alike.
// A peer's savepoint plus the blocks delivered to it and not yet
// committed may not pass the blocks validated: the rest of the gap is
// blocks still in the ordering service's delivery pipeline when the
// run ends. The metrics peer writes the chain, so its savepoint is the
// chain's height. The validator's replica runs ahead of every peer; see
// checkValidatorTail. Writes survive StripAfterCommit, so any run can
// be checked. The fold lives in a map, not in a statedb, so a broken
// index cannot agree with itself.
func checkReplicas(nw *Network, genesis [][]statedb.KV) error {
	for ch, chain := range nw.chains {
		val := nw.vals[ch]
		blocks := chain.Blocks()
		if sp, height := nw.metricsPeer().dbs[ch].Savepoint(), uint64(len(blocks)-1); sp != height {
			return fmt.Errorf("%s, channel %d: savepoint %d, but it wrote a chain of %d blocks", nw.metricsPeer().name, ch, sp, height)
		}
		peers := append([]*Peer(nil), nw.peers...)
		sort.SliceStable(peers, func(i, j int) bool { return peers[i].dbs[ch].Savepoint() < peers[j].dbs[ch].Savepoint() })

		fold := map[string]statedb.KV{}
		for _, kv := range genesis[ch] {
			fold[kv.Key] = kv
		}
		folded := uint64(0)
		for _, p := range peers {
			sp := p.dbs[ch].Savepoint()
			if q := queuedBlocks(p, ch); sp+q > val.next {
				return fmt.Errorf("%s, channel %d: savepoint %d and %d queued blocks pass the %d blocks validated", p.name, ch, sp, q, val.next)
			}
			if sp >= uint64(len(blocks)) {
				return fmt.Errorf("%s, channel %d: savepoint %d is beyond the chain's %d blocks", p.name, ch, sp, len(blocks)-1)
			}
			for ; folded < sp; folded++ {
				foldBlock(fold, blocks[folded+1])
			}
			if err := sameState(p.dbs[ch].GetRange("", ""), fold); err != nil {
				return fmt.Errorf("%s, channel %d, height %d: %v", p.name, ch, sp, err)
			}
		}
		if err := checkValidatorTail(val, peers, ch); err != nil {
			return err
		}
	}
	return nil
}

// queuedBlocks counts the blocks of channel ch delivered to p and not
// yet committed: in its commit pipeline, or missed while it was down.
func queuedBlocks(p *Peer, ch int) uint64 {
	n := uint64(0)
	for _, f := range p.inflight {
		if f.b.Channel == ch {
			n++
		}
	}
	for _, b := range p.backlog {
		if b.Channel == ch {
			n++
		}
	}
	return n
}

// checkValidatorTail checks the validator's replica, which leads the
// chain by the blocks validated at cut time that some peer has yet to
// commit. Its memo must hold exactly those blocks, each waiting on the
// peers below it; and the replica must equal a clone of the most
// advanced peer's replica (peers is sorted by savepoint, and checkReplicas
// has held every one of them to the chain's fold) with the memoised
// batches of the blocks that peer has not committed applied in order.
// Past the chain nothing independent is left to compare with: a wrong
// verdict or write in a tail batch passes here, and is caught once a
// peer commits the block and the fold reaches it.
func checkValidatorTail(val *validator, peers []*Peer, ch int) error {
	if sp := val.db.Savepoint(); sp != val.next {
		return fmt.Errorf("validator, channel %d: savepoint %d, %d blocks validated", ch, sp, val.next)
	}
	low, lead := peers[0].dbs[ch].Savepoint(), peers[len(peers)-1]
	if want := val.next - low; uint64(len(val.memo)) != want {
		return fmt.Errorf("validator, channel %d: memo holds %d outcomes, want the %d past %s's savepoint %d",
			ch, len(val.memo), want, peers[0].name, low)
	}
	for n, r := range val.memo {
		behind := 0
		for _, p := range peers {
			if p.dbs[ch].Savepoint() < n {
				behind++
			}
		}
		if r.pending != behind {
			return fmt.Errorf("validator, channel %d, block %d: outcome waits on %d peers, %d have not committed it", ch, n, r.pending, behind)
		}
	}
	sp := lead.dbs[ch].Savepoint()
	tail := lead.dbs[ch].Clone(0)
	for n := sp + 1; n <= val.next; n++ {
		r, ok := val.memo[n]
		if !ok {
			return fmt.Errorf("validator, channel %d, block %d: outcome released before %s committed it", ch, n, lead.name)
		}
		if err := tail.ApplyUpdates(&r.batch, n); err != nil {
			return err
		}
	}
	want := map[string]statedb.KV{}
	for _, kv := range tail.GetRange("", "") {
		want[kv.Key] = kv
	}
	if err := sameState(val.db.GetRange("", ""), want); err != nil {
		return fmt.Errorf("validator, channel %d, height %d (%s at %d plus %d memoised blocks): %v",
			ch, val.next, lead.name, sp, val.next-sp, err)
	}
	return nil
}

// checkDocuments checks the document sidecar on every replica of every
// channel, the validator's too: an entry whose Doc is a
// chaincode.Document must encode to exactly the entry's bytes. Every
// replica shares the document a chaincode wrote, so one changed in
// place after it was stored fails here, wherever it is held.
func checkDocuments(nw *Network) error {
	var buf []byte
	for ch := range nw.chains {
		check := func(name string, db statedb.VersionedDB) error {
			for it := db.Scan("", ""); it.Valid(); it.Next() {
				vv := it.Value()
				doc, ok := vv.Doc.(chaincode.Document)
				if !ok {
					continue
				}
				if buf = doc.AppendJSON(buf[:0]); !bytes.Equal(buf, vv.Value) {
					return fmt.Errorf("%s, channel %d, key %q at %v: the document encodes to %s, the entry holds %s",
						name, ch, it.Key(), vv.Version, buf, vv.Value)
				}
			}
			return nil
		}
		for _, p := range nw.peers {
			if err := check(p.name, p.dbs[ch]); err != nil {
				return err
			}
		}
		if err := check("validator", nw.vals[ch].db); err != nil {
			return err
		}
	}
	return nil
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
			return fmt.Errorf("key %q at %v is on the replica, not in the fold", scan[i].Key, scan[i].Version)
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

// checkHintRange checks the shared-signal invariants on one report
// against the control stack the network resolved: every hint and
// estimate trajectory stays inside [0,1] with its average at most its
// max, no single pacing pause exceeds maxPause, and a subsystem the
// stack leaves off (or resolves away for want of outcome tracking)
// leaves exactly zero traces.
func checkHintRange(ctl resolvedControl, rep metrics.Report) error {
	for _, s := range []struct {
		label string
		s     metrics.Series[float64]
	}{
		{"orderer hint", rep.Hint},
		{"gossip estimate", rep.GossipEstimate},
		{"conflict estimate", rep.ConflictEst},
		{"congestion estimate", rep.CongestEst},
	} {
		for _, v := range []float64{s.s.Avg(), s.s.Max, s.s.Last} {
			if v < 0 || v > 1 {
				return fmt.Errorf("%s: %g outside [0,1] (avg %g, max %g, final %g)", s.label, v, s.s.Avg(), s.s.Max, s.s.Last)
			}
		}
		if s.s.Avg() > s.s.Max {
			return fmt.Errorf("%s: average %g above its max %g", s.label, s.s.Avg(), s.s.Max)
		}
	}
	if rep.GossipStaleness.Avg() > rep.GossipStaleness.Max || rep.GossipStaleness.Max < 0 {
		return fmt.Errorf("gossip staleness avg %v / max %v inconsistent", rep.GossipStaleness.Avg(), rep.GossipStaleness.Max)
	}
	if ctl.tracking && ctl.Backpressure != nil {
		if rep.Paced.Max > maxPause {
			return fmt.Errorf("single pace %v exceeds maxPause %v", rep.Paced.Max, maxPause)
		}
	} else if rep.PacedSubmissions != 0 || rep.Paced != (metrics.Series[time.Duration]{}) {
		return fmt.Errorf("no pacer runs but paced=%d pauses %+v", rep.PacedSubmissions, rep.Paced)
	}
	if !ctl.ordererFeeds && rep.Hint != (metrics.Series[float64]{}) {
		return fmt.Errorf("orderer hints off but trajectory %+v", rep.Hint)
	}
	if ctl.Gossip == nil && (rep.GossipMessages != 0 || rep.GossipMerges != 0 ||
		rep.GossipEstimate != (metrics.Series[float64]{}) || rep.GossipStaleness != (metrics.Series[time.Duration]{})) {
		return fmt.Errorf("gossip off but msgs=%d merges=%d estimate %+v staleness %+v",
			rep.GossipMessages, rep.GossipMerges, rep.GossipEstimate, rep.GossipStaleness)
	}
	if ctl.SplitSignal == nil && (rep.ConflictEst != (metrics.Series[float64]{}) || rep.CongestEst != (metrics.Series[float64]{})) {
		return fmt.Errorf("split signal off but conflict %+v, congestion %+v", rep.ConflictEst, rep.CongestEst)
	}
	return nil
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

// The tests below are views over the regime corpus (corpus_test.go):
// each names the regimes whose oracles it stands for and simulates
// nothing of its own.

// TestConservationInvariant checks the accounting identity on a
// contended fire-and-forget run.
func TestConservationInvariant(t *testing.T) { checked(t, "fire-and-forget") }

// TestConservationInvariantWithRetries checks the same identity with
// the retry subsystem active: resubmissions are new transactions and
// must obey exactly the same per-block accounting (the regime's
// predicate requires amplification above 1).
func TestConservationInvariantWithRetries(t *testing.T) { checked(t, "immediate") }

// TestConservationInvariantLevelDB repeats the walk on the LevelDB
// backend.
func TestConservationInvariantLevelDB(t *testing.T) { checked(t, "leveldb") }

// TestConservationInvariantAcrossChannels walks every channel of a
// short run of the million-sharded shape: 10^6 clients in cohorts of
// 10,000 over 4 channels with 10% cross-channel transactions at 200 tps.
func TestConservationInvariantAcrossChannels(t *testing.T) { checked(t, "million-sharded") }

// TestConservationInvariantWithGossip runs the walk with the gossip
// signal live at several fanouts: gossip may only move *when*
// transactions are resubmitted, never what the validator decides about
// them.
func TestConservationInvariantWithGossip(t *testing.T) {
	for _, name := range []string{"gossip-fanout1", "gossip-fanout2", "gossip-fanout4"} {
		checked(t, name)
	}
}

// TestReplicasConvergeGenChain holds every replica to the chain's fold
// under genChain's update-, insert- and range-heavy mixes.
func TestReplicasConvergeGenChain(t *testing.T) {
	for _, c := range []struct{ mix, regime string }{
		{"UpdateHeavy", "genchain-update"}, {"InsertHeavy", "genchain-insert"}, {"RangeHeavy", "genchain-range"},
	} {
		c := c
		t.Run(c.mix, func(t *testing.T) { checked(t, c.regime) })
	}
}

// TestReplicasConvergeAcrossChannels checks every channel's replicas on
// the sharded regimes, cross-channel transactions included.
func TestReplicasConvergeAcrossChannels(t *testing.T) {
	for _, name := range []string{"million-sharded", "channels3-cross-cohort2"} {
		checked(t, name)
	}
}

// TestReplicasConvergeAfterPeerCrash checks the replica a crashed peer
// rebuilt by replaying the blocks it missed (the regime's predicate
// requires exactly one recovery).
func TestReplicasConvergeAfterPeerCrash(t *testing.T) { checked(t, "peer-crash") }

// TestControlPlaneRunChecked holds a run of the ehr-controlplane shape
// to every oracle: the regime where gossip peer sampling draws most of
// the engine's random stream. Its predicate requires gossip messages
// and retry amplification above 1.
func TestControlPlaneRunChecked(t *testing.T) { checked(t, "controlplane") }

// TestHintRangeInvariantAcrossModes checks every retry/coordination
// mode of hintModes: whatever the configuration, observed hints and
// estimates stay in [0,1], pacing pauses respect maxPause, and disabled
// subsystems report exactly zero (checkHintRange, part of checkRun).
func TestHintRangeInvariantAcrossModes(t *testing.T) {
	for _, mode := range hintModes() {
		mode := mode
		t.Run(mode.name, func(t *testing.T) { checked(t, mode.name) })
	}
}
