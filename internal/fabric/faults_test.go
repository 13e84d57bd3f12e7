package fabric

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/chaincodes/ehr"
	"repro/internal/costmodel"
	"repro/internal/ledger"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/workload"
)

// faultConfig is retryConfig (backoff retries, so outcome tracking is
// on) with a fault schedule.
func faultConfig(seed int64, f *Faults) Config {
	cfg := retryConfig(seed, ExponentialBackoff{
		Initial: 200 * time.Millisecond, Cap: 2 * time.Second,
		MaxAttempts: 5, Jitter: 0.2,
	})
	cfg.Faults = f
	return cfg
}

// TestFaultScheduleDeterminism pins the subsystem to the repo's core
// guarantee: the same seed reproduces the same faulted run exactly —
// crash windows, replay, deadlines, the lot (the corpus's faults-crash
// regime).
func TestFaultScheduleDeterminism(t *testing.T) {
	if rep := deterministic(t, "faults-crash").rep; rep.FaultWindows != 2 || rep.NodeCrashes != 2 {
		t.Errorf("crash scenario opened %d windows / %d crashes, want 2/2",
			rep.FaultWindows, rep.NodeCrashes)
	}
}

// TestPeerCrashRecovery crashes one endorsing peer for a window and
// checks the lifecycle contract: downtime is accounted, the peer
// replays the ledger suffix it missed on restart (a recovery with a
// positive latency), it ends the run up, and the chain still verifies.
func TestPeerCrashRecovery(t *testing.T) {
	cfg := faultConfig(4, &Faults{
		Events: []FaultEvent{
			{Kind: FaultCrashPeer, At: 5 * time.Second, For: 5 * time.Second, Target: 3},
		},
		EndorseTimeout: time.Second,
	})
	nw, rep := run(t, cfg)

	if rep.NodeCrashes != 1 || rep.NodeDowntime != 5*time.Second {
		t.Errorf("crashes=%d downtime=%v, want 1 crash with 5s scheduled downtime",
			rep.NodeCrashes, rep.NodeDowntime)
	}
	if rep.Recovery.N != 1 {
		t.Fatalf("recoveries = %d, want 1 (the peer must have missed blocks)", rep.Recovery.N)
	}
	if rep.Recovery.Avg() <= 0 || rep.Recovery.Max < rep.Recovery.Avg() {
		t.Errorf("recovery avg=%v max=%v, want positive replay latency", rep.Recovery.Avg(), rep.Recovery.Max)
	}
	p := nw.peers[3]
	if p.State() != NodeUp {
		t.Errorf("peer ended the run %v, want up", p.State())
	}
	// The replayed peer holds the same committed height as the rest.
	for _, other := range nw.peers {
		if other.committedBlocks != p.committedBlocks {
			t.Errorf("peer %s committed %d blocks, restarted peer %d — replay incomplete",
				other.name, other.committedBlocks, p.committedBlocks)
		}
	}
	if err := nw.Chain().Verify(); err != nil {
		t.Errorf("chain verification after crash/replay: %v", err)
	}
}

// TestFaultFreeRunReleasesValidatorMemo: a block's validation outcome
// is needed until the last peer commits the block and by nobody after,
// so a healthy run ends with every channel's memo empty — however many
// blocks it validated.
func TestFaultFreeRunReleasesValidatorMemo(t *testing.T) {
	cfg := testConfig(6)
	cfg.Channels = 3
	cfg.CrossChannel = 0.1
	nw, rep := run(t, cfg)
	if rep.Blocks < 10 {
		t.Fatalf("only %d blocks committed", rep.Blocks)
	}
	for ch, v := range nw.vals {
		if v.next == 0 {
			t.Errorf("channel %d validated no block", ch)
		}
		if len(v.memo) != 0 {
			t.Errorf("channel %d: %d of %d validation outcomes still held at drain", ch, len(v.memo), v.next)
		}
	}
}

// TestPeerCrashHoldsValidatorMemoUntilReplay: while a peer is down the
// memo holds exactly the blocks that peer has not committed — its
// restart replays them from there — and the replay releases them.
func TestPeerCrashHoldsValidatorMemoUntilReplay(t *testing.T) {
	cfg := faultConfig(4, &Faults{
		Events: []FaultEvent{
			{Kind: FaultCrashPeer, At: 5 * time.Second, For: 5 * time.Second, Target: 3},
		},
		EndorseTimeout: time.Second,
	})
	nw, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range nw.drivers {
		d.start()
	}
	nw.eng.RunUntil(sim.Time(9 * time.Second))
	p, v := nw.peers[3], nw.vals[0]
	if p.State() != NodeCrashed {
		t.Fatalf("peer is %v at 9s, want crashed", p.State())
	}
	missed := v.next - uint64(p.committedBlocks)
	if missed < 2 {
		t.Fatalf("the crashed peer missed %d blocks; the window is too short to test anything", missed)
	}
	if uint64(len(v.memo)) != missed {
		t.Errorf("memo holds %d outcomes, the crashed peer has %d blocks to replay", len(v.memo), missed)
	}
	for n := uint64(p.committedBlocks) + 1; n <= v.next; n++ {
		if v.memo[n] == nil {
			t.Errorf("block %d, which the crashed peer has not committed, is gone from the memo", n)
		}
	}
	nw.eng.RunUntil(sim.Time(cfg.Duration + cfg.Drain))
	if p.State() != NodeUp || uint64(p.committedBlocks) != v.next {
		t.Fatalf("peer ended %v with %d of %d blocks", p.State(), p.committedBlocks, v.next)
	}
	if len(v.memo) != 0 {
		t.Errorf("%d outcomes still held after the replay", len(v.memo))
	}
}

// TestPeerCrashDropsQueuedEndorsements: a peer with one endorsement
// worker crashes with one proposal in service and a second waiting for
// the worker, and restarts before either is due. Neither is answered or
// run (each handler drops what predates the crash), so each leg's
// endorse deadline fires once, as CLIENT_TIMEOUT; a proposal sent after
// the restart finds the worker free and is answered.
func TestPeerCrashDropsQueuedEndorsements(t *testing.T) {
	cfg := testConfig(10)
	cfg.PeersPerOrg = 1 // every leg asks the same two peers
	cfg.PeerCosts.EndorserWorkers = 1
	cfg.PeerCosts.EndorseBase = 100 * time.Millisecond
	cfg.PeerCosts.Jitter = 0
	cfg.LAN = netem.Link{Base: time.Millisecond}
	cfg.ClosedLoop = true // tracks outcomes; no job follows once the window closed
	cfg.Duration = 50 * time.Millisecond
	cfg.Faults = &Faults{EndorseTimeout: time.Second}
	nw, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := nw.peers[0]
	submit := func() *leg {
		j := &pendingTx{inv: workload.Invocation{Chaincode: ehr.Name, Function: "readProfile", Args: []string{"5"}}, legs: 1}
		nw.drivers[0].submitAttempt(j)
		return &j.first
	}
	answered := func(l *leg) bool {
		for _, e := range l.ends {
			if e.PeerID == p.name {
				return true
			}
		}
		return false
	}
	inService, waiting := submit(), submit() // both arrive at 1 ms
	nw.eng.RunUntil(sim.Time(50 * time.Millisecond))
	if free := p.endorserSlots[0]; free <= nw.eng.Now() {
		t.Fatalf("the worker is free at %v; the first proposal is not in service", free)
	}
	p.crash()
	nw.eng.RunUntil(sim.Time(60 * time.Millisecond))
	p.restart()
	restarted := nw.eng.Now()
	nw.eng.RunUntil(sim.Time(400 * time.Millisecond)) // past both proposals' pre-crash due times
	if p.endorserSlots[0] != restarted {
		t.Errorf("the worker is busy until %v after a restart at %v: a proposal queued before the crash ran", p.endorserSlots[0], restarted)
	}
	late := submit()
	nw.eng.RunUntil(sim.Time(3 * time.Second))
	for name, l := range map[string]*leg{"in service": inService, "waiting": waiting} {
		if answered(l) {
			t.Errorf("the proposal %s at the crash was answered by the crashed peer", name)
		}
	}
	if !answered(late) {
		t.Error("the proposal sent after the restart was not answered")
	}
	rep := nw.col.Report()
	if rep.EndorseTimeouts != 2 || rep.AttemptBreakdown[1][ledger.ClientTimeout] != 2 {
		t.Errorf("%d endorse deadlines fired, %d attempts failed as CLIENT_TIMEOUT; want one each per proposal lost, 2",
			rep.EndorseTimeouts, rep.AttemptBreakdown[1][ledger.ClientTimeout])
	}
}

// TestPeerCrashLeavesStaleCommitsBehind: a peer that crashes with
// commits queued and restarts before they are due leaves their entries
// in its commit queue, due after the commits of the blocks it gets next
// (its replay, then the orderer's next block). Each stale entry must
// commit nothing, each block must commit exactly once, and the replica
// must end equal to the chain.
func TestPeerCrashLeavesStaleCommitsBehind(t *testing.T) {
	cfg := testConfig(9)
	cfg.PeerCosts.BlockBase = 10 * time.Second // commits queue up
	nw, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	genesis := snapshotGenesis(nw)
	for _, d := range nw.drivers {
		d.start()
	}
	p, v := nw.peers[3], nw.vals[0]
	var stale []sim.Time // due times of p's queued commits
	for len(p.inflight) < 2 {
		n := len(p.inflight)
		nw.eng.RunUntil(nw.eng.Now() + sim.Time(time.Millisecond))
		switch len(p.inflight) {
		case n:
		case n + 1:
			stale = append(stale, p.busyUntil)
		default:
			t.Fatalf("%d blocks in flight, %d a millisecond before", len(p.inflight), n)
		}
	}
	nw.cfg.PeerCosts.BlockBase = time.Millisecond
	p.crash()
	p.restart()
	replayed := p.busyUntil
	if replayed >= stale[0] {
		t.Fatalf("the replay commits by %v, not before the stale entries at %v", replayed, stale)
	}
	for p.busyUntil == replayed { // until the orderer's next block arrives
		nw.eng.RunUntil(nw.eng.Now() + sim.Time(time.Millisecond))
	}
	if p.busyUntil >= stale[0] {
		t.Fatalf("the next block commits at %v, not before the stale entries at %v", p.busyUntil, stale)
	}
	for _, at := range stale {
		nw.eng.RunUntil(at - 1)
		committed, queued := p.committedBlocks, len(p.inflight)
		nw.eng.RunUntil(at)
		if p.committedBlocks != committed || len(p.inflight) != queued {
			t.Errorf("the stale entry at %v committed %d blocks, %d were queued, %d are",
				at, p.committedBlocks-committed, queued, len(p.inflight))
		}
	}
	nw.eng.RunUntil(sim.Time(cfg.Duration + cfg.Drain))
	if p.State() != NodeUp || uint64(p.committedBlocks) != v.next || len(p.inflight) != 0 {
		t.Fatalf("peer ended %v with %d commits of %d blocks, %d in flight", p.State(), p.committedBlocks, v.next, len(p.inflight))
	}
	if err := checkReplicas(nw, genesis); err != nil {
		t.Error(err)
	}
}

// TestFaultOverlapRejected: a fault window restores the state it found
// when it ends, so two windows of one kind that intersect or touch on
// one victim corrupt the run — a nested crash restarts the peer early
// with its backlog overwritten (it ends blocks short of its savepoint),
// a nested slowdb leaves the scaled cost table in place for good. Both
// are parseable -faults specs; Config.Validate, which knows the
// topology the targets wrap in, must refuse them and name both events.
func TestFaultOverlapRejected(t *testing.T) {
	cases := []struct {
		name, spec string
		channels   int
		want       []string // both clauses, as the message names them
	}{
		{"nested crash-peer", "crash-peer:3@5s+6s,crash-peer:3@7s+1s", 1,
			[]string{"crash-peer:3@5s+6s", "crash-peer:3@7s+1s", "crash-peer windows"}},
		{"nested slowdb", "slowdb@2s+6s:4,slowdb@4s+1s:2", 1,
			[]string{"slowdb:0@2s+6s", "slowdb:0@4s+1s", "slowdb windows"}},
		{"crash-peer aliases on 4 peers", "crash-peer:1@5s+2s,crash-peer:5@6s+2s", 1,
			[]string{"crash-peer:1@5s+2s", "crash-peer:5@6s+2s"}},
		{"crash-orderer aliases on 2 channels", "crash-orderer:0@5s+2s,crash-orderer:2@6s+2s", 2,
			[]string{"crash-orderer:0@5s+2s", "crash-orderer:2@6s+2s"}},
		{"partitions of two orgs share the cut", "partition:0@5s+2s,partition:1@6s+2s", 1,
			[]string{"partition:0@5s+2s", "partition:1@6s+2s"}},
		{"slowdb targets are ignored", "slowdb:1@5s+2s,slowdb:2@6s+2s", 1,
			[]string{"slowdb:1@5s+2s", "slowdb:2@6s+2s"}},
		{"partial straggler overlap", "straggler:2@1s+3s,straggler:2@3s+3s", 1,
			[]string{"straggler:2@1s+3s", "straggler:2@3s+3s"}},
		{"loss, later window listed first", "loss:0@6s+2s,loss:0@5s+2s", 1,
			[]string{"loss:0@6s+2s", "loss:0@5s+2s"}},
		{"back to back", "crash-peer:3@5s+2s,crash-peer:3@7s+2s", 1,
			[]string{"crash-peer:3@5s+2s", "crash-peer:3@7s+2s", "overlap or touch"}},
		{"back to back, later window listed first", "crash-peer:3@7s+2s,crash-peer:3@5s+2s", 1,
			[]string{"crash-peer:3@7s+2s", "crash-peer:3@5s+2s", "overlap or touch"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f, err := ParseFaults(tc.spec)
			if err != nil {
				t.Fatalf("the spec must parse, the topology decides: %v", err)
			}
			cfg := faultConfig(4, f)
			cfg.Channels = tc.channels
			err = cfg.Validate()
			if err == nil {
				t.Fatalf("Config.Validate accepted %s", tc.spec)
			}
			for _, want := range tc.want {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not mention %q", err, want)
				}
			}
			if _, err := NewNetwork(cfg); err == nil {
				t.Error("NewNetwork built a network from the rejected schedule")
			}
		})
	}
}

// TestFaultOverlapAllowsIndependentWindows: only one kind on one victim
// collides. Windows of different kinds nest freely on one peer, one
// kind hits two peers at once, and a second window after a gap works
// in either listing order — every peer ends up, level with the chain,
// with nothing left in the validator's memo and the base cost table
// back.
func TestFaultOverlapAllowsIndependentWindows(t *testing.T) {
	for _, spec := range []string{
		"crash-peer:3@5s+4s,straggler:3@6s+1s,loss:3@4s+6s:0.2,slowdb@5s+4s:2,partition:1@12s+1s",
		"crash-peer:2@5s+3s,crash-peer:3@6s+3s",
		"crash-peer:3@5s+2s,crash-peer:3@8s+1s,slowdb@2s+1s:4,slowdb@4s+1s:2",
		"crash-peer:3@8s+1s,crash-peer:3@5s+2s,slowdb@4s+1s:2,slowdb@2s+1s:4",
	} {
		f, err := ParseFaults(spec + ",etimeout=1s,stimeout=4s")
		if err != nil {
			t.Fatal(err)
		}
		nw, rep := run(t, faultConfig(4, f))
		if rep.FaultWindows != len(f.Events) {
			t.Errorf("%s: %d windows opened, want %d", spec, rep.FaultWindows, len(f.Events))
		}
		v := nw.vals[0]
		for _, p := range nw.peers {
			if p.State() != NodeUp || uint64(p.committedBlocks) != v.next || p.DB().Savepoint() != v.next {
				t.Errorf("%s: peer %s ended %v with %d of %d blocks, savepoint %d",
					spec, p.name, p.State(), p.committedBlocks, v.next, p.DB().Savepoint())
			}
		}
		if len(v.memo) != 0 {
			t.Errorf("%s: %d validation outcomes still held at drain", spec, len(v.memo))
		}
		if nw.dbCosts != costmodel.ForKind(nw.cfg.DBKind) {
			t.Errorf("%s: the run ended with cost table %+v", spec, nw.dbCosts)
		}
	}
}

// TestOrdererCrashSubmitTimeouts crashes the ordering service for a
// window: envelopes submitted into the outage vanish with the pending
// batch, so the clients' submission deadline is what rescues them.
func TestOrdererCrashSubmitTimeouts(t *testing.T) {
	nw, rep := run(t, faultConfig(5, &Faults{
		Events: []FaultEvent{
			{Kind: FaultCrashOrderer, At: 5 * time.Second, For: 5 * time.Second},
		},
		SubmitTimeout: time.Second,
	}))
	if rep.NodeCrashes != 1 {
		t.Errorf("crashes = %d, want 1", rep.NodeCrashes)
	}
	if rep.SubmitTimeouts == 0 {
		t.Error("no submission timeouts during a 5s orderer outage")
	}
	if nw.Orderer().State() != NodeUp {
		t.Errorf("orderer ended the run %v, want up", nw.Orderer().State())
	}
	// Chain continuity: the restarted service continued the same chain.
	if err := nw.Chain().Verify(); err != nil {
		t.Errorf("chain verification after orderer crash: %v", err)
	}
	if rep.Blocks == 0 || rep.Committed == 0 {
		t.Error("nothing committed around the outage")
	}
}

// TestPartitionEndorseTimeouts cuts org 1 off: endorsement policies
// needing that org can no longer be satisfied inside the window, so
// the endorsement deadline fires and the attempts feed the retry path.
func TestPartitionEndorseTimeouts(t *testing.T) {
	_, rep := run(t, faultConfig(6, &Faults{
		Events: []FaultEvent{
			{Kind: FaultPartition, At: 5 * time.Second, For: 6 * time.Second, Target: 1},
		},
		EndorseTimeout: time.Second,
	}))
	if rep.FaultWindows != 1 {
		t.Errorf("fault windows = %d, want 1", rep.FaultWindows)
	}
	if rep.EndorseTimeouts == 0 {
		t.Error("no endorsement timeouts during a 6s partition of org 1")
	}
	if rep.NodeCrashes != 0 || rep.Recovery.N != 0 {
		t.Errorf("a partition is not a crash: crashes=%d recoveries=%d",
			rep.NodeCrashes, rep.Recovery.N)
	}
}

// TestSlowDBRegimeRaisesLatency compares a healthy run against the
// slowdb scenario (every state-database cost ×4 for 40%% of the run):
// average commit latency must rise, and the regime must lift cleanly
// (the window count says it was applied, determinism says reverting
// restored the exact cost model). Both runs are corpus regimes,
// faults-none and faults-slowdb.
func TestSlowDBRegimeRaisesLatency(t *testing.T) {
	healthy := runOf(t, "faults-none").rep
	slow := deterministic(t, "faults-slowdb").rep
	if slow.FaultWindows != 1 {
		t.Fatalf("slowdb windows = %d, want 1", slow.FaultWindows)
	}
	if slow.AvgLatency <= healthy.AvgLatency {
		t.Errorf("slowdb latency %v <= healthy %v, want a visible slowdown",
			slow.AvgLatency, healthy.AvgLatency)
	}
	if slow.NodeCrashes != 0 || slow.EndorseTimeouts != 0 {
		t.Errorf("slowdb scenario should not crash nodes or arm deadlines: %d crashes, %d etos",
			slow.NodeCrashes, slow.EndorseTimeouts)
	}
}

// TestStragglerRegime smokes the transient straggler: one peer's links
// carry an extra 100ms±10ms for half the run. The run must stay
// deterministic and the window accounted. Both runs are corpus
// regimes, faults-straggler and faults-none.
func TestStragglerRegime(t *testing.T) {
	repA := deterministic(t, "faults-straggler").rep
	if repA.FaultWindows != 1 {
		t.Errorf("straggler windows = %d, want 1", repA.FaultWindows)
	}
	healthy := runOf(t, "faults-none").rep
	if repA.AvgLatency <= healthy.AvgLatency {
		t.Errorf("straggler latency %v <= healthy %v", repA.AvgLatency, healthy.AvgLatency)
	}
}

// TestStragglerWindowRestoresStaticDelay: a straggler window on a peer
// of Config.DelayOrg ends by re-injecting the org's static DelayLink,
// not by clearing the peer's injection for the rest of the run.
func TestStragglerWindowRestoresStaticDelay(t *testing.T) {
	cfg := faultConfig(8, &Faults{Events: []FaultEvent{{
		Kind: FaultStraggler, At: 2 * time.Second, For: time.Second,
		Extra: netem.Link{Base: 300 * time.Millisecond},
	}}})
	cfg.DelayOrg = 0
	cfg.DelayLink = netem.Link{Base: 100 * time.Millisecond}
	nw, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	peer0 := nw.peers[0].name
	if rtt := nw.net.RTT("x", peer0); rtt < 200*time.Millisecond {
		t.Fatalf("RTT to %s before the run = %v, want >= 200ms from the static DelayLink", peer0, rtt)
	}
	if rep := nw.Run(); rep.FaultWindows != 1 {
		t.Fatalf("straggler windows = %d, want 1", rep.FaultWindows)
	}
	if rtt := nw.net.RTT("x", peer0); rtt < 200*time.Millisecond {
		t.Errorf("RTT to %s after the straggler window = %v, want the static DelayLink back (>= 200ms)", peer0, rtt)
	}
}

// faultState is everything a fault window overrides, as one comparable
// value: the lifecycle state of every node, the link injected on every
// peer, the cost table, and how many of one probe message per node the
// network refuses (down address, island boundary, loss of 1).
type faultState struct {
	nodes, links string
	dbCosts      costmodel.DBCosts
	refused      int
}

func snapshotFaultState(nw *Network) faultState {
	s := faultState{dbCosts: nw.dbCosts}
	before := nw.net.Drops()
	for _, p := range nw.peers {
		link := nw.net.Inject(p.name, netem.Link{})
		nw.net.Inject(p.name, link)
		s.nodes += p.name + "=" + p.State().String() + " "
		s.links += fmt.Sprintf("%s=%v ", p.name, link)
		nw.net.Send("probe", p.name, func() {})
	}
	for _, os := range nw.orderers {
		s.nodes += os.nodeNames[0] + "=" + os.State().String() + " "
		for _, n := range os.nodeNames {
			nw.net.Send("probe", n, func() {})
		}
	}
	s.refused = nw.net.Drops() - before
	return s
}

// TestFaultWindowRestoresWhatItFound: for each of the six kinds, on a
// network with a static DelayLink on the victim's org, the state inside
// the window differs from the state before it and the state after the
// run equals it — node up and reachable, no island, no loss, the cost
// table equal field by field, the injected link as found.
func TestFaultWindowRestoresWhatItFound(t *testing.T) {
	for _, ev := range []FaultEvent{
		{Kind: FaultCrashPeer},
		{Kind: FaultCrashOrderer},
		{Kind: FaultPartition},
		{Kind: FaultStraggler, Extra: netem.Link{Base: 300 * time.Millisecond}},
		{Kind: FaultLoss, Factor: 1},
		{Kind: FaultSlowDB, Factor: 4},
	} {
		ev.At, ev.For = 2*time.Second, time.Second
		cfg := faultConfig(8, &Faults{Events: []FaultEvent{ev},
			EndorseTimeout: time.Second, SubmitTimeout: 4 * time.Second})
		cfg.DelayOrg = 0
		cfg.DelayLink = netem.Link{Base: 100 * time.Millisecond}
		nw, err := NewNetwork(cfg)
		if err != nil {
			t.Fatal(err)
		}
		before := snapshotFaultState(nw)
		var inside faultState
		nw.eng.At(sim.Time(ev.At+ev.For/2), func() { inside = snapshotFaultState(nw) })
		nw.Run()
		if inside == before {
			t.Errorf("%s: the window changed nothing: %+v", ev.Kind, inside)
		}
		if after := snapshotFaultState(nw); after != before {
			t.Errorf("%s: state after the window differs from the state before it:\n before: %+v\n after:  %+v",
				ev.Kind, before, after)
		}
	}
}

// TestOrphanedTransactions forces orphans with a submission deadline
// far below the commit latency: clients give up on attempts that then
// commit as valid anyway, and the collector counts each one.
func TestOrphanedTransactions(t *testing.T) {
	_, rep := run(t, faultConfig(9, &Faults{
		Events: []FaultEvent{
			// A nominal window keeps the schedule non-empty; the orphans
			// come from the deadline alone.
			{Kind: FaultSlowDB, At: 5 * time.Second, For: 2 * time.Second, Factor: 2},
		},
		SubmitTimeout: 200 * time.Millisecond,
	}))
	if rep.SubmitTimeouts == 0 {
		t.Fatal("a 200ms submission deadline under ~500ms commit latency never fired")
	}
	if rep.OrphanedTxs == 0 {
		t.Error("no orphans: transactions abandoned client-side must still commit chain-side")
	}
}

// TestMultiChannelOrdererCrash crosses faults with sharding: on a
// 3-channel deployment, crashing ordering service 1 must leave the
// other channels cutting blocks, and every chain must still verify.
func TestMultiChannelOrdererCrash(t *testing.T) {
	cfg := faultConfig(10, &Faults{
		Events: []FaultEvent{
			{Kind: FaultCrashOrderer, At: 5 * time.Second, For: 5 * time.Second, Target: 1},
		},
		SubmitTimeout: time.Second,
	})
	cfg.Channels = 3
	nw, rep := run(t, cfg)

	if rep.NodeCrashes != 1 {
		t.Errorf("crashes = %d, want 1", rep.NodeCrashes)
	}
	for ch, chain := range nw.Chains() {
		if err := chain.Verify(); err != nil {
			t.Errorf("channel %d chain verification: %v", ch, err)
		}
		if chain.TxCount() == 0 {
			t.Errorf("channel %d committed nothing", ch)
		}
	}
	for i, os := range nw.Orderers() {
		if os.State() != NodeUp {
			t.Errorf("orderer %d ended the run %v, want up", i, os.State())
		}
	}
}

// TestValidateFaultsKnobs table-tests Config.Validate over the fault
// knobs, including the unit-bearing messages, in the style of
// TestValidateScaleKnobs.
func TestValidateFaultsKnobs(t *testing.T) {
	window := func(ev FaultEvent) *Faults { return &Faults{Events: []FaultEvent{ev}} }
	cases := []struct {
		name    string
		mutate  func(*Config)
		wantErr string // substring; "" = must validate
	}{
		{"nil faults", func(c *Config) { c.Faults = nil }, ""},
		{"crash scenario", func(c *Config) { c.Faults = &Faults{Scenario: "crash"} }, ""},
		{"explicit window", func(c *Config) {
			c.Faults = window(FaultEvent{Kind: FaultCrashPeer, At: time.Second, For: time.Second})
		}, ""},
		{"deadlines only", func(c *Config) {
			c.Faults = &Faults{EndorseTimeout: time.Second, SubmitTimeout: 4 * time.Second}
		}, ""},
		{"unknown scenario", func(c *Config) { c.Faults = &Faults{Scenario: "meteor"} },
			`unknown fault scenario "meteor"`},
		{"scenario plus events", func(c *Config) {
			c.Faults = &Faults{Scenario: "crash",
				Events: []FaultEvent{{Kind: FaultCrashPeer, At: 0, For: time.Second}}}
		}, "mutually exclusive"},
		{"negative endorse timeout", func(c *Config) {
			c.Faults = &Faults{EndorseTimeout: -time.Second}
		}, "endorsement timeout must be >= 0, got -1s"},
		{"negative submit timeout", func(c *Config) {
			c.Faults = &Faults{SubmitTimeout: -2 * time.Second}
		}, "submission timeout must be >= 0, got -2s"},
		{"unknown kind", func(c *Config) {
			c.Faults = window(FaultEvent{Kind: "meltdown", At: 0, For: time.Second})
		}, `unknown fault kind "meltdown"`},
		{"negative window start", func(c *Config) {
			c.Faults = window(FaultEvent{Kind: FaultCrashPeer, At: -time.Second, For: time.Second})
		}, "window start must be >= 0, got -1s"},
		{"zero window length", func(c *Config) {
			c.Faults = window(FaultEvent{Kind: FaultCrashPeer, At: time.Second})
		}, "window length must be positive, got 0s"},
		{"negative target", func(c *Config) {
			c.Faults = window(FaultEvent{Kind: FaultCrashPeer, At: 0, For: time.Second, Target: -1})
		}, "target index must be >= 0, got -1"},
		{"loss probability zero", func(c *Config) {
			c.Faults = window(FaultEvent{Kind: FaultLoss, At: 0, For: time.Second})
		}, "loss probability must be in (0,1], got 0"},
		{"loss probability above one", func(c *Config) {
			c.Faults = window(FaultEvent{Kind: FaultLoss, At: 0, For: time.Second, Factor: 1.5})
		}, "loss probability must be in (0,1], got 1.5"},
		{"slowdb below one", func(c *Config) {
			c.Faults = window(FaultEvent{Kind: FaultSlowDB, At: 0, For: time.Second, Factor: 0.5})
		}, "slowdb cost multiplier must be >= 1, got 0.5"},
		{"straggler no delay", func(c *Config) {
			c.Faults = window(FaultEvent{Kind: FaultStraggler, At: 0, For: time.Second})
		}, "straggler extra delay must be positive, got 0s"},
		{"straggler jitter beyond base", func(c *Config) {
			c.Faults = window(FaultEvent{Kind: FaultStraggler, At: 0, For: time.Second,
				Extra: netem.Link{Base: 10 * time.Millisecond, Jitter: 20 * time.Millisecond}})
		}, "straggler jitter must be in [0, base 10ms], got 20ms"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(1)
			tc.mutate(&cfg)
			err := cfg.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected validation error: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("validation accepted %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestParseFaults table-tests the -faults grammar.
func TestParseFaults(t *testing.T) {
	cases := []struct {
		in      string
		want    *Faults
		wantErr string // substring; "" = must parse
	}{
		{"", nil, ""},
		{"off", nil, ""},
		{"crash", &Faults{Scenario: "crash"}, ""},
		{"chaos", &Faults{Scenario: "chaos"}, ""},
		{"crash-peer:1@5s+10s", &Faults{Events: []FaultEvent{
			{Kind: FaultCrashPeer, At: 5 * time.Second, For: 10 * time.Second, Target: 1},
		}}, ""},
		{"crash-orderer@1s+2s,etimeout=2s,stimeout=4s", &Faults{
			Events: []FaultEvent{
				{Kind: FaultCrashOrderer, At: time.Second, For: 2 * time.Second},
			},
			EndorseTimeout: 2 * time.Second,
			SubmitTimeout:  4 * time.Second,
		}, ""},
		{"loss:2@1s+4s:0.2", &Faults{Events: []FaultEvent{
			{Kind: FaultLoss, At: time.Second, For: 4 * time.Second, Target: 2, Factor: 0.2},
		}}, ""},
		{"loss@1s+4s", &Faults{Events: []FaultEvent{
			{Kind: FaultLoss, At: time.Second, For: 4 * time.Second, Factor: 0.1},
		}}, ""},
		{"slowdb@1s+2s:8", &Faults{Events: []FaultEvent{
			{Kind: FaultSlowDB, At: time.Second, For: 2 * time.Second, Factor: 8},
		}}, ""},
		{"straggler:3@1s+2s:50ms~5ms", &Faults{Events: []FaultEvent{
			{Kind: FaultStraggler, At: time.Second, For: 2 * time.Second, Target: 3,
				Extra: netem.Link{Base: 50 * time.Millisecond, Jitter: 5 * time.Millisecond}},
		}}, ""},
		{"straggler@1s+2s", &Faults{Events: []FaultEvent{
			{Kind: FaultStraggler, At: time.Second, For: 2 * time.Second,
				Extra: netem.Link{Base: 100 * time.Millisecond, Jitter: 10 * time.Millisecond}},
		}}, ""},
		{"bogus", nil, "want kind[:target]@start+dur[:param]"},
		{"crash-peer@5s", nil, "want start+dur"},
		{"crash-peer:x@5s+1s", nil, "fault target"},
		{"crash-peer@5s+1s:3", nil, "takes no parameter"},
		{"loss@1s+2s:nope", nil, "loss probability"},
		{"loss@1s+2s:2", nil, "must be in (0,1]"},
		{"etimeout=fast", nil, "endorsement timeout"},
		{"stimeout=", nil, "submission timeout"},
		{"crash,partition", nil, "want kind[:target]@start+dur[:param]"},
		{",", nil, "empty clause"},
	}
	for _, tc := range cases {
		t.Run(tc.in, func(t *testing.T) {
			got, err := ParseFaults(tc.in)
			if tc.wantErr != "" {
				if err == nil {
					t.Fatalf("ParseFaults(%q) accepted, want error mentioning %q", tc.in, tc.wantErr)
				}
				if !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("error %q does not mention %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("ParseFaults(%q): %v", tc.in, err)
			}
			if (got == nil) != (tc.want == nil) {
				t.Fatalf("ParseFaults(%q) = %+v, want %+v", tc.in, got, tc.want)
			}
			if got == nil {
				return
			}
			if got.Scenario != tc.want.Scenario ||
				got.EndorseTimeout != tc.want.EndorseTimeout ||
				got.SubmitTimeout != tc.want.SubmitTimeout ||
				len(got.Events) != len(tc.want.Events) {
				t.Fatalf("ParseFaults(%q) = %+v, want %+v", tc.in, got, tc.want)
			}
			for i := range got.Events {
				if got.Events[i] != tc.want.Events[i] {
					t.Errorf("event %d = %+v, want %+v", i, got.Events[i], tc.want.Events[i])
				}
			}
		})
	}
}

// FuzzFaultSpec fuzzes the -faults parser: it must never panic, and
// anything it accepts must validate and carry a printable name (the
// same contract the CLI relies on).
func FuzzFaultSpec(f *testing.F) {
	for _, seed := range []string{
		"", "off", "crash", "chaos", "slowdb",
		"crash-peer:1@5s+10s,etimeout=2s",
		"partition:1@2s+3s",
		"loss:0@1s+4s:0.2",
		"straggler:2@1s+2s:100ms~10ms",
		"slowdb@1s+2s:4",
		"crash-orderer@1s+2s,stimeout=4s",
		"bogus", "crash-peer@5s", "loss@1s+2s:2", ",", "etimeout=",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		flt, err := ParseFaults(s)
		if err != nil {
			if flt != nil {
				t.Errorf("ParseFaults(%q) returned both a schedule and %v", s, err)
			}
			return
		}
		if flt == nil {
			return // disabled
		}
		if verr := flt.Validate(); verr != nil {
			t.Errorf("ParseFaults(%q) accepted a schedule that fails Validate: %v", s, verr)
		}
	})
}
