package fabric

import (
	"fmt"
	"time"

	"repro/internal/costmodel"
	"repro/internal/fabcrypto"
	"repro/internal/ledger"
	"repro/internal/sim"
	"repro/internal/statedb"
	"repro/internal/workload"
)

// Peer is one Fabric peer: an endorser that simulates transactions on
// its replica — a view of the channel's world state at the peer's own
// height — and a committer that validates delivered blocks and commits
// them. Replicas advance independently — the transient inconsistency
// between them during the commit window is the root cause of
// endorsement policy failures (§3.2.1).
type Peer struct {
	nw       *Network
	org      string
	name     string
	identity *fabcrypto.Identity
	// dbs holds the peer's replica (a statedb.View) of each channel it
	// has joined (every peer joins every channel), indexed by channel.
	dbs []statedb.VersionedDB

	// busyUntil serializes the committer: blocks are validated and
	// applied one at a time, in delivery order.
	busyUntil sim.Time

	// endorserSlots holds the completion times of the peer's
	// endorsement workers; proposals queue for the earliest slot.
	endorserSlots []sim.Time

	// committedBlocks counts applied blocks (diagnostics).
	committedBlocks int

	// Lifecycle state (see lifecycle.go; always NodeUp without
	// Config.Faults). epoch increments at every crash: work scheduled
	// before it — queued endorsements, their responses, the commits
	// queued on commits — carries the epoch it was created under and
	// dies silently when it is stale. inflight tracks blocks delivered
	// but not yet committed; backlog accumulates blocks delivered while
	// crashed (the missed ledger suffix the restart replays). catchup
	// counts replayed blocks still uncommitted during NodeRestarting and
	// recoverStart stamps the restart for the recovery-latency metric.
	state        NodeState
	epoch        uint64
	commits      *sim.Queue[uint64]
	inflight     []inflightBlock
	backlog      []*ledger.Block
	catchup      int
	recoverStart sim.Time
}

// inflightBlock is a delivered block and its validation outcome.
type inflightBlock struct {
	b   *ledger.Block
	res *valResult
}

func newPeer(nw *Network, org, name string, dbs []statedb.VersionedDB) *Peer {
	workers := max(nw.cfg.PeerCosts.EndorserWorkers, 1)
	p := &Peer{
		nw:            nw,
		org:           org,
		name:          name,
		identity:      nw.msp.Register(org, name),
		dbs:           dbs,
		endorserSlots: make([]sim.Time, workers),
	}
	p.commits = sim.NewQueue(nw.eng, p.commitNext)
	return p
}

// Name returns the peer's node name.
func (p *Peer) Name() string { return p.name }

// DB exposes channel 0's replica (tests).
func (p *Peer) DB() statedb.VersionedDB { return p.dbs[0] }

// Endorse simulates the invocation on the local replica of the given
// channel (§2 step 2) and, after the endorsement service time, sends
// the signed read/write set back through respond. Proposals queue for
// one of the peer's endorsement workers — the pool is shared across
// channels, like a real peer's endorser runtime: expensive
// simulations (CouchDB range scans) saturate the pool and the queue
// grows — the §5.1.2 collapse.
func (p *Peer) Endorse(inv workload.Invocation, channel int, respond func(*ledger.Endorsement, error)) {
	p.endorse(&proposal{inv: inv, channel: channel}, replyFunc(respond))
}

// replier takes the answers to a proposal, each with the peer that gave
// it. The client's leg is one, so every endorser of a leg answers the
// leg itself; a callback bound to it would be one more object per leg.
type replier interface {
	endorsed(from *Peer, e *ledger.Endorsement, err error)
}

// replyFunc adapts Endorse's callback to replier.
type replyFunc func(*ledger.Endorsement, error)

func (f replyFunc) endorsed(_ *Peer, e *ledger.Endorsement, err error) { f(e, err) }

// signedEndorsement is an endorsement and the storage of its signature,
// allocated as one object.
type signedEndorsement struct {
	ledger.Endorsement
	sig [32]byte
}

// request is proposal prop for peer p, whose answers go to r: on its
// way, or waiting for worker slot under the epoch it arrived in.
type request struct {
	p     *Peer
	prop  *proposal
	r     replier
	slot  int
	epoch uint64
}

// endorse is Endorse on a proposal the client shares between its
// endorsers: a peer whose replica agrees with the proposal's first
// simulation on everything that simulation read signs its result
// instead of re-running the chaincode (see proposal). Virtual time is
// charged from the operation trace either way.
func (p *Peer) endorse(prop *proposal, r replier) {
	if p.state == NodeCrashed {
		// The process is gone; the proposal is silently lost (the
		// client's endorsement deadline is the recovery path).
		return
	}
	// The proposal starts executing when a worker frees up; the
	// snapshot it reads is taken at that point.
	slot := 0
	for i, t := range p.endorserSlots {
		if t < p.endorserSlots[slot] {
			slot = i
		}
	}
	start := p.endorserSlots[slot]
	if now := p.nw.eng.Now(); start <= now {
		p.endorserSlots[slot] = now // claimed; updated in work
		request{p, prop, r, slot, p.epoch}.work()
		return
	}
	p.endorserSlots[slot] = start // reserve until the worker frees up
	p.nw.starts.At(start, request{p, prop, r, slot, p.epoch})
}

// work runs the proposal on worker q.slot, free now, unless the peer
// crashed since it arrived, and files the answer after the service time.
func (q request) work() {
	p, prop := q.p, q.prop
	if p.epoch != q.epoch {
		return // the peer crashed; queued proposals died with it
	}
	res, err := prop.resultOn(p.nw, p.dbs[prop.channel])
	var end *ledger.Endorsement
	cost := p.nw.cfg.PeerCosts.EndorseBase
	if err == nil {
		se := &signedEndorsement{Endorsement: ledger.Endorsement{Org: p.org, PeerID: p.name, RWSet: res.rwset, Digest: res.digest}}
		se.Signature = p.identity.AppendSign(se.sig[:0], se.Digest[:])
		end = &se.Endorsement
		cost = costmodel.EndorseCost(p.nw.dbCosts, p.nw.cfg.PeerCosts, res.trace)
	}
	cost = p.nw.eng.Jittered(cost, p.nw.cfg.PeerCosts.Jitter)
	p.endorserSlots[q.slot] = p.nw.eng.Now() + sim.Time(cost)
	p.nw.answers.At(p.endorserSlots[q.slot], answer{p, q.r, q.epoch, end, err})
}

// answer is peer p's endorsement, or the proposal's error, for r; epoch
// is the peer's when the proposal started.
type answer struct {
	p     *Peer
	r     replier
	epoch uint64
	end   *ledger.Endorsement
	err   error
}

// send answers, unless the peer crashed since it started the proposal.
func (a answer) send() {
	if a.p.epoch != a.epoch {
		return // crashed mid-endorsement; the response is lost
	}
	a.r.endorsed(a.p, a.end, a.err)
}

// DeliverBlock enqueues a block from the ordering service. The
// committer is a serial server: validation+commit of block N must
// finish before N+1 starts. The validation outcome itself is computed
// once network-wide (it is deterministic); each peer pays its own
// virtual service time and applies the batch at its own commit time.
func (p *Peer) DeliverBlock(b *ledger.Block) {
	if p.state == NodeCrashed {
		// The deliver stream is reliable (netem.OrderedArrival), but the
		// process is not there to commit: the block queues as the
		// missed ledger suffix and the restart replays it.
		p.backlog = append(p.backlog, b)
		return
	}
	res := p.nw.vals[b.Channel].result(b)
	// Jitter applies to the fixed per-block part only: per-transaction
	// work averages out across a block (CLT), so the commit-time skew
	// between replicas — the driver of endorsement policy failures —
	// does not scale with block size (the paper's Fig 9 flatness).
	fixed := costmodel.CommitCost(p.nw.dbCosts, p.nw.cfg.PeerCosts, 0)
	variable := res.validateCost +
		costmodel.CommitCost(p.nw.dbCosts, p.nw.cfg.PeerCosts, res.batch.Len()) - fixed
	service := p.nw.eng.Jittered(fixed, p.nw.cfg.PeerCosts.Jitter) +
		p.nw.eng.Jittered(variable, p.nw.cfg.PeerCosts.VarJitter)

	p.busyUntil = max(p.busyUntil, p.nw.eng.Now()) + sim.Time(service)
	p.inflight = append(p.inflight, inflightBlock{b, res})
	p.commits.At(p.busyUntil, p.epoch)
}

// commitNext commits the oldest in-flight block, the one due now,
// unless the peer crashed since epoch.
func (p *Peer) commitNext(epoch uint64) {
	if p.epoch != epoch {
		return // crashed mid-commit; the block is replayed on restart
	}
	f := p.inflight[0]
	// Pop by copying down: resliced past its head, it would regrow.
	n := copy(p.inflight, p.inflight[1:])
	p.inflight[n] = inflightBlock{}
	p.inflight = p.inflight[:n]
	p.commit(f.b, f.res)
}

// commit moves the peer's view to the block the validator applied and,
// on the metrics peer, appends the canonical block and delivers its
// outcome events. Run reads the chain-level metrics off the chains.
func (p *Peer) commit(b *ledger.Block, res *valResult) {
	if err := p.dbs[b.Channel].ApplyUpdates(&res.batch, b.Number); err != nil {
		panic(fmt.Sprintf("fabric: %s, channel %d, block %d: commit: %v", p.name, b.Channel, b.Number, err))
	}
	p.nw.vals[b.Channel].committed(b.Number)
	p.committedBlocks++
	if p.state == NodeRestarting {
		p.catchup--
		if p.catchup == 0 {
			p.state = NodeUp
			p.nw.col.RecordRecovery(time.Duration(p.nw.eng.Now() - p.recoverStart))
		}
	}

	if p != p.nw.metricsPeer() {
		return
	}
	// The chain keeps the cut block; only chain readers read these fields.
	b.ValidationCodes, b.CommitTime = res.codes, p.nw.eng.Now()
	if err := p.nw.chains[b.Channel].Append(b); err != nil {
		panic("fabric: canonical chain append: " + err.Error())
	}
	for i, tx := range b.Transactions {
		// Commit-event delivery for retry/closed-loop clients: the
		// metrics peer doubles as the event hub every client
		// subscribes to. The block's congestion hint rides along, like
		// metadata in a Fabric block event.
		p.nw.deliverOutcome(p.name, tx, res.codes[i], b.CongestionHint, b.Channel)
		if p.nw.cfg.StripAfterCommit {
			stripTx(tx)
		}
	}
}

// crash opens a crash-peer window: the peer process dies. Queued
// endorsements, in-flight responses and scheduled commits all carry
// the pre-crash epoch and die silently; blocks that were delivered
// but not yet committed become the start of the missed ledger suffix
// (the deliver stream keeps appending to it while the peer is down).
func (p *Peer) crash() {
	p.state = NodeCrashed
	p.epoch++
	for _, f := range p.inflight {
		p.backlog = append(p.backlog, f.b)
	}
	p.inflight = nil
}

// restart closes the window: the process comes back with its
// replica intact (state databases are durable) and replays the block
// suffix it missed through the normal commit path — the validator
// keeps a block's outcome until every peer has committed it, so the
// replay is deterministic.
// With missed blocks the peer passes through NodeRestarting until the
// replay commits; with none it is NodeUp immediately.
func (p *Peer) restart() {
	now := p.nw.eng.Now()
	p.busyUntil = now
	for i := range p.endorserSlots {
		p.endorserSlots[i] = now
	}
	backlog := p.backlog
	p.backlog = nil
	if len(backlog) == 0 {
		p.state = NodeUp
		return
	}
	p.state = NodeRestarting
	p.recoverStart = now
	p.catchup = len(backlog)
	for _, b := range backlog {
		p.DeliverBlock(b)
	}
}

// stripTx frees heavy payloads once a transaction is measured: the
// endorsement list and range-query observations can hold thousands of
// reads (DV scans all 1000 voters per vote).
func stripTx(tx *ledger.Transaction) {
	tx.Endorsements = nil
	if tx.RWSet != nil {
		tx.RWSet.StripRangeReads()
	}
}
