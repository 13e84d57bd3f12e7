package fabric

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/chaincode"
	"repro/internal/consensus"
	"repro/internal/costmodel"
	"repro/internal/fabcrypto"
	"repro/internal/ledger"
	"repro/internal/metrics"
	"repro/internal/netem"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/statedb"
	"repro/internal/workload"
)

// Network is a fully wired simulated Fabric deployment. A deployment
// spans Config.Channels channels: each channel owns its own ordering
// pipeline, validator, hash chain and world state with a view per peer
// (indexed by channel everywhere below), while peers, clients and the
// consensus substrate are shared across channels exactly like a real
// Fabric network joins one peer set to many channels over one Kafka
// cluster. Single-channel runs use index 0 throughout and behave
// bit-for-bit like the historical deployment.
type Network struct {
	cfg Config

	eng      *sim.Engine
	net      *netem.Model
	msp      *fabcrypto.MSP
	pol      *policy.Policy
	orgs     []string
	peers    []*Peer
	orderers []*OrderingService
	vals     []*validator
	chains   []*ledger.Chain
	col      *metrics.Collector
	// channels is the resolved channel count (>= 1).
	channels int

	dbCosts costmodel.DBCosts
	variant Variant
	txSeq   uint64
	// stub is the one chaincode stub every simulation runs on.
	stub *chaincode.Stub
	// memoHits counts endorsements that reused their proposal's first
	// simulation, memoMisses those that found one and had to simulate
	// anyway because their replica differed on something it read (tests
	// only: a change that disables the reuse must fail a test, not just a
	// benchmark).
	memoHits, memoMisses uint64

	// ctl is the resolved client control plane (see resolvedControl).
	ctl resolvedControl
	// faults is the resolved fault schedule (scenario expanded into
	// events), nil when Config.Faults is unset — the subsystem is then
	// fully inert: no events are scheduled, no rng is drawn, and the
	// lifecycle state of every node stays NodeUp forever.
	faults *Faults
	// drivers is the client-driver list — one per client, or one per
	// cohort of Config.CohortSize clients — in start order. It is also
	// the gossip mesh.
	drivers []*ClientDriver
	// gossipPicks is the peer-sampling scratch every gossip round fills,
	// as long as the fanout clamped to the other drivers; gossipFree
	// holds delivered messages for later rounds (one engine goroutine per
	// network: no lock). A steady-state round allocates nothing.
	gossipPicks []int
	gossipFree  []*gossipMsg
	// Inboxes (sim.Queue) of what any peer or driver receives, by kind.
	requests, starts                  *sim.Queue[request]
	answers                           *sim.Queue[answer]
	replies                           *sim.Queue[reply]
	retries, thinks                   *sim.Queue[jobTimer]
	endorseDeadlines, submitDeadlines *sim.Queue[*leg]
	outcomes                          *sim.Queue[outcome]
	// driversByName resolves a transaction's ClientID to its driver
	// for commit-event delivery.
	driversByName map[string]*ClientDriver
}

// NewNetwork validates the config and builds the deployment: MSP
// identities, the genesis world state of every channel with a view of
// it per peer, one consenter and ordering service per channel, and
// the client drivers.
func NewNetwork(cfg Config) (*Network, error) {
	if cfg.Variant == nil {
		cfg.Variant = Vanilla{}
	}
	cfg.Variant.Adjust(&cfg)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.LAN == (netem.Link{}) {
		cfg.LAN = netem.DefaultLAN()
	}

	nw := &Network{
		cfg:           cfg,
		eng:           sim.NewEngine(cfg.Seed),
		msp:           fabcrypto.NewMSP(fmt.Sprintf("hyperlab-%d", cfg.Seed)),
		col:           metrics.NewCollector(),
		channels:      cfg.channels(),
		dbCosts:       costmodel.ForKind(cfg.DBKind),
		variant:       cfg.Variant,
		stub:          chaincode.NewStub(nil),
		ctl:           cfg.Control.resolve(cfg.ClosedLoop),
		driversByName: map[string]*ClientDriver{},
	}
	nw.net = netem.New(nw.eng, cfg.LAN)
	nw.requests = sim.NewQueue(nw.eng, func(q request) { q.p.endorse(q.prop, q.r) })
	nw.starts = sim.NewQueue(nw.eng, request.work)
	nw.answers = sim.NewQueue(nw.eng, answer.send)
	nw.replies = sim.NewQueue(nw.eng, func(m reply) { m.l.answer(m.e, m.err) })
	nw.retries = sim.NewQueue(nw.eng, func(t jobTimer) {
		if t.deferred {
			nw.col.RecordDeferEnd()
		}
		t.c.submitAttempt(t.j)
	})
	nw.thinks = sim.NewQueue(nw.eng, func(t jobTimer) {
		if nw.eng.Now() < sim.Time(nw.cfg.Duration) { // else the window closed while thinking
			t.c.submitJob(t.member)
		}
	})
	nw.endorseDeadlines = sim.NewQueue(nw.eng, (*leg).timedOut)
	nw.submitDeadlines = sim.NewQueue(nw.eng, (*leg).submitTimedOut)
	nw.outcomes = sim.NewQueue(nw.eng, func(o outcome) { o.c.onOutcome(o) })
	nw.applySpeedFactor()

	for i := 0; i < cfg.Orgs; i++ {
		nw.orgs = append(nw.orgs, fabcrypto.OrgName(i))
	}
	nw.pol = policy.Build(cfg.Policy, nw.orgs)

	// Genesis: run Init once, load it at height 0.
	stub := chaincode.NewStub(statedb.New(cfg.DBKind))
	if err := cfg.Chaincode.Init(stub); err != nil {
		return nil, fmt.Errorf("fabric: chaincode init: %w", err)
	}
	genesis := statedb.Load(cfg.DBKind, stub.Writes())

	// Each channel anchors its own hash chain with a genesis block 0.
	for ch := 0; ch < nw.channels; ch++ {
		chain := ledger.NewChain()
		gb := &ledger.Block{Number: 0, Channel: ch}
		gb.Hash = gb.ComputeHash()
		if err := chain.Append(gb); err != nil {
			return nil, err
		}
		nw.chains = append(nw.chains, chain)
	}

	// One world state per channel: its validator writes it, and every
	// peer reads it through a view at the peer's own savepoint.
	nw.vals = append(nw.vals, newValidator(nw, genesis))
	for len(nw.vals) < nw.channels {
		nw.vals = append(nw.vals, newValidator(nw, genesis.Clone(0)))
	}
	for o := 0; o < cfg.Orgs; o++ {
		org := nw.orgs[o]
		for p := 0; p < cfg.PeersPerOrg; p++ {
			dbs := make([]statedb.VersionedDB, nw.channels)
			for ch := range dbs {
				dbs[ch] = statedb.View(nw.vals[ch].db)
			}
			peer := newPeer(nw, org, fabcrypto.PeerName(org, p), dbs)
			if cfg.DelayOrg == o {
				nw.net.Inject(peer.name, cfg.DelayLink)
			}
			nw.peers = append(nw.peers, peer)
		}
	}

	// One ordering service per channel, each with its own Kafka
	// instance. The leader's broker name is fixed ("kafka0"), so all
	// channels share its network location — like many Fabric channels
	// backed by one Kafka cluster.
	kcfg := consensus.DefaultKafkaConfig()
	kcfg.Brokers = cfg.Orderers
	kcfg.MinISR = min(kcfg.MinISR, kcfg.Brokers)
	for ch := 0; ch < nw.channels; ch++ {
		nw.orderers = append(nw.orderers,
			newOrderingService(nw, consensus.NewKafka(nw.eng, nw.net, kcfg), ch))
	}

	// Client drivers: one per CohortSize clients (the last takes the
	// remainder); size 1 is the exact per-client simulation.
	for first, size := 0, cfg.cohortSize(); first < cfg.Clients; first += size {
		d := newDriver(nw, len(nw.drivers), first, min(size, cfg.Clients-first))
		nw.drivers = append(nw.drivers, d)
		nw.driversByName[d.name] = d
	}
	if g := nw.ctl.Gossip; g != nil {
		// A fanout at or above the driver count sends to every peer.
		nw.gossipPicks = make([]int, min(g.Fanout, len(nw.drivers)-1))
	}

	// Fault schedule last: the topology is known, so scenarios expand
	// against the real peer/org/channel counts. The target rng is
	// seed-derived but separate from the engine stream; with
	// Config.Faults nil this block is skipped entirely and the run is
	// byte-identical to a build without the subsystem.
	if cfg.Faults != nil {
		f := cfg.Faults.resolve(cfg.Seed, cfg.Duration, len(nw.peers), cfg.Orgs, nw.channels)
		nw.faults = &f
		nw.scheduleFaults()
	}
	return nw, nil
}

// deliverOutcome sends a commit (or early-abort) event for tx back to
// the submitting driver over the network, like a peer's block-event
// stream notifying a subscribed SDK client. The event carries the
// channel it happened on and that channel's congestion hint (stamped
// on the block, or the live value for early aborts); without
// Config.Backpressure the hint is always zero and clients ignore it.
// It is a no-op unless the run tracks outcomes (retry policy or
// closed-loop mode), so the default fire-and-forget configuration
// pays no extra events and no extra rng draws.
func (nw *Network) deliverOutcome(src string, tx *ledger.Transaction, code ledger.ValidationCode, hint float64, channel int) {
	if !nw.ctl.tracking {
		return
	}
	if cl := nw.driversByName[tx.ClientID]; cl != nil {
		send(nw, src, cl.name, nw.outcomes, outcome{cl, tx.ID, code, hint, channel})
	}
}

// send files v in q for when a message from from to to arrives, if it does.
func send[T any](nw *Network, from, to string, q *sim.Queue[T], v T) {
	if at, ok := nw.net.Arrival(from, to); ok {
		q.At(at, v)
	}
}

// channelOf routes an invocation to its home channel by hashing its
// first argument (FNV-1a) — in the bundled chaincodes that argument
// names the primary key, so a key's transactions always meet on the
// same channel and cross-channel MVCC conflicts cannot arise except
// through the explicit CrossChannel legs. Invocations without
// arguments hash the function name. Single-channel runs skip the hash
// entirely.
func (nw *Network) channelOf(inv workload.Invocation) int {
	if nw.channels == 1 {
		return 0
	}
	key := inv.Function
	if len(inv.Args) > 0 {
		key = inv.Args[0]
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return int(h % uint64(nw.channels))
}

// applySpeedFactor scales fixed per-block costs for the cluster size.
func (nw *Network) applySpeedFactor() {
	f := nw.cfg.SpeedFactor
	if f == 1 {
		return
	}
	scale := func(d time.Duration) time.Duration {
		return time.Duration(float64(d) / f)
	}
	nw.cfg.PeerCosts.BlockBase = scale(nw.cfg.PeerCosts.BlockBase)
	nw.cfg.OrdererCosts.BlockCut = scale(nw.cfg.OrdererCosts.BlockCut)
	nw.cfg.OrdererCosts.PerTx = scale(nw.cfg.OrdererCosts.PerTx)
	// PerDeliver is per-peer network fan-out, not CPU: it does not
	// shrink with a beefier cluster — the point of §5.3.1.
}

// Engine exposes the simulation engine (tests and failure injection).
func (nw *Network) Engine() *sim.Engine { return nw.eng }

// Netem exposes the network model (tests and failure injection).
func (nw *Network) Netem() *netem.Model { return nw.net }

// Chain returns channel 0's canonical ledger (the metrics peer's
// copy).
func (nw *Network) Chain() *ledger.Chain { return nw.chains[0] }

// Chains returns every channel's canonical ledger, indexed by
// channel.
func (nw *Network) Chains() []*ledger.Chain { return nw.chains }

// Orderer exposes channel 0's ordering service (tests, failure
// injection).
func (nw *Network) Orderer() *OrderingService { return nw.orderers[0] }

// Orderers returns every channel's ordering service, indexed by
// channel.
func (nw *Network) Orderers() []*OrderingService { return nw.orderers }

// Peers returns all peers.
func (nw *Network) Peers() []*Peer { return nw.peers }

// metricsPeer is the peer whose commits define the canonical chain and
// latency measurements (the first peer of the first org).
func (nw *Network) metricsPeer() *Peer { return nw.peers[0] }

// peerOf returns org's i'th peer.
func (nw *Network) peerOf(org string, i int) *Peer {
	for _, p := range nw.peers {
		if p.org == org {
			if i == 0 {
				return p
			}
			i--
		}
	}
	panic(fmt.Sprintf("fabric: no peer %d in org %s", i, org))
}

// nextTxID allocates a unique transaction id.
func (nw *Network) nextTxID(clientID int) string {
	nw.txSeq++
	return txID(nw.txSeq, clientID)
}

// txID renders fmt.Sprintf("tx%08d-c%02d", seq, clientID) for a
// non-negative client index, byte for byte — ids feed the block hash —
// in the one allocation of the string.
func txID(seq uint64, clientID int) string {
	var buf [48]byte // 4 fixed bytes and two numbers of at most 20 digits
	b := append(buf[:0], "tx"...)
	b = appendZeroPadded(b, seq, 1e7)
	b = append(b, "-c"...)
	b = appendZeroPadded(b, uint64(clientID), 10)
	return string(b)
}

// appendZeroPadded appends v in decimal, left-padded with zeros to the
// width of lim, a power of ten.
func appendZeroPadded(b []byte, v, lim uint64) []byte {
	for ; lim > 1 && v < lim; lim /= 10 {
		b = append(b, '0')
	}
	return strconv.AppendUint(b, v, 10)
}

// Run executes the experiment: clients send for cfg.Duration, then the
// network drains for up to cfg.Drain. The report reads each channel's
// chain and what never reaches one (aborts, served reads, client events).
func (nw *Network) Run() metrics.Report {
	for _, d := range nw.drivers {
		d.start()
	}
	nw.eng.RunUntil(sim.Time(nw.cfg.Duration + nw.cfg.Drain))
	for _, chain := range nw.chains {
		nw.col.RecordChain(chain)
	}
	return nw.col.Report()
}
