package fabric

import (
	"fmt"
	"time"

	"repro/internal/consensus"
	"repro/internal/ledger"
	"repro/internal/sim"
)

// OrderingService is the ordering phase (§2 steps 4–5): transactions
// arrive from clients, pass through the variant's early-abort hook,
// reach total order via the consenter, and are cut into blocks by
// count (Config.BlockSize, fixed for the run), byte size or timeout.
// Cut blocks are validated (once, deterministically) and streamed to
// every peer over FIFO links.
//
// The service is a serial server: variant reordering cost (Fabric++'s
// conflict graphs) and per-peer delivery cost occupy it, so expensive
// ordering work queues subsequent blocks — the mechanism behind
// Fabric++'s latency explosion on large range queries (§5.2.3) and
// Streamchain's collapse at high rates (§5.3.1).
type OrderingService struct {
	nw   *Network
	cons *consensus.Kafka
	// channel is the channel this service orders for; blocks it cuts
	// carry the id and extend that channel's hash chain.
	channel int

	pending      []*ledger.Transaction
	pendingBytes int
	timerArmed   bool
	timerEpoch   uint64

	busyUntil sim.Time

	blockNum uint64
	prevHash [32]byte

	// orderedCount counts transactions that reached total order, for
	// the backpressure hint's arrival-rate estimate.
	orderedCount uint64

	// Backpressure hint state (Config.Backpressure; inert otherwise):
	// the smoothed congestion hint published with each cut block, plus
	// the previous cut's time and ordered-count for the inter-cut
	// arrival-rate estimate.
	hint        float64
	lastCutAt   sim.Time
	lastOrdered uint64

	// names of the orderer nodes, for network addressing.
	nodeNames []string

	// Inboxes (sim.Queue): client envelopes, cut timers by epoch, cut
	// blocks at their ready time, and each peer's deliver stream.
	envelopes  *sim.Queue[*ledger.Transaction]
	timer      *sim.Queue[uint64]
	ready      *sim.Queue[*ledger.Block]
	deliveries []*sim.Queue[*ledger.Block]

	// state is the lifecycle state (see lifecycle.go; always NodeUp
	// without Config.Faults). A crash drops the volatile pending batch
	// and everything in flight; blockNum and prevHash survive — the
	// cut chain is durable — so the restarted service extends the same
	// hash chain and the peers' Append continuity is never violated.
	state NodeState
}

func newOrderingService(nw *Network, cons *consensus.Kafka, channel int) *OrderingService {
	os := &OrderingService{nw: nw, cons: cons, channel: channel}
	for i := 0; i < nw.cfg.Orderers; i++ {
		// Channel 0 keeps the historical names; higher channels get
		// their own orderer nodes, prefixed with the channel id.
		if channel == 0 {
			os.nodeNames = append(os.nodeNames, fmt.Sprintf("orderer%d", i))
		} else {
			os.nodeNames = append(os.nodeNames, fmt.Sprintf("ch%d-orderer%d", channel, i))
		}
	}
	os.prevHash = nw.chains[channel].Block(0).Hash
	os.envelopes = sim.NewQueue(nw.eng, os.Submit)
	os.timer = sim.NewQueue(nw.eng, os.timeout)
	os.ready = sim.NewQueue(nw.eng, os.deliver)
	for _, p := range nw.peers {
		os.deliveries = append(os.deliveries, sim.NewQueue(nw.eng, p.DeliverBlock))
	}
	cons.OnCommit(func(payload interface{}) { os.ordered(payload.(*ledger.Transaction)) })
	return os
}

// NodeName returns the i'th orderer's network name.
func (os *OrderingService) NodeName(i int) string {
	return os.nodeNames[i%len(os.nodeNames)]
}

// Submit receives a transaction envelope from a client (already on
// the orderer node — the client paid the network hop).
func (os *OrderingService) Submit(tx *ledger.Transaction) {
	if os.state == NodeCrashed {
		// The service is down; the envelope is silently lost (the
		// netem layer already drops client traffic to the node — this
		// guards direct calls). The client's submission deadline is
		// the recovery path.
		return
	}
	accept, cost := os.nw.variant.OnSubmit(tx)
	if cost > 0 {
		os.occupy(cost)
	}
	if !accept {
		// Early abort in the ordering phase: the client is notified;
		// the transaction never reaches the chain. The notification
		// carries the current congestion hint — the orderer is talking
		// to the client anyway.
		os.nw.col.RecordAbort(tx.SubmitTime, os.nw.eng.Now())
		os.nw.deliverOutcome(os.NodeName(0), tx, ledger.AbortedInOrdering, os.hint, os.channel)
		return
	}
	os.cons.Submit(tx)
}

// ordered consumes the total-order stream and feeds the block cutter.
func (os *OrderingService) ordered(tx *ledger.Transaction) {
	if os.state == NodeCrashed {
		// Consensus keeps running (the substrate is a separate node
		// set), but deliveries to a crashed service are lost with its
		// in-flight state; affected clients recover via the submission
		// deadline.
		return
	}
	os.occupy(os.nw.cfg.OrdererCosts.PerTx)
	os.orderedCount++
	os.pending = append(os.pending, tx)
	os.pendingBytes += txBytes(tx)
	switch {
	case len(os.pending) >= os.nw.cfg.BlockSize,
		os.nw.cfg.MaxBlockKB > 0 && os.pendingBytes >= os.nw.cfg.MaxBlockKB*1024:
		os.cut() // full by count or by bytes
	case !os.timerArmed:
		os.timerArmed = true
		os.timer.At(os.nw.eng.Now()+sim.Time(os.nw.cfg.BlockTimeout), os.timerEpoch)
	}
}

// timeout is the cut timer armed under epoch expiring.
func (os *OrderingService) timeout(epoch uint64) {
	if os.timerEpoch != epoch {
		// A cut by count or bytes consumed the batch this timer was
		// armed for; that cut already disarmed the service, and any
		// transactions ordered since have re-armed a fresh timer under
		// the new epoch.
		return
	}
	// This timer is spent either way: disarm before cutting so that
	// even a drained pending queue can never strand the service
	// armed-but-idle (a state where no future arrival would start a
	// timeout clock).
	os.timerArmed = false
	if len(os.pending) > 0 {
		os.cut()
	}
}

// txBytes approximates the envelope's wire size for the max-bytes cut
// condition.
func txBytes(tx *ledger.Transaction) int {
	n := 256 // headers, signatures, ids
	if tx.RWSet != nil {
		n += 48 * len(tx.RWSet.Reads)
		for _, w := range tx.RWSet.Writes {
			n += len(w.Key) + len(w.Value) + 16
		}
		for _, rq := range tx.RWSet.RangeQueries {
			n += 48 * len(rq.Reads)
		}
	}
	n += 96 * len(tx.Endorsements)
	return n
}

// cut assembles the pending batch into a block, runs the variant's
// reordering hook, validates the block, and schedules delivery. When
// the orderer is a hint producer it first refreshes the congestion
// hint, so the hint published with this block (and with this batch's
// early aborts) reflects the orderer's load at cut time. Under
// HintSource "gossip" it is not: blocks carry a zero hint and no hint
// samples are recorded, so any coordination effect is attributable to
// the clients sharing their own estimates.
func (os *OrderingService) cut() {
	// The block gets an exact-size copy; the pending buffer is reused.
	batch := append(make([]*ledger.Transaction, 0, len(os.pending)), os.pending...)
	clear(os.pending)
	os.pending = os.pending[:0]
	os.pendingBytes = 0
	os.timerArmed = false
	os.timerEpoch++
	if os.nw.ctl.ordererFeeds {
		os.updateHint()
	}

	kept, aborted, cost := os.nw.variant.OnCut(batch)
	now := os.nw.eng.Now()
	for _, tx := range aborted {
		os.nw.col.RecordAbort(tx.SubmitTime, now)
		os.nw.deliverOutcome(os.NodeName(0), tx, ledger.AbortedInOrdering, os.hint, os.channel)
	}
	if len(kept) == 0 {
		if cost > 0 {
			os.occupy(cost)
		}
		return
	}

	os.blockNum++
	b := &ledger.Block{
		Number:         os.blockNum,
		PrevHash:       os.prevHash,
		Transactions:   kept,
		Channel:        os.channel,
		CutTime:        now,
		CongestionHint: os.hint,
	}
	b.Hash = b.SealHash()
	os.prevHash = b.Hash

	// Validation outcome is deterministic; compute it once, in cut
	// order, so peers can replay it regardless of delivery timing.
	os.nw.vals[os.channel].result(b)

	service := os.nw.cfg.OrdererCosts.BlockCut + cost +
		time.Duration(len(os.nw.peers))*os.nw.cfg.OrdererCosts.PerDeliver
	os.ready.At(os.occupy(service), b)
}

// deliver streams b to every peer at its (serialized) ready time. Each
// peer is statically subscribed to one orderer node and the link is
// FIFO, so blocks arrive at every peer in cut order.
func (os *OrderingService) deliver(b *ledger.Block) {
	for i, p := range os.nw.peers {
		os.deliveries[i].At(os.nw.net.OrderedArrival(os.NodeName(i), p.name), b)
	}
}

// CongestionHint reports the current smoothed backpressure hint
// (diagnostics and tests; zero without Config.Backpressure).
func (os *OrderingService) CongestionHint() float64 { return os.hint }

// updateHint refreshes the smoothed congestion hint at a block cut.
// The raw sample combines the two load signals a real ordering
// service can observe about itself:
//
//   - backlog: how far the serial server's committed work (busyUntil)
//     extends past the current time, in units of the block timeout —
//     the mechanism behind the latency explosions of §5.2.3/§5.3.1;
//   - pressure: the ordered-transaction arrival rate over the
//     inter-cut window versus the estimated steady-state service rate
//     at the current block size; only the excess above 1.0 counts.
//
// The sum is clamped to [0,1] and folded into an EWMA so one bursty
// cut cannot whipsaw every client's pacing. Pure arithmetic on
// simulation state: no rng draws, no extra events, deterministic at
// any experiment parallelism.
func (os *OrderingService) updateHint() {
	now := os.nw.eng.Now()
	raw := 0.0
	if os.busyUntil > now {
		raw = float64(os.busyUntil-now) / float64(os.nw.cfg.BlockTimeout)
	}
	if dt := now - os.lastCutAt; dt > 0 {
		arrivalRate := float64(os.orderedCount-os.lastOrdered) / time.Duration(dt).Seconds()
		if svc := os.serviceRate(); svc > 0 && arrivalRate > svc {
			raw += arrivalRate/svc - 1
		}
	}
	os.hint = hintSmoothing*min(raw, 1) + (1-hintSmoothing)*os.hint
	os.lastCutAt = now
	os.lastOrdered = os.orderedCount
	os.nw.col.RecordHintSample(os.hint)
}

// serviceRate estimates the steady-state transactions/second the
// serial ordering service can drain at the current block size: the
// per-transaction ordering cost plus the fixed per-block cost
// (cut + per-peer delivery fan-out) amortized over a full block.
func (os *OrderingService) serviceRate() float64 {
	fixed := os.nw.cfg.OrdererCosts.BlockCut +
		time.Duration(len(os.nw.peers))*os.nw.cfg.OrdererCosts.PerDeliver
	perTx := os.nw.cfg.OrdererCosts.PerTx + fixed/time.Duration(os.nw.cfg.BlockSize)
	if perTx <= 0 {
		return 0
	}
	return float64(time.Second) / float64(perTx)
}

// crash opens a crash-orderer window: the service dies. The
// volatile pending batch is lost and the armed cut timer dies with
// the process (epoch bump); transactions in the consensus pipeline
// are dropped on delivery. blockNum and prevHash are retained — the
// cut chain is durable state.
func (os *OrderingService) crash() {
	os.state = NodeCrashed
	os.pending = nil
	os.pendingBytes = 0
	os.timerArmed = false
	os.timerEpoch++
}

// restart closes the window: the service resumes with an empty
// batch, idle (pre-crash serial work is gone), extending the durable
// chain at the retained block number.
func (os *OrderingService) restart() {
	os.state = NodeUp
	os.busyUntil = min(os.busyUntil, os.nw.eng.Now())
}

// occupy charges d of serial ordering-service time and returns the
// completion time.
func (os *OrderingService) occupy(d time.Duration) sim.Time {
	os.busyUntil = max(os.busyUntil, os.nw.eng.Now()) + sim.Time(d)
	return os.busyUntil
}
