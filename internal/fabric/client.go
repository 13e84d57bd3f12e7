package fabric

import (
	"fmt"
	"time"

	"repro/internal/ledger"
	"repro/internal/sim"
	"repro/internal/workload"
)

// ClientDriver is one client-side network node: it drives one or more
// simulated Caliper-style load generators (§4.2: 5 on C1, 25 on C2)
// through the submit/endorse/order/commit loop. It draws invocations
// from the workload, runs the execution phase (collect endorsements
// from a policy-satisfying set of peers), assembles the envelope and
// submits it to an orderer node, and it owns the pending-transaction
// table and the whole coordination stack — retry policy, budget
// bucket, backpressure pacing, gossip estimate. The driver list is
// also the gossip mesh: each driver is one gossip participant
// regardless of how many members it speaks for.
//
// Two arrival modes exist. Open loop (the paper's §4.5 setup): Poisson
// arrivals at rate/clients tps per member, and — unless a RetryPolicy
// is configured — failed transactions are never resent. Closed loop:
// every member keeps Config.InFlightPerClient logical transactions
// outstanding and submits the next as soon as one resolves.
//
// When the run needs outcome tracking (a retry policy or closed-loop
// mode), the driver registers every submission in its pending table
// and listens for commit events delivered over the network by the
// metrics peer (and for early-abort events from the ordering
// service), exactly like a Fabric SDK client subscribed to a peer's
// block events. A failed attempt is resubmitted — re-endorsed from
// scratch with a fresh transaction id, same invocation — per the
// retry policy's backoff schedule.
//
// The driver speaks for `members` simulated clients starting at global
// client index firstID. With Config.CohortSize <= 1 that is one: the
// exact simulation, one state object per client ("client3"). A larger
// cohort size makes one driver ("cohort0") stand in for that many
// statistically identical clients. Per-member state is deliberately
// tiny — one endorser-rotation counter — so memory and event-queue
// pressure scale with the driver count (clients / CohortSize), not
// the client count, which is what makes 10^6-client sweeps tractable;
// everything heavy (pending map, policy, bucket, gossip window) is
// shared. The approximations are explicit and small:
//
//   - Open loop: members share one aggregate Poisson arrival process
//     at members × the per-client rate. By superposition this is
//     exactly the sum of the members' independent Poisson processes;
//     the submitting member is drawn uniformly per arrival.
//   - Closed loop: each member keeps its own in-flight window, driven
//     through the shared machinery — the same event cadence as exact
//     clients, amortized onto one object.
//   - Stateful retry policies (AdaptivePolicy), the retry budget and
//     the gossip window are shared: the cohort reacts to its members'
//     pooled outcome stream (a mean-field approximation). The budget's
//     refill rate and burst are scaled by the member count so the
//     aggregate retry allowance matches the exact simulation.
//
// With a stateless retry policy and no budget/gossip/backpressure,
// closed-loop cohort runs are byte-identical to the exact simulation
// (locked by TestCohortExactEquivalence); shared-state runs track the
// exact aggregates within tolerances instead. With one member the
// behaviour is the historical per-client simulation, bit for bit.
type ClientDriver struct {
	nw *Network
	// index is the driver's position in the network's driver list
	// (gossip peer sampling); firstID is the global index of the first
	// simulated client this driver speaks for.
	index   int
	firstID int
	members int
	name    string

	// rotation holds one endorser/orderer rotation counter per driven
	// member — the only per-member state, four bytes per simulated
	// client. A uint32 counts exactly what an int would while a member
	// submits fewer than 2^32 times.
	rotation []uint32

	// pending maps an in-flight attempt's transaction id (one per leg
	// for cross-channel transactions) to its logical transaction, for
	// commit-event correlation. Only populated when the network tracks
	// outcomes.
	pending map[string]*pendingTx

	// ctl is this driver's retry controller: the configured policy plus
	// the hooks the signal path below feeds (see controller).
	ctl controller
	// bucket is the retry budget (nil = unlimited). A cohort shares
	// one bucket across its members with refill rate and burst scaled
	// by member count, so the aggregate retry allowance matches the
	// exact simulation.
	bucket *tokenBucket

	// paces reports whether the run both enables the orderer's
	// congestion signal and tracks outcomes (the hint arrives on outcome
	// events): only then does the driver pace. hints holds the latest
	// congestion hint observed per channel on this driver's event
	// stream — each channel's ordering service computes its own.
	paces bool
	hints []float64

	// gossip is this driver's view of the client-to-client signal (nil
	// without Config.Gossip or outcome tracking); the network's resolved
	// HintSource selects which producer — orderer hint, gossip estimate,
	// or their max — feeds pacing and the hint-consuming controllers. A
	// cohort is one gossip participant: its members pool their outcome
	// windows and estimate.
	//
	// There is one signal path whatever the resolved SplitSignal says;
	// nil (scalar mode) only swaps the data at its two ends: classify
	// files every failure under SignalConflict, and signals collapses the
	// resolved pair to its max so controller and pacer read the same
	// number.
	gossip *gossipState
}

// pendingTx is one logical transaction tracked across resubmissions:
// the client retries the same invocation until it commits or the
// policy gives up. A cross-channel transaction (Config.CrossChannel)
// has two legs — one proposal per channel — and each attempt resolves
// only when both legs have reported; any failed leg fails the attempt.
type pendingTx struct {
	inv         workload.Invocation
	attempts    int      // submissions so far (1 = first attempt)
	firstSubmit sim.Time // first submission, end-to-end latency start
	lastSubmit  sim.Time // current attempt's submission (congestion evidence)
	member      int      // driven member this job belongs to

	// channels[:legs] are the channels this transaction spans (legs is
	// 1, or 2 for a cross-channel transaction). legsLeft counts the
	// current attempt's unresolved legs; legFailed/failCode latch the
	// first leg failure so the whole attempt fails with it.
	channels  [2]int
	legs      int
	legsLeft  int
	legFailed bool
	// open says a tracked run may still resubmit the job; refs counts
	// what queued names it: each endorser request until answered, each
	// deadline until it fires (see unref).
	open     bool
	refs     int32
	failCode ledger.ValidationCode
	// first is the storage of an attempt's first leg (see submitAttempt).
	first leg
}

// newDriver builds the driver for members simulated clients whose
// global indices start at firstID; index is its position in the
// network's driver list. Node names enter Transaction.ClientID, so an
// exact per-client run keeps the historical "client%d".
func newDriver(nw *Network, index, firstID, members int) *ClientDriver {
	name := fmt.Sprintf("client%d", index)
	if nw.cfg.cohortSize() > 1 {
		name = fmt.Sprintf("cohort%d", index)
	}
	c := &ClientDriver{
		nw: nw, index: index, firstID: firstID, members: members, name: name,
		rotation: make([]uint32, members),
		pending:  map[string]*pendingTx{},
		hints:    make([]float64, nw.channels),
		ctl:      newController(nw.ctl.Retry),
	}
	if nw.ctl.RetryBudget != nil {
		b := *nw.ctl.RetryBudget
		if members > 1 {
			// One bucket serves the whole cohort: scale the refill
			// stream and capacity so the aggregate retry allowance
			// equals members independent per-client buckets.
			b = b.withDefaults()
			b.RefillPerSec *= float64(members)
			b.Burst *= float64(members)
		}
		c.bucket = newTokenBucket(b)
	}
	c.paces = nw.ctl.tracking && nw.ctl.Backpressure != nil
	if nw.ctl.Gossip != nil {
		c.gossip = &gossipState{}
	}
	return c
}

// start schedules the driver's arrival process for the send window.
// Closed loop: every member's in-flight window opens, in member order,
// and each resolved transaction triggers the next. Open loop: Poisson
// arrivals at the configured rate — one aggregate process standing in
// for the members' independent arrivals (superposition), the
// submitting member drawn uniformly per arrival.
func (c *ClientDriver) start() {
	c.startGossip()
	if c.nw.cfg.ClosedLoop {
		c.openWindow()
		return
	}
	mean := time.Duration(float64(time.Second) * float64(c.nw.cfg.Clients) /
		(c.nw.cfg.Rate * float64(c.members)))
	var arrive func()
	arrive = func() {
		if c.nw.eng.Now() >= sim.Time(c.nw.cfg.Duration) {
			return // send window over
		}
		member := 0
		if c.members > 1 {
			member = c.nw.eng.Rand().Intn(c.members)
		}
		c.submitJob(member)
		c.nw.eng.After(c.nw.eng.Exponential(mean), arrive)
	}
	c.nw.eng.After(c.nw.eng.Exponential(mean), arrive)
}

// Name returns the driver's network node name.
func (c *ClientDriver) Name() string { return c.name }

// openWindow submits the initial closed-loop window for every driven
// member, in member order — exactly the submission order the exact
// simulation produces when its clients start in sequence.
func (c *ClientDriver) openWindow() {
	window := max(c.nw.cfg.InFlightPerClient, 1)
	for m := 0; m < c.members; m++ {
		for i := 0; i < window; i++ {
			c.submitJob(m)
		}
	}
}

// submitJob draws the next invocation from the workload, routes it to
// its home channel, decides whether it spans a second channel
// (Config.CrossChannel), and submits its first attempt on behalf of
// the given member.
func (c *ClientDriver) submitJob(member int) {
	j := c.nw.job()
	j.inv = c.nw.cfg.Workload.Next(c.nw.eng.Rand())
	j.firstSubmit, j.member, j.legs, j.open = c.nw.eng.Now(), member, 1, c.nw.ctl.tracking
	j.channels[0] = c.nw.channelOf(j.inv)
	if n := c.nw.channels; n > 1 && c.nw.cfg.CrossChannel > 0 &&
		c.nw.eng.Rand().Float64() < c.nw.cfg.CrossChannel {
		// Second leg on a uniformly drawn other channel.
		second := c.nw.eng.Rand().Intn(n - 1)
		if second >= j.channels[0] {
			second++
		}
		j.channels[1] = second
		j.legs = 2
	}
	c.submitAttempt(j)
}

// submitAttempt runs one submission of a logical transaction through
// the execution phase, one leg per spanned channel. Resubmissions
// replay the same invocation under fresh transaction ids (a retried
// Fabric transaction is a new proposal: new endorsements, new read set
// against current state).
func (c *ClientDriver) submitAttempt(j *pendingTx) {
	j.attempts++
	j.lastSubmit = c.nw.eng.Now()
	j.legsLeft = j.legs
	j.legFailed = false
	for i := 0; i < j.legs; i++ {
		// The first leg takes the job's own storage unless a late answer
		// or deadline could still land on it.
		l := &j.first
		if i > 0 || j.refs > 0 {
			l = new(leg)
		}
		c.submitLeg(j, j.channels[i], l)
	}
}

// job takes a job off the free list, or makes one.
func (nw *Network) job() (j *pendingTx) {
	if n := len(nw.jobFree); n > 0 {
		j, nw.jobFree = nw.jobFree[n-1], nw.jobFree[:n-1]
		return j
	}
	return new(pendingTx)
}

// unref drops n of what names j, and puts j back on the free list,
// zeroed, once nothing does and it is not open. Whatever held the job
// must not touch it afterwards.
func (nw *Network) unref(j *pendingTx, n int32) {
	if j.refs -= n; j.refs == 0 && !j.open {
		*j = pendingTx{}
		nw.jobFree = append(nw.jobFree, j)
	}
}

// submitLeg submits one channel's proposal of the current attempt into
// leg l: collect endorsements from a policy-satisfying set of peers on
// the leg channel's replicas, then assemble and order on that channel.
func (c *ClientDriver) submitLeg(j *pendingTx, channel int, l *leg) {
	tx := &ledger.Transaction{
		ID:         c.nw.nextTxID(c.firstID + j.member),
		ClientID:   c.name,
		Chaincode:  j.inv.Chaincode,
		Function:   j.inv.Function,
		SubmitTime: c.nw.eng.Now(),
	}
	if c.nw.ctl.tracking {
		c.pending[tx.ID] = j
	}
	c.rotation[j.member]++
	rot := int(c.rotation[j.member])
	endorserOrgs := c.nw.pol.RequiredEndorsers(rot)
	peerInOrg := rot % c.nw.cfg.PeersPerOrg

	*l = leg{proposal: proposal{inv: j.inv, channel: channel}, c: c, j: j, tx: tx,
		ends: make([]*ledger.Endorsement, 0, len(endorserOrgs))}
	j.refs += int32(len(endorserOrgs))
	for _, org := range endorserOrgs {
		peer := c.nw.peerOf(org, peerInOrg)
		send(c.nw, c.name, peer.name, c.nw.requests, request{p: peer, prop: &l.proposal, r: l})
	}

	// Client-side endorsement deadline (Config.Faults): if a crashed
	// or partitioned endorser keeps the set incomplete past the
	// timeout, the attempt fails as CLIENT_TIMEOUT and feeds the
	// normal retry path. Inert without fault injection or outcome
	// tracking.
	if ft := c.nw.faults; ft != nil && ft.EndorseTimeout > 0 && c.nw.ctl.tracking {
		j.refs++
		c.nw.endorseDeadlines.At(c.nw.eng.Now()+sim.Time(ft.EndorseTimeout), l)
	}
}

// leg is one channel's endorsement round of one attempt: the proposal
// its endorsers share, the transaction being built, and the
// endorsements collected so far — complete when ends is full (its
// capacity is the endorser count).
type leg struct {
	proposal
	c    *ClientDriver
	j    *pendingTx
	tx   *ledger.Transaction
	ends []*ledger.Endorsement
	// done latches once the endorsement phase resolved — a proposal
	// error, a complete endorsement set, or the client's endorsement
	// deadline — so late responses and a late deadline are no-ops.
	done bool
}

// endorsed is the reply hop: peer from answered the proposal.
func (l *leg) endorsed(from *Peer, e *ledger.Endorsement, err error) {
	send(l.c.nw, from.name, l.c.name, l.c.nw.replies, reply{l, e, err})
}

// reply is an endorser's answer on its way back to leg l.
type reply struct {
	l   *leg
	e   *ledger.Endorsement
	err error
}

// answer takes one endorser's response at the client.
func (l *leg) answer(e *ledger.Endorsement, err error) {
	switch {
	case l.done:
	case err != nil:
		// Proposal error (chaincode rejected the call). Counted
		// as an early abort: the attempt is dropped.
		l.done = true
		l.c.nw.col.RecordAbort(l.tx.SubmitTime, l.c.nw.eng.Now())
		l.c.legDone(l.j, l.tx.ID, ledger.AbortedInOrdering)
	default:
		l.ends = append(l.ends, e)
		if len(l.ends) == cap(l.ends) {
			l.done = true
			l.assemble()
		}
	}
	l.c.nw.unref(l.j, 1)
}

// timedOut is the client's endorsement deadline firing.
func (l *leg) timedOut() {
	if !l.done {
		l.done = true
		l.c.nw.col.RecordEndorseTimeout()
		l.c.legDone(l.j, l.tx.ID, ledger.ClientTimeout)
	}
	l.c.nw.unref(l.j, 1)
}

// assemble builds the envelope from the collected endorsements and
// sends it to an orderer node of the leg's channel (§2 step 3).
func (l *leg) assemble() {
	c, j, tx, channel, ends := l.c, l.j, l.tx, l.channel, l.ends
	tx.EndorseTime = c.nw.eng.Now()
	tx.Endorsements = ends
	tx.RWSet = ends[0].RWSet
	// Deduplicate identical rwsets (equal digests) so a transaction holds
	// one copy (DV endorsements carry 1000-key range observations).
	// Endorsers that reused the proposal's simulation share the pointer.
	consistent := true
	for _, e := range ends[1:] {
		if e.Digest == ends[0].Digest {
			e.RWSet = tx.RWSet
		} else {
			consistent = false
		}
	}
	if c.nw.cfg.ClientCheck && !consistent {
		// Optional early check (§2 step 3): drop mismatching
		// responses before ordering to save overhead. The failure is
		// still a failure.
		c.nw.col.RecordAbort(tx.SubmitTime, c.nw.eng.Now())
		c.legDone(j, tx.ID, ledger.AbortedInOrdering)
		return
	}
	if c.nw.cfg.SkipReadOnlySubmission && consistent && len(tx.RWSet.Writes) == 0 {
		// Recommendation #4 (§6.1): the query result is already in
		// hand after the execution phase; nothing needs ordering.
		c.nw.col.RecordServedRead(tx.SubmitTime, c.nw.eng.Now())
		c.legDone(j, tx.ID, ledger.Valid)
		return
	}
	os := c.nw.orderers[channel]
	tx.SnapshotHeight = c.nw.chains[channel].Height()
	orderer := os.NodeName(int(c.rotation[j.member]))
	send(c.nw, c.name, orderer, os.envelopes, tx)

	// Client-side submission deadline (Config.Faults): if no commit or
	// abort event arrives in time — the envelope died with a crashed
	// orderer, or the event path is cut — the attempt fails as
	// CLIENT_TIMEOUT and is retried.
	if ft := c.nw.faults; ft != nil && ft.SubmitTimeout > 0 && c.nw.ctl.tracking {
		j.refs++
		c.nw.submitDeadlines.At(c.nw.eng.Now()+sim.Time(ft.SubmitTimeout), l)
	}
}

// submitTimedOut is the client's submission deadline firing. The
// pending-table check makes a late deadline a no-op; a transaction that
// commits after its client gave up is counted orphaned in onOutcome.
func (l *leg) submitTimedOut() {
	if cur, ok := l.c.pending[l.tx.ID]; ok && cur == l.j {
		l.c.nw.col.RecordSubmitTimeout()
		l.c.legDone(l.j, l.tx.ID, ledger.ClientTimeout)
	}
	l.c.nw.unref(l.j, 1)
}

// outcome is a commit or early-abort event for driver c.
type outcome struct {
	c       *ClientDriver
	txID    string
	code    ledger.ValidationCode
	hint    float64
	channel int
}

// onOutcome handles a commit (or early-abort) event for one of this
// driver's pending attempts. Events for unknown transaction ids still
// refresh the channel's congestion hint — the orderer's signal is
// fresh regardless of which attempt carried it — but are otherwise
// ignored (the attempt was already resolved locally).
func (c *ClientDriver) onOutcome(o outcome) {
	if c.paces && c.nw.ctl.ordererFeeds {
		c.hints[o.channel] = o.hint
		// The one mode branch on the path. Scalar mode pushes the raw
		// hint to the controller on every outcome event (on multi-channel
		// runs "last hint seen", which is not the max over channels that
		// signals resolves). In split mode the orderer's hint is pure
		// congestion evidence: it feeds pacing via signals but must not
		// slide the controller's backoff, which the conflict estimate
		// drives instead.
		if c.nw.ctl.SplitSignal == nil {
			c.ctl.observeHint(o.hint)
		}
	}
	j, ok := c.pending[o.txID]
	if !ok {
		// With fault injection, a Valid outcome for an attempt the
		// client already timed out on means the transaction committed
		// after its submitter gave up (and possibly resubmitted): an
		// orphan — duplicate effect risk at the application layer.
		if c.nw.faults != nil && o.code == ledger.Valid {
			c.nw.col.RecordOrphan()
		}
		return
	}
	c.legDone(j, o.txID, o.code)
}

// legDone resolves one leg of a logical transaction's current attempt.
// Single-channel transactions have one leg, so the attempt resolves
// immediately; a cross-channel attempt waits for both legs and fails
// with the first leg failure (both commits are required). It is a
// no-op unless the run tracks outcomes.
func (c *ClientDriver) legDone(j *pendingTx, txID string, code ledger.ValidationCode) {
	if !c.nw.ctl.tracking {
		return
	}
	delete(c.pending, txID)
	if code != ledger.Valid && !j.legFailed {
		j.legFailed = true
		j.failCode = code
	}
	j.legsLeft--
	if j.legsLeft > 0 {
		return
	}
	if j.legFailed {
		c.attemptFailed(j, j.failCode)
		return
	}
	c.attemptResolved(j)
}

// attemptResolved finishes a logical transaction successfully: every
// leg of the attempt committed as valid (or was served directly as a
// read).
func (c *ClientDriver) attemptResolved(j *pendingTx) {
	c.nw.col.RecordAttempt(j.attempts, ledger.Valid)
	c.observe(ledger.Valid, j)
	c.nw.col.RecordJob(j.attempts, true, j.firstSubmit, c.nw.eng.Now())
	c.jobDone(j)
}

// attemptFailed records a failed attempt and either schedules a
// resubmission per the retry policy or abandons the transaction. The
// orderer's backpressure pacer stretches the policy's backoff by
// pacePause(hint) before the budget sees it. A configured retry budget
// gates every resubmission the policy asks for: an empty bucket
// defers the retry until a token accrues, or — with DropOnEmpty —
// abandons the transaction as a budget exhaustion. Pacing time is
// recorded only to the extent the pause actually moved the schedule:
// a dropped retry never waited, and a token wait that covers the
// paced backoff (in part or in full) absorbs that much of the pause.
func (c *ClientDriver) attemptFailed(j *pendingTx, code ledger.ValidationCode) {
	c.nw.col.RecordAttempt(j.attempts, code)
	c.observe(code, j)
	// The gossip estimate is pulled, not pushed: consult the signal once
	// per failure, refresh the controller's view right before it decides
	// the backoff (so the delay reflects the fleet's current alarm,
	// decay included), and reuse the same consultation for the pacer
	// below. The two values route apart: the conflict signal slides the
	// hint-consuming controller's backoff, the congestion signal
	// (orderer hints included) drives the pacer.
	gossipFeeds := c.ctl.consumesHint() && c.nw.ctl.gossipFeeds
	var hint float64
	if gossipFeeds || c.paces {
		conflict, congestion := c.signals()
		if gossipFeeds {
			c.ctl.observeHint(conflict)
		}
		hint = congestion
	}
	if delay, ok := c.ctl.NextDelay(j.attempts, c.nw.eng.Rand()); ok {
		var pause time.Duration
		if c.paces {
			pause = pacePause(hint)
		}
		delay += pause
		if c.bucket != nil {
			wait, granted := c.bucket.take(c.nw.eng.Now(), ClassifyOutcome(code))
			if !granted {
				c.nw.col.RecordBudgetExhausted()
				c.nw.col.RecordJob(j.attempts, false, j.firstSubmit, c.nw.eng.Now())
				c.jobDone(j)
				return
			}
			if wait > delay {
				// The token becomes available only after the policy's
				// (paced) backoff would have fired: the budget alone
				// delays this retry, so none of the pause counts as
				// pacer-added time.
				c.nw.col.RecordDeferStart()
				c.nw.retries.At(c.nw.eng.Now()+sim.Time(wait), jobTimer{c: c, j: j, deferred: true})
				return
			}
			if unpaced := delay - pause; wait > unpaced {
				// The token wait already covers part of the pause:
				// only the remainder stretched the schedule.
				pause = delay - wait
			}
		}
		if pause > 0 {
			c.nw.col.RecordPaced(pause)
		}
		c.nw.retries.At(c.nw.eng.Now()+sim.Time(delay), jobTimer{c: c, j: j})
		return
	}
	c.nw.col.RecordJob(j.attempts, false, j.firstSubmit, c.nw.eng.Now())
	c.jobDone(j)
}

// jobTimer is driver c's wait before retrying job j (deferred: waiting
// for a budget token), or before member's next job.
type jobTimer struct {
	c        *ClientDriver
	j        *pendingTx
	deferred bool
	member   int
}

// signals resolves the two client signals from the configured
// producer(s): the conflict estimate (gossip only — the orderer has no
// conflict view) and the congestion estimate (the max of the
// per-channel orderer hints last seen on this driver's event stream
// and the gossiped congestion component, per HintSource). Each
// consultation of the gossip estimate records the age of the
// information behind it — the staleness-at-use metric. Scalar mode
// collapses the pair to its max: one number for backoff and pacing
// alike.
func (c *ClientDriver) signals() (conflict, congestion float64) {
	if c.nw.ctl.ordererFeeds {
		for _, ch := range c.hints {
			if ch > congestion {
				congestion = ch
			}
		}
	}
	if c.nw.ctl.gossipFeeds {
		e, stale := c.gossip.estimate(c.nw.eng.Now())
		c.nw.col.RecordGossipUse(stale)
		conflict = e.Conflict
		if e.Congestion > congestion {
			congestion = e.Congestion
		}
	}
	if c.nw.ctl.SplitSignal == nil {
		if congestion > conflict {
			conflict = congestion
		}
		return conflict, conflict
	}
	return conflict, congestion
}

// classify files one attempt outcome under its signal class. Split
// mode uses the total ClassifyOutcome map and additionally counts an
// attempt whose submit→resolution latency reached 2 × BlockTimeout as
// congestion evidence (see SplitSignal); scalar mode files every
// failure under SignalConflict and never applies the latency rule.
func (c *ClientDriver) classify(code ledger.ValidationCode, j *pendingTx) (class SignalClass, congested bool) {
	if c.nw.ctl.SplitSignal == nil {
		if code != ledger.Valid {
			return SignalConflict, false
		}
		return SignalNone, false
	}
	latency := time.Duration(c.nw.eng.Now() - j.lastSubmit)
	return ClassifyOutcome(code), latency >= 2*c.nw.cfg.BlockTimeout
}

// observe feeds one classified attempt outcome to the controller —
// sampling its resulting backoff level, if it has one, for the
// trajectory summary — and slides it into the gossip windows. Inert
// (and rng-neutral) for stateless policies without Config.Gossip.
func (c *ClientDriver) observe(code ledger.ValidationCode, j *pendingTx) {
	class, congested := c.classify(code, j)
	c.ctl.observeClass(class)
	if d, ok := c.ctl.backoffLevel(); ok {
		c.nw.col.RecordBackoffSample(d)
	}
	if c.gossip != nil {
		c.gossip.observe(class, congested)
	}
}

// startGossip schedules this driver's gossip rounds: every Period the
// driver samples Fanout distinct peer drivers and sends them its
// current estimate over the network model, like an SDK-side gossip
// mesh. The estimate trajectory is sampled once per round. Rounds run
// for the whole simulation (retries continue through the drain, so
// the signal must too); the engine simply stops executing them at the
// deadline.
func (c *ClientDriver) startGossip() {
	if c.gossip == nil || c.nw.ctl.Gossip.Period <= 0 || len(c.nw.drivers) < 2 {
		return
	}
	c.nw.eng.Tick(c.nw.ctl.Gossip.Period, c.gossipRound)
}

// gossipRound sends the driver's current estimate to Fanout sampled
// peer drivers. Peer sampling draws from the simulation rng, so rounds
// are deterministic per (config, seed) like every other random
// decision. In cohort mode each cohort is one gossip node — its
// members share the estimate they spread — so the mesh size is the
// driver count, not the simulated client count.
func (c *ClientDriver) gossipRound() {
	now := c.nw.eng.Now()
	est, _ := c.gossip.estimate(now)
	if c.nw.ctl.SplitSignal != nil {
		c.nw.col.RecordSplitSample(est.Conflict, est.Congestion)
	}
	c.nw.col.RecordGossipSample(est.Max())
	// Sample distinct peers other than self: the head of a permutation
	// of the n-1 other indices, into the network's scratch (sized to the
	// clamped fanout; startGossip guarantees n >= 2).
	picks := c.nw.gossipPicks
	c.nw.eng.PermPrefix(len(c.nw.drivers)-1, picks)
	for _, p := range picks {
		if p >= c.index {
			p++ // skip self
		}
		peer := c.nw.drivers[p]
		c.nw.col.RecordGossipMessage()
		m := c.nw.gossipMsg()
		m.to, m.est, m.sentAt = peer, est, now
		c.nw.net.Send(c.name, peer.Name(), m.deliver)
	}
}

// gossipMsg is one gossip message in flight: its receiver and the
// sender's estimate as of sentAt. deliver is bound once, when the
// message is made, and puts it back on the network's free list before
// merging it into the receiver's view by max-with-decay; a message the
// network model drops is left to the GC. A merge only updates the view:
// the controllers read it at their next backoff decision, the pacer at
// its next pause. A sim.Queue would add a second heap push and pop to
// every message of the mesh's heaviest traffic, and save no allocation.
type gossipMsg struct {
	to      *ClientDriver
	est     SplitEstimate
	sentAt  sim.Time
	deliver func()
}

// gossipMsg takes a message off the free list, or makes one.
func (nw *Network) gossipMsg() *gossipMsg {
	if n := len(nw.gossipFree); n > 0 {
		m := nw.gossipFree[n-1]
		nw.gossipFree = nw.gossipFree[:n-1]
		return m
	}
	m := &gossipMsg{}
	m.deliver = func() {
		to, est, sentAt := m.to, m.est, m.sentAt
		nw.gossipFree = append(nw.gossipFree, m)
		if to.gossip.merge(est, sentAt, nw.eng.Now()) {
			nw.col.RecordGossipMerge()
		}
	}
	return m
}

// jobDone closes a logical transaction; in closed-loop mode it keeps
// the member's in-flight window full while the send window is open,
// waiting out the configured think time first. The backpressure pacer
// delays new closed-loop work too — the shared signal throttles fresh
// load, not just retries — but only the congestion signal paces: under
// Config.SplitSignal a conflict storm does not throttle fresh load.
// With no think time and no pacing the next job starts synchronously —
// the historical behaviour, with no extra events and no extra rng
// draws.
func (c *ClientDriver) jobDone(j *pendingTx) {
	member := j.member
	j.open = false
	c.nw.unref(j, 0)
	if !c.nw.cfg.ClosedLoop || c.nw.eng.Now() >= sim.Time(c.nw.cfg.Duration) {
		return
	}
	think := c.nw.cfg.ThinkTime.sample(c.nw.eng)
	if c.paces {
		_, congestion := c.signals()
		if pause := pacePause(congestion); pause > 0 {
			c.nw.col.RecordPaced(pause)
			think += pause
		}
	}
	if think <= 0 {
		c.submitJob(member)
		return
	}
	c.nw.thinks.At(c.nw.eng.Now()+sim.Time(think), jobTimer{c: c, member: member})
}
