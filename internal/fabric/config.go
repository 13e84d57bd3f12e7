// Package fabric assembles the full simulated Hyperledger Fabric
// network: clients, endorsing peers, the Kafka-based ordering service,
// the block cutter, and the validation/commit pipeline that produces
// the paper's three failure classes. The Execute-Order-Validate
// protocol runs for real; virtual time comes from the cost model.
package fabric

import (
	"fmt"
	"math"
	"time"

	"repro/internal/chaincode"
	"repro/internal/costmodel"
	"repro/internal/ledger"
	"repro/internal/netem"
	"repro/internal/policy"
	"repro/internal/statedb"
	"repro/internal/workload"
)

// Config describes one experiment run. NewNetwork validates it.
type Config struct {
	Seed int64

	// Topology (Table 3 / §4.2).
	Orgs        int
	PeersPerOrg int
	Orderers    int
	Clients     int

	// Channels shards the chaincode keyspace across independent
	// channels — Fabric's real horizontal-scaling story. Each channel
	// gets its own ordering service (sharing the consensus substrate,
	// like channels sharing one Kafka cluster), its own validator and
	// hash chain, and its own world state, read by every peer.
	// Transactions route to a channel by hashing their first invocation
	// argument, so a contended entity always lands on the same channel
	// and contention is preserved within shards. 0 or 1 keeps the
	// historical single-channel network, byte-identical to builds
	// without the field. Multi-channel runs support only the vanilla
	// Fabric 1.4 variant (the fork hooks keep cross-block state that is
	// not channel-aware).
	Channels int

	// CrossChannel is the fraction of transactions in [0,1) that span
	// two channels when Channels >= 2: the client submits the same
	// invocation on its home channel and one uniformly drawn second
	// channel, and the logical transaction succeeds only if both legs
	// commit — the application-level two-leg pattern real Fabric apps
	// use, since channels have no atomic cross-channel commit. 0 (the
	// default) draws no rng and submits single-channel only.
	CrossChannel float64

	// CohortSize makes client count a cheap parameter instead of an
	// object count: one cohort state object drives CohortSize
	// statistically identical clients, sharing the heavy retry/budget/
	// AIMD/gossip state while keeping only a per-member endorser
	// rotation (a few bytes per simulated client). Open-loop cohorts
	// submit on one aggregate Poisson process with the submitting
	// member drawn from the sim rng; closed-loop cohorts drive each
	// member's window exactly and reproduce the per-client simulation
	// byte-identically when the shared state is stateless (see
	// ClientDriver). 0 or 1 keeps the exact one-object-per-client
	// simulation.
	CohortSize int

	// Ordering (§2 step 4).
	BlockSize    int           // block size: max transactions per block
	BlockTimeout time.Duration // block timeout
	MaxBlockKB   int           // block max bytes, in KiB

	// State database and endorsement policy.
	DBKind statedb.Kind
	Policy policy.Name

	// Load.
	Rate     float64       // transaction arrival rate, tps (all clients combined)
	Duration time.Duration // send window (paper: 3 minutes)
	Drain    time.Duration // extra virtual time to let in-flight txs finish

	// Application.
	Chaincode chaincode.Chaincode
	Workload  workload.Generator

	// Network emulation (§5.1.7): inject extra delay on one org.
	LAN       netem.Link
	DelayOrg  int // -1 = none
	DelayLink netem.Link

	// Cost calibration.
	PeerCosts    costmodel.PeerCosts
	OrdererCosts costmodel.OrdererCosts
	// SpeedFactor scales fixed per-block costs down for larger
	// clusters (C2 has more resources, §5.1.1).
	SpeedFactor float64

	// ClientCheck enables the optional client-side verification of
	// endorsement consistency (§2 step 3): mismatching responses are
	// dropped before ordering.
	ClientCheck bool

	// SkipReadOnlySubmission implements the paper's recommendation #4
	// (§6.1): transactions whose simulation produced no writes are
	// not submitted for ordering — the client already has the result
	// after the execution phase. They are counted as served reads
	// instead of chain transactions.
	SkipReadOnlySubmission bool

	// Control is the client control plane: retry policy, retry budget,
	// backpressure, gossip, hint source and split signal. It is embedded,
	// so cfg.Retry, cfg.RetryBudget, ... read and write its fields.
	Control

	// ClosedLoop switches clients from open-loop Poisson arrivals to
	// a closed loop: each client keeps InFlightPerClient logical
	// transactions outstanding and submits the next one as soon as one
	// resolves (commits, is abandoned, or is served as a read), after
	// an optional ThinkTime wait. Rate is ignored for arrivals in this
	// mode. Default false (open loop).
	ClosedLoop bool

	// InFlightPerClient is the closed-loop window per client
	// (outstanding logical transactions). 0 defaults to 1. Ignored in
	// open-loop mode.
	InFlightPerClient int

	// ThinkTime is the closed-loop think-time distribution: how long a
	// client waits between resolving one logical transaction and
	// submitting the next (fixed, exponential or log-normal, mean in
	// virtual time). The zero value means no think time — the
	// historical closed-loop behaviour. Ignored in open-loop mode.
	ThinkTime ThinkTime

	// Faults installs a deterministic fault-injection schedule: timed
	// crash/restart windows for peers and ordering services, netem
	// partitions, stragglers and loss regimes, a slow state-database
	// window, and client-side endorsement/submission deadlines (see
	// the Faults type). Schedules run on the virtual clock and draw
	// their targets from a seed-derived rng separate from the
	// simulation stream, so faulted runs are deterministic at any
	// experiment parallelism. Nil (the default) disables the subsystem
	// completely — runs are byte-identical to a build without it.
	Faults *Faults

	// Variant plugs in a Fabric fork (Fabric++, Streamchain,
	// FabricSharp). Nil runs vanilla Fabric 1.4.
	Variant Variant

	// StripAfterCommit frees heavy transaction payloads (endorsement
	// lists, range observations) once a block is committed and
	// measured, bounding memory on range-heavy workloads. The block
	// hash covers the range observations, so a chain stripped of any
	// can no longer be re-hashed: Chain.Verify then reports
	// ledger.ErrStripped (not a tamper mismatch). Turn it off to audit.
	StripAfterCommit bool
}

// DefaultConfig returns the paper's default control variables
// (Table 3) on the small C1 cluster: 2 orgs × 2 peers, 3 orderers
// (kafka), 5 clients, block size 100, CouchDB, policy P0, 100 tps.
// Chaincode and Workload must still be set by the caller.
func DefaultConfig() Config {
	return Config{
		Seed:             1,
		Orgs:             2,
		PeersPerOrg:      2,
		Orderers:         3,
		Clients:          5,
		BlockSize:        100,
		BlockTimeout:     2 * time.Second,
		MaxBlockKB:       10240,
		DBKind:           statedb.CouchDB,
		Policy:           policy.P0,
		Rate:             100,
		Duration:         3 * time.Minute,
		Drain:            time.Minute,
		LAN:              netem.DefaultLAN(),
		DelayOrg:         -1,
		PeerCosts:        costmodel.DefaultPeerCosts(),
		OrdererCosts:     costmodel.DefaultOrdererCosts(),
		SpeedFactor:      1,
		StripAfterCommit: true,
	}
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	switch {
	case c.Orgs < 2:
		return fmt.Errorf("fabric: need >=2 orgs, got %d", c.Orgs)
	case c.PeersPerOrg < 1:
		return fmt.Errorf("fabric: need >=1 peer per org, got %d peers", c.PeersPerOrg)
	case c.Orderers < 1:
		return fmt.Errorf("fabric: need >=1 orderer, got %d orderers", c.Orderers)
	case c.Clients < 1:
		return fmt.Errorf("fabric: need >=1 client, got %d clients", c.Clients)
	case c.BlockSize < 1:
		return fmt.Errorf("fabric: block size must be >= 1 transaction, got %d transactions", c.BlockSize)
	case c.BlockTimeout <= 0:
		return fmt.Errorf("fabric: block timeout must be > 0 of virtual time, got %v", c.BlockTimeout)
	case !validRate(c.Rate):
		return fmt.Errorf("fabric: arrival rate must be a finite rate > 0 tps, got %g", c.Rate)
	case c.Duration <= 0:
		return fmt.Errorf("fabric: duration must be > 0 of virtual time, got %v", c.Duration)
	case c.Drain < 0:
		return fmt.Errorf("fabric: drain must be >= 0 of virtual time, got %v", c.Drain)
	case c.DelayOrg < -1 || c.DelayOrg >= c.Orgs:
		return fmt.Errorf("fabric: delayed org index %d out of range for %d orgs; -1 = none", c.DelayOrg, c.Orgs)
	case c.Chaincode == nil:
		return fmt.Errorf("fabric: chaincode not set")
	case c.Workload == nil:
		return fmt.Errorf("fabric: workload not set")
	case !validRate(c.SpeedFactor):
		return fmt.Errorf("fabric: speed factor must be a finite factor > 0 (1 = unscaled), got %g", c.SpeedFactor)
	case c.InFlightPerClient < 0:
		return fmt.Errorf("fabric: in-flight window must be >= 0 transactions per client (0 = 1), got %d", c.InFlightPerClient)
	case c.Channels < 0:
		return fmt.Errorf("fabric: channel count must be >= 0 (0 or 1 = single channel), got %d channels", c.Channels)
	case c.CohortSize < 0:
		return fmt.Errorf("fabric: cohort size must be >= 0 clients per cohort (0 or 1 = exact per-client simulation), got %d", c.CohortSize)
	case math.IsNaN(c.CrossChannel) || c.CrossChannel < 0 || c.CrossChannel >= 1:
		return fmt.Errorf("fabric: cross-channel fraction must be in [0,1), got %g", c.CrossChannel)
	case c.CrossChannel > 0 && c.Channels < 2:
		return fmt.Errorf("fabric: cross-channel fraction %g needs >= 2 channels, got %d", c.CrossChannel, c.Channels)
	}
	if c.Channels > 1 && c.Variant != nil && c.Variant.Name() != (Vanilla{}).Name() {
		return fmt.Errorf("fabric: multi-channel sharding (%d channels) supports only the vanilla fabric-1.4 variant, got %q", c.Channels, c.Variant.Name())
	}
	if err := c.Control.Validate(); err != nil {
		return err
	}
	if err := c.ThinkTime.Validate(); err != nil {
		return err
	}
	if c.Faults != nil {
		if err := c.Faults.Validate(); err != nil {
			return err
		}
		if err := c.Faults.validateOverlap(c.Orgs*c.PeersPerOrg, c.channels()); err != nil {
			return err
		}
	}
	return nil
}

// validRate reports whether r can drive a Poisson arrival process: a
// zero, negative or non-finite rate has no finite positive mean
// inter-arrival time, and the arrival loop would never advance. A speed
// factor divides costs the same way.
func validRate(r float64) bool { return r > 0 && !math.IsInf(r, 1) }

// channels resolves the configured channel count (0 means 1).
func (c *Config) channels() int { return max(c.Channels, 1) }

// cohortSize resolves the configured cohort size (0 means 1, the
// exact per-client simulation).
func (c *Config) cohortSize() int { return max(c.CohortSize, 1) }

// Control is the client control plane of a run, one value: what a
// client does about a failed transaction (Retry, RetryBudget) and which
// shared signals it steers by (Backpressure, Gossip, HintSource,
// SplitSignal). The zero value is the paper's fire-and-forget client
// with every subsystem off, byte-identical to a build without them.
//
// Everything here acts on the client's outcome stream, so it needs
// outcome tracking: a Retry policy other than NoRetry, or
// Config.ClosedLoop. Without it the budget, pacing, gossip and the split
// are inert rather than an error (resolve drops them); only the
// orderer's hint computation, which needs no client, still runs.
//
// Config embeds Control, so its field names are Config's, and it must
// not grow a Name or String method: that would be promoted onto Config.
type Control struct {
	// Retry is the resubmission policy. Nil means NoRetry, the paper's
	// clients: failed transactions are never resent (§4.5). Any other
	// policy makes clients track pending transactions, listen for commit
	// events and resubmit failures on the policy's backoff schedule.
	// Stateful policies (AdaptivePolicy) are instantiated once per
	// client driver.
	Retry RetryPolicy
	// RetryBudget rate-limits resubmissions per client with a token
	// bucket, whatever Retry decides (see the RetryBudget type). Nil
	// means unlimited.
	RetryBudget *RetryBudget
	// Backpressure enables the orderer-driven congestion hint, stamped
	// onto commit events; clients pace resubmissions and new closed-loop
	// work by it, and it feeds BackpressurePolicy. See the Backpressure
	// type. Nil disables it.
	Backpressure *Backpressure
	// Gossip enables the client-to-client congestion estimate, merged by
	// max-with-decay (see the Gossip type). It feeds the same hint path
	// as the orderer's signal, selected by HintSource. Nil disables it.
	Gossip *Gossip
	// HintSource selects which producer feeds the hint clients pace by
	// and hint-consuming policies read: "orderer" (the default, also
	// ""), "gossip" (the orderer then computes no hints at all) or
	// "both" (their max). "gossip" and "both" require Gossip.
	HintSource HintSource
	// SplitSignal splits the outcome signal into a conflict estimate,
	// which drives backoff, and a congestion estimate, which drives
	// pacing (see the SplitSignal type). Nil keeps the scalar signal.
	SplitSignal *SplitSignal
}

// Validate reports configuration errors in the control stack. It is the
// one place control rules live; Config.Validate calls it.
func (c Control) Validate() error {
	if err := validatePolicy(c.Retry); err != nil {
		return err
	}
	if c.RetryBudget != nil {
		if err := c.RetryBudget.Validate(); err != nil {
			return err
		}
	}
	if c.Gossip != nil {
		if err := c.Gossip.Validate(); err != nil {
			return err
		}
	}
	if err := c.HintSource.Validate(); err != nil {
		return err
	}
	if c.Gossip == nil && (c.HintSource == HintGossip || c.HintSource == HintBoth) {
		return fmt.Errorf("fabric: hint source %q needs Config.Gossip", string(c.HintSource))
	}
	return nil
}

// resolvedControl is the control stack a network runs: Retry never nil,
// Gossip with its defaults applied (the token bucket applies the
// budget's when it is built), and every subsystem that would be inert
// on this run nil — no events, no rng draws. tracking
// reports whether clients track pending transactions and receive commit
// events at all; when false the commit-event plumbing is inert and the
// run is the paper's fire-and-forget one. ordererFeeds and gossipFeeds
// report which producers actually feed the hint path: the orderer's
// when backpressure is on and HintSource includes it, the gossip
// estimate when gossip survives and HintSource includes it. With
// neither, a hint-consuming policy sees a constant zero.
type resolvedControl struct {
	Control
	tracking, ordererFeeds, gossipFeeds bool
}

// resolve applies defaults and the outcome-tracking rule (see Control).
// Backpressure survives without tracking because the ordering service
// computes and reports its hint regardless of who listens.
func (c Control) resolve(closedLoop bool) resolvedControl {
	if c.Retry == nil {
		c.Retry = NoRetry{}
	}
	_, noRetry := c.Retry.(NoRetry)
	tracking := closedLoop || !noRetry
	if !tracking {
		c.RetryBudget, c.Gossip, c.SplitSignal = nil, nil, nil
	}
	if c.Gossip != nil {
		g := c.Gossip.withDefaults()
		c.Gossip = &g
	}
	return resolvedControl{c, tracking,
		c.Backpressure != nil && c.HintSource != HintGossip,
		c.Gossip != nil && (c.HintSource == HintGossip || c.HintSource == HintBoth)}
}

// Variant is a pluggable Fabric fork. The zero behaviour (vanilla
// Fabric 1.4) is provided by Vanilla.
type Variant interface {
	// Name identifies the system ("fabric++", "streamchain", ...).
	Name() string
	// Adjust lets the variant rewrite the configuration before the
	// network is built (e.g. Streamchain forces block size 1 and
	// RAM-disk commit costs).
	Adjust(cfg *Config)
	// OnSubmit intercepts a transaction as it enters the ordering
	// service. Returning accept=false aborts it early
	// (ABORTED_IN_ORDERING); cost is virtual ordering-CPU time
	// consumed by the decision.
	OnSubmit(tx *ledger.Transaction) (accept bool, cost time.Duration)
	// OnCut post-processes a freshly cut batch: it may reorder kept
	// transactions and abort others; cost is the reordering time
	// (Fabric++'s conflict-graph construction).
	OnCut(batch []*ledger.Transaction) (kept, aborted []*ledger.Transaction, cost time.Duration)
	// SkipMVCC reports whether validation must skip MVCC and phantom
	// checks because the orderer already serialized the transactions
	// (FabricSharp).
	SkipMVCC() bool
	// OnBlockValidated feeds the validation outcome back to the
	// variant, in block order (FabricSharp's scheduler uses it to
	// learn the committed heights of the writes it scheduled).
	OnBlockValidated(b *ledger.Block, codes []ledger.ValidationCode)
}

// Vanilla is the no-op variant: plain Fabric 1.4.
type Vanilla struct{}

// Name implements Variant.
func (Vanilla) Name() string { return "fabric-1.4" }

// Adjust implements Variant.
func (Vanilla) Adjust(*Config) {}

// OnSubmit implements Variant.
func (Vanilla) OnSubmit(*ledger.Transaction) (bool, time.Duration) { return true, 0 }

// OnCut implements Variant.
func (Vanilla) OnCut(batch []*ledger.Transaction) ([]*ledger.Transaction, []*ledger.Transaction, time.Duration) {
	return batch, nil, 0
}

// SkipMVCC implements Variant.
func (Vanilla) SkipMVCC() bool { return false }

// OnBlockValidated implements Variant.
func (Vanilla) OnBlockValidated(*ledger.Block, []ledger.ValidationCode) {}
