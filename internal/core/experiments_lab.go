package core

import (
	"repro/internal/chaincodes/dv"
	"repro/internal/chaincodes/scm"
	"repro/internal/fabric"
)

// RetrySkews is the Zipfian contention axis of the retry sweep.
var RetrySkews = []float64{0, 1, 2}

// LabBlockSizes is the block-size axis of the retry, co-tuning and
// coordination studies, one axis so their grids line up: the paper's
// Table 3 default and the half-size block that cuts intra-block
// conflict windows. In the retry sweep only the cheap chaincodes (EHR,
// DRM) sweep it; the range-query-heavy ones (DV, SCM) run at the
// default to keep the grid affordable.
var LabBlockSizes = []int{50, 100}

// earlyAbortSystems is the variant axis of the cotune and coordination
// studies: does Fabric++'s early abort tame the retry storm that
// vanilla Fabric feeds back into the orderer, and does it still matter
// once clients share a congestion signal?
var earlyAbortSystems = []System{Fabric14, FabricPP}

// labChaincodes is the chaincode axis of the retry studies. Smoke mode
// keeps only EHR so CI (and the determinism matrix test) can run each
// experiment end-to-end in seconds.
func labChaincodes(smoke bool) []CCFactory {
	if smoke {
		return []CCFactory{EHR}
	}
	return useCases
}

// retryGrid enumerates the retry-policies sweep in deterministic row
// order: chaincode, policy, skew, block size.
func retryGrid(smoke bool) []cell {
	var rungs []Rung
	for _, p := range RetryPolicies() {
		rungs = append(rungs, Rung{p.Name(), fabric.Control{Retry: p}})
	}
	var cells []cell
	for _, cc := range labChaincodes(smoke) {
		sizes := LabBlockSizes
		if cc.Name == dv.Name || cc.Name == scm.Name {
			sizes = []int{100}
		}
		cells = append(cells, cross(on(C1, cc), byControl(rungs...), bySkew(RetrySkews...), byBlockSize(sizes...))...)
	}
	return cells
}

// RetryPoliciesExp answers the paper's motivating question end-to-end:
// what does a failed transaction cost once clients resubmit it? It
// sweeps retry policy × Zipfian skew × block size over the four
// use-case chaincodes on C1 and reports the effective metrics —
// goodput (first-submission success throughput), retry amplification
// (submissions per logical transaction), end-to-end latency including
// resubmissions, and the give-up rate — next to the chain-level
// failure percentage. All cells fan out across the worker pool; the
// table is identical at any Options.Parallelism.
func RetryPoliciesExp(o Options) (string, error) {
	return table(o, retryGrid(o.Smoke), cell.build,
		[]string{"chaincode", "policy", "skew", "block",
			"goodput (tps)", "tput (tps)", "amp", "e2e lat (s)", "gave up %", "failures %"},
		func(c cell, r Result) []any {
			return []any{c.cc.Name, c.ctl.Label, c.skew, c.bs,
				r.Goodput, r.Throughput, r.RetryAmp, r.EndToEndSec, r.GaveUpPct, r.FailurePct}
		})
}

// ladderGrid enumerates a control-ladder study in deterministic row
// order: chaincode, system, rung, block size, at the default skew.
func ladderGrid(smoke bool, ladder []Rung) []cell {
	return cross(on(C1, EHR), byCC(labChaincodes(smoke)...), bySystem(earlyAbortSystems...),
		byControl(ladder...), byBlockSize(LabBlockSizes...))
}

// RetryCotuneExp is the block-size × backoff co-tuning study: it
// sweeps block size × retry-control strategy (static backoff vs AIMD
// adaptive vs budgeted) × variant (vanilla Fabric 1.4 vs Fabric++
// early abort) over the four use-case chaincodes on C1, at the
// default skew. It extends the retry-policies experiment along the
// ROADMAP's two open axes: can a client-side controller (adaptive
// backoff, retry budgets) or a server-side one (Fabric++ aborting
// doomed transactions before they waste a block slot) tame the retry
// storm that PR 2 exposed — DV's phantom conflicts being resubmitted
// into a saturated orderer — and how does the answer shift with block
// size?
//
// Columns: goodput (first-submission success throughput), committed
// throughput, retry amplification (submissions per logical
// transaction), end-to-end latency including resubmissions, budget
// exhaustions (retries dropped by an empty token bucket), deferred
// retries, the final AIMD backoff level, give-up rate and chain-level
// failure rate. All cells fan out across the worker pool; the table
// is byte-for-byte identical at any Options.Parallelism.
func RetryCotuneExp(o Options) (string, error) {
	return table(o, ladderGrid(o.Smoke, cotuneLadder), cell.build,
		[]string{"chaincode", "system", "policy", "block",
			"goodput (tps)", "tput (tps)", "amp", "e2e lat (s)",
			"exhausted", "deferred", "aimd (s)", "gave up %", "failures %"},
		func(c cell, r Result) []any {
			return []any{c.cc.Name, c.sys, c.ctl.Label, c.bs,
				r.Goodput, r.Throughput, r.RetryAmp, r.EndToEndSec,
				r.BudgetExhausted, r.DeferredRetries, r.AdaptiveBackSec,
				r.GaveUpPct, r.FailurePct}
		})
}

// RetryCoordinationExp answers the ROADMAP's coordination question
// head-to-head and then splits it: the AIMD controllers of
// retry-cotune are per-client and cannot see orderer congestion until
// their own transactions fail; an orderer-driven backpressure hint in
// the commit event lets every client back off from the same global
// signal at once; and a gossiped client-to-client estimate shares a
// signal with no orderer involvement at all — isolating whether the
// coordination win comes from the signal's source or its sharing.
// The experiment sweeps retry-control strategy {client-local AIMD,
// hinted-orderer, hinted-gossip, hinted-both} × block size × variant
// {Fabric 1.4, Fabric++} over the four use-case chaincodes on C1 at
// the default skew.
//
// Columns: goodput (first-submission success throughput), committed
// throughput, retry amplification, end-to-end latency including
// resubmissions and pacing, time spent paced by the shared signal,
// the final smoothed orderer hint, the final gossip estimate, the
// final conflict and congestion components (split rungs only), gossip
// messages exchanged, give-up rate and chain-level failure rate. All
// cells fan out across the worker pool; the table is byte-for-byte
// identical at any Options.Parallelism.
func RetryCoordinationExp(o Options) (string, error) {
	return table(o, ladderGrid(o.Smoke, coordinationLadder), cell.build,
		[]string{"chaincode", "system", "control", "block",
			"goodput (tps)", "tput (tps)", "amp", "e2e lat (s)",
			"paced (s)", "hint", "gest", "cflt", "cngst", "gmsg",
			"gave up %", "failures %"},
		func(c cell, r Result) []any {
			return []any{c.cc.Name, c.sys, c.ctl.Label, c.bs,
				r.Goodput, r.Throughput, r.RetryAmp, r.EndToEndSec,
				r.PacedSec, r.HintFinal, r.GossipEstFinal,
				r.ConflictEstFinal, r.CongestEstFinal, r.GossipMsgs,
				r.GaveUpPct, r.FailurePct}
		})
}

// FaultScenarios is the scenario axis of the faults experiment: the
// healthy baseline plus the predefined adversity scripts that matter
// for coordination behaviour (crash windows, a partition, a flaky
// peer, a slow state database).
var FaultScenarios = []string{"none", "crash", "partition", "flaky", "slowdb"}

// faultsGrid enumerates the sweep in deterministic row order:
// chaincode, scenario, mode. Smoke mode keeps EHR with the crash and
// partition scenarios under the backoff and hinted-orderer modes —
// four cells that still cross a node-lifecycle fault with a netem
// fault and a local with a coordinated control.
func faultsGrid(smoke bool) []cell {
	if smoke {
		return cross(on(C1, EHR), byScenario("crash", "partition"), byControl(rungBackoff, rungHintedOrderer))
	}
	return cross(on(C1, EHR), byCC(EHR, DV), byScenario(FaultScenarios...), byControl(faultLadder...))
}

// FaultsExp measures how the coordination stack actually behaves under
// the adverse regimes it was built for: every prior result assumed a
// permanently healthy network, while the ChackoMJ21 failure taxonomy
// came from a system that crashes, partitions and slows down. The
// experiment sweeps fault scenario {none, crash, partition, flaky,
// slowdb} × retry/coordination mode {exponential backoff, AIMD,
// hinted-orderer, hinted-gossip} × chaincode {EHR, DV} on C1, with
// deterministic seed-derived fault schedules (Config.Faults).
//
// Columns: goodput, committed throughput, retry amplification,
// end-to-end latency, endorsement and submission deadline expiries,
// orphaned transactions (committed after their client gave up),
// scheduled node downtime, peer post-restart recovery latency,
// give-up rate and chain-level failure rate. Fault windows are
// virtual-time driven, so the table is byte-for-byte identical at any
// Options.Parallelism.
func FaultsExp(o Options) (string, error) {
	return table(o, faultsGrid(o.Smoke), cell.build,
		[]string{"chaincode", "scenario", "control",
			"goodput (tps)", "tput (tps)", "amp", "e2e lat (s)",
			"eto", "sto", "orphans", "down (s)", "recov (s)",
			"gave up %", "failures %"},
		func(c cell, r Result) []any {
			return []any{c.cc.Name, c.scenario, c.ctl.Label,
				r.Goodput, r.Throughput, r.RetryAmp, r.EndToEndSec,
				r.EndorseTOs, r.SubmitTOs, r.Orphans,
				r.DowntimeSec, r.RecoverySec,
				r.GaveUpPct, r.FailurePct}
		})
}

// ScaleClients is the client-count axis of the scale sweep: two
// orders of magnitude per step, up to a million simulated clients.
var ScaleClients = []int{100, 10_000, 1_000_000}

// ScaleChannels is the channel-count axis of the scale sweep.
var ScaleChannels = []int{1, 4, 16}

// scaleCohortTarget is the driver count the sweep keeps constant:
// every cell runs (about) this many cohorts regardless of client
// count, so state and event-queue pressure stay flat as the client
// axis grows four orders of magnitude.
const scaleCohortTarget = 100

// scaleGrid enumerates the scale sweep in deterministic row order:
// client count, then channel count. Smoke mode truncates both axes so
// CI (and the determinism matrix test) can run the experiment
// end-to-end in seconds.
func scaleGrid(smoke bool) []cell {
	clients, channels := ScaleClients, ScaleChannels
	if smoke {
		clients, channels = []int{100, 1_000}, []int{1, 4}
	}
	base := on(C1, EHR)
	base.skew, base.rate, base.ctl.Retry = 2, 200, StaticBackoff
	return cross(base,
		axis(clients, func(c *cell, n int) { c.clients = n }),
		axis(channels, func(c *cell, n int) { c.channels = n }))
}

// scaleConfig builds one cell's config: open-loop arrivals at a fixed
// total rate (so the chain-side load is comparable across the client
// axis and only the population size varies), cohort drivers sized to
// keep scaleCohortTarget cohorts per cell, channel sharding on the
// channel axis with 10% cross-channel transactions when there is more
// than one channel, and a capped exponential-backoff retry policy so
// failed transactions resubmit — the regime the paper's
// fire-and-forget clients never reach.
func scaleConfig(c cell) Builder {
	return c.with(func(cfg *fabric.Config) {
		if c.channels > 1 {
			cfg.CrossChannel = 0.1
		}
		cfg.CohortSize = c.clients / scaleCohortTarget
	})
}

// ScaleExp sweeps client population × channel count at a fixed total
// arrival rate: 10^2 to 10^6 clients driven by cohort drivers (one
// state object per ~1% of the population) over 1, 4 and 16 channels.
// It reports the effective client-side metrics next to the chain
// view, so the table shows what sharding buys (failure isolation,
// per-channel ordering capacity) and what cross-channel transactions
// cost, while the cohort layer keeps the largest cell's memory within
// a constant factor of the smallest's. All cells fan out across the
// worker pool; the table is identical at any Options.Parallelism.
func ScaleExp(o Options) (string, error) {
	return table(o, scaleGrid(o.Smoke), scaleConfig,
		[]string{"clients", "channels", "cohort size",
			"goodput (tps)", "tput (tps)", "amp", "e2e lat (s)", "gave up %", "failures %"},
		func(c cell, r Result) []any {
			return []any{c.clients, c.channels, max(1, c.clients/scaleCohortTarget),
				r.Goodput, r.Throughput, r.RetryAmp, r.EndToEndSec, r.GaveUpPct, r.FailurePct}
		})
}
