// Package hyperledgerlab is a faithful, laptop-scale reproduction of
// "Why Do My Blockchain Transactions Fail? A Study of Hyperledger
// Fabric" (Chacko, Mayer, Jacobsen — SIGMOD 2021).
//
// It bundles a deterministic discrete-event simulation of a complete
// Fabric 1.4 network — endorsing peers with versioned world-state
// replicas (LevelDB- and CouchDB-style backends), a Kafka/Raft/solo
// ordering service with a block cutter, clients, VSCC/MVCC/phantom
// validation — together with the paper's four use-case chaincodes
// (EHR, DV, SCM, DRM), its chaincode/workload generator (genChain),
// the three research forks it evaluates (Fabric++, Streamchain,
// FabricSharp), and an experiment harness that regenerates every
// table and figure of the evaluation.
//
// Quick start:
//
//	cfg := hyperledgerlab.DefaultConfig()
//	cfg.Chaincode = hyperledgerlab.EHRChaincode()
//	cfg.Workload = hyperledgerlab.EHRWorkload(1)
//	nw, err := hyperledgerlab.NewNetwork(cfg)
//	if err != nil { ... }
//	report := nw.Run()
//	fmt.Println(report)
//
// Failure semantics follow the paper's §3 exactly: endorsement policy
// failures (Eq. 1), MVCC read conflicts split into intra-block
// (Eq. 3) and inter-block (Eq. 4), and phantom read conflicts
// (Eq. 5). No failure rate is scripted — every failure emerges from
// the Execute-Order-Validate protocol running against the calibrated
// cost model.
//
// # Client retries and effective metrics
//
// The paper's clients are fire-and-forget: a failed transaction is
// simply gone (§4.5). Real applications must detect the failure from
// commit events and resubmit — so the lab also models the client side
// of the story. Config.Retry selects a RetryPolicy (NoRetry,
// ImmediateRetry, ExponentialBackoff with deterministic jitter, any
// policy truncated by GiveUpAfter, or the AIMD AdaptivePolicy that
// watches each client's windowed failure rate and grows/shrinks its
// backoff); clients then track pending transactions, listen for
// commit events from the metrics peer, and resubmit failures on the
// policy's backoff schedule. Config.RetryBudget adds a per-client
// token bucket that rate-limits resubmissions regardless of policy
// (deferring or dropping over-budget retries). Config.Backpressure
// adds the coordinated half: the ordering service condenses its own
// backlog into a congestion hint stamped onto commit events, clients
// pace resubmissions and new closed-loop work by hint×gain, and the
// hint feeds the orderer-hinted BackpressurePolicy (or blends into
// AdaptivePolicy via HintWeight). Config.Gossip adds the
// decentralized alternative — clients gossip their own windowed
// failure-rate estimates to sampled peers, merged by max-with-decay —
// and Config.HintSource selects which producer (orderer, gossip or
// their max) feeds the shared-hint path. Config.SplitSignal splits
// that scalar estimate into a conflict component (MVCC, phantom and
// endorsement failures — the backoff signal) and a congestion
// component (client timeouts, slow commits, orderer pressure — the
// pacing signal), so a contention-bound workload no longer paces
// against an idle orderer; RetryBudget.Adaptive calibrates the token
// bucket per workload from the same classes. Config.ClosedLoop
// switches from open-loop Poisson arrivals to a closed loop with
// Config.InFlightPerClient outstanding transactions per client and an
// optional Config.ThinkTime distribution (fixed, exponential or
// log-normal) between jobs.
//
// # Million-client scale: cohort drivers and channel sharding
//
// Config.CohortSize switches the client layer from one simulated
// state object per client to cohort drivers: one object drives N
// statistically identical clients, sharing the retry policy, token
// bucket, pacer and gossip state across the cohort while keeping
// per-member identity (transaction ids, rotation counters) exact.
// With a stateless retry policy and no shared-state subsystems a
// cohorted closed-loop run is byte-identical to the exact simulation
// — the equivalence is locked by a golden test — and memory stays
// within a constant factor as the population grows four orders of
// magnitude. Config.Channels shards the deployment the way production
// Fabric does: each channel gets its own ordering service, its own
// hash chain and its own world-state replica per peer, with chaincode
// keyspaces partitioned across channels by a deterministic hash and
// Config.CrossChannel injecting two-leg transactions that must
// succeed on both channels. The "scale" experiment (cmd/hyperlab -run
// scale) sweeps 10^2..10^6 clients over 1, 4 and 16 channels at a
// fixed total arrival rate.
//
// # Fault injection and node lifecycle
//
// Config.Faults arms a deterministic, seed-derived fault schedule:
// named scenarios (crash, partition, flaky, straggler, slowdb, chaos)
// or explicit FaultEvents that crash and restart peers or the ordering
// service, partition an organization away, inject stragglers, drop
// messages, or slow the state database for a window. Nodes carry a
// lifecycle state (up, crashed, restarting): a crash drops in-flight
// endorsements and queued work; a restart replays the missed ledger
// suffix before the node rejoins, and the replay latency is reported
// as recovery time. Clients gain endorsement/submission deadlines that
// surface as a CLIENT_TIMEOUT failure class feeding the retry path,
// and reports account per-fault-window downtime, deadline expiries,
// orphaned transactions (committed after their client gave up) and
// recovery latency. Schedules are virtual-time driven, so runs stay
// byte-for-byte deterministic at any parallelism, and a nil
// Config.Faults is byte-identical to a build without the subsystem.
// The "faults" experiment (cmd/hyperlab -run faults) sweeps scenario ×
// retry/coordination mode × chaincode; ad-hoc runs take -faults.
//
// Reports expose the resulting effective metrics next to the paper's
// chain-level ones: Goodput (first-submission success throughput),
// RetryAmplification (submissions per logical transaction),
// AvgEndToEnd (latency through every resubmission), GaveUp, a
// per-attempt failure breakdown, budget exhaustion/deferral counts,
// the adaptive-backoff trajectory summary, and the backpressure
// summary (hint trajectory, time spent paced). The "retry-policies"
// experiment (cmd/hyperlab -run retry-policies) sweeps policy × skew
// × block size over the four use-case chaincodes to answer what a
// failure actually costs end-to-end; "retry-cotune" co-tunes block
// size × retry-control strategy (static vs adaptive vs budgeted vs
// paced) × variant (Fabric 1.4 vs Fabric++ early abort);
// "retry-coordination" compares client-local control against the
// orderer-driven backpressure hints head-to-head. See
// docs/ARCHITECTURE.md and docs/EXPERIMENTS.md.
//
// # Test matrix
//
// Tier-1 is `go build ./... && go test ./...`. Beyond unit tests the
// suite pins behaviour four ways: golden-report regression tests lock
// the QuickOptions reports of all four use-case chaincodes on both
// database backends (internal/core/golden_test.go, -update-golden to
// regenerate); a conservation-invariant property test checks that
// every block's validation codes partition its transactions and that
// committed world-state versions advance strictly monotonically per
// key; determinism tests require identical reports for the same
// (config, seed) at any Options.Parallelism, with and without
// retries; and a fuzz test (go test -fuzz=FuzzGenChaincode
// ./internal/gen) with a checked-in seed corpus guards the chaincode
// generator. CI additionally smoke-runs every benchmark at
// -benchtime=1x and replays the fuzz corpus on every push.
//
// The module's import path is "repro"; this root package re-exports
// the public surface of the internal packages. Experiment sweeps run
// on a shared worker pool — see Options.Parallelism and
// Options.RunAll — and stay deterministic at any worker count because
// every (config, seed) cell owns its own rng.
package hyperledgerlab

import (
	"repro/internal/chaincode"
	"repro/internal/chaincodes/drm"
	"repro/internal/chaincodes/dv"
	"repro/internal/chaincodes/ehr"
	"repro/internal/chaincodes/scm"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/gen"
	"repro/internal/ledger"
	"repro/internal/metrics"
	"repro/internal/netem"
	"repro/internal/policy"
	"repro/internal/statedb"
	"repro/internal/workload"
)

// Core simulation types.
type (
	// Config describes one experiment run (topology, ordering
	// parameters, database type, endorsement policy, load, variant).
	Config = fabric.Config
	// Network is a fully wired simulated Fabric deployment.
	Network = fabric.Network
	// Report is the run summary: failure percentages by type,
	// latency, committed throughput.
	Report = metrics.Report
	// Variant is a pluggable Fabric fork (Fabric++, Streamchain,
	// FabricSharp); nil means stock Fabric 1.4.
	Variant = fabric.Variant
	// Chaincode is the smart-contract interface.
	Chaincode = chaincode.Chaincode
	// Stub is the world-state access object handed to chaincodes.
	Stub = chaincode.Stub
	// WorkloadGenerator produces the invocation stream of a run.
	WorkloadGenerator = workload.Generator
	// Invocation is one chaincode call.
	Invocation = workload.Invocation
	// ValidationCode is the per-transaction outcome on the chain.
	ValidationCode = ledger.ValidationCode
	// NetworkLink is a latency distribution for netem injection.
	NetworkLink = netem.Link
)

// Validation codes (§3 of the paper).
const (
	Valid                    = ledger.Valid
	MVCCConflictInterBlock   = ledger.MVCCConflictInterBlock
	MVCCConflictIntraBlock   = ledger.MVCCConflictIntraBlock
	PhantomReadConflict      = ledger.PhantomReadConflict
	EndorsementPolicyFailure = ledger.EndorsementPolicyFailure
	AbortedInOrdering        = ledger.AbortedInOrdering
	ClientTimeout            = ledger.ClientTimeout
)

// Database backends (§5.1.2).
const (
	LevelDB = statedb.LevelDB
	CouchDB = statedb.CouchDB
)

// Endorsement policies (Table 5).
const (
	P0 = policy.P0
	P1 = policy.P1
	P2 = policy.P2
	P3 = policy.P3
)

// Client retry/resubmission subsystem.
type (
	// RetryPolicy decides whether a client resubmits a failed
	// transaction and after what backoff.
	RetryPolicy = fabric.RetryPolicy
	// NoRetry is the paper's fire-and-forget client (§4.5).
	NoRetry = fabric.NoRetry
	// ImmediateRetry resubmits right away, up to MaxAttempts.
	ImmediateRetry = fabric.ImmediateRetry
	// ExponentialBackoff resubmits after a capped exponential backoff
	// with deterministic jitter drawn from the simulation rng.
	ExponentialBackoff = fabric.ExponentialBackoff
	// AdaptivePolicy is the AIMD controller: each client watches its
	// own failure rate over a sliding window and grows/shrinks its
	// backoff (multiplicative increase on aborts, additive decrease on
	// commits).
	AdaptivePolicy = fabric.AdaptivePolicy
	// RetryBudget rate-limits resubmissions per client with a token
	// bucket (Config.RetryBudget), independent of the retry policy.
	RetryBudget = fabric.RetryBudget
	// Backpressure enables the orderer-driven congestion signal
	// (Config.Backpressure): the ordering service publishes a smoothed
	// hint with each cut block and clients pace submissions from it.
	Backpressure = fabric.Backpressure
	// BackpressurePolicy is the orderer-hinted retry policy: backoff
	// slides from Floor to Ceiling with the shared congestion hint.
	BackpressurePolicy = fabric.BackpressurePolicy
	// Gossip enables the client-to-client congestion signal
	// (Config.Gossip): clients exchange windowed failure-rate
	// estimates with sampled peers, merged by max-with-decay.
	Gossip = fabric.Gossip
	// HintSource selects which producer feeds the congestion hint
	// (Config.HintSource): orderer, gossip, or their max.
	HintSource = fabric.HintSource
	// SplitSignal splits the client-side outcome estimate into a
	// conflict component (drives backoff) and a congestion component
	// (drives pacing) — see Config.SplitSignal; nil keeps the scalar
	// signal byte-identically.
	SplitSignal = fabric.SplitSignal
	// SignalClass is the control-theoretic class of a transaction
	// outcome: none (success), conflict, or congestion.
	SignalClass = fabric.SignalClass
	// SplitEstimate is a two-component windowed estimate (conflict,
	// congestion) gossiped and merged component-wise.
	SplitEstimate = fabric.SplitEstimate
	// ThinkTime is the closed-loop think-time distribution
	// (Config.ThinkTime): fixed, exponential or log-normal.
	ThinkTime = fabric.ThinkTime
	// ThinkTimeKind selects the think-time distribution.
	ThinkTimeKind = fabric.ThinkTimeKind
	// ClientDriver is one client-side node: it drives one simulated
	// client, or a cohort of Config.CohortSize (see Network.Drivers).
	ClientDriver = fabric.ClientDriver
)

// Fault-injection subsystem (Config.Faults).
type (
	// Faults is the deterministic fault-injection schedule: a named
	// scenario or explicit events, plus client-side endorsement and
	// submission deadlines. nil disables the subsystem byte-identically.
	Faults = fabric.Faults
	// FaultEvent is one scheduled fault window (kind, onset, duration,
	// target, kind-specific parameters).
	FaultEvent = fabric.FaultEvent
	// FaultKind names a fault primitive (crash-peer, crash-orderer,
	// partition, straggler, loss, slowdb).
	FaultKind = fabric.FaultKind
	// NodeState is a node's lifecycle state (up, crashed, restarting).
	NodeState = fabric.NodeState
)

// Fault kinds for FaultEvent.Kind.
const (
	FaultCrashPeer    = fabric.FaultCrashPeer
	FaultCrashOrderer = fabric.FaultCrashOrderer
	FaultPartition    = fabric.FaultPartition
	FaultStraggler    = fabric.FaultStraggler
	FaultLoss         = fabric.FaultLoss
	FaultSlowDB       = fabric.FaultSlowDB
)

// Node lifecycle states.
const (
	NodeUp         = fabric.NodeUp
	NodeCrashed    = fabric.NodeCrashed
	NodeRestarting = fabric.NodeRestarting
)

// Think-time distributions for Config.ThinkTime.
const (
	ThinkNone        = fabric.ThinkNone
	ThinkFixed       = fabric.ThinkFixed
	ThinkExponential = fabric.ThinkExponential
	ThinkLogNormal   = fabric.ThinkLogNormal
)

// Congestion-hint producers for Config.HintSource.
const (
	HintOrderer = fabric.HintOrderer
	HintGossip  = fabric.HintGossip
	HintBoth    = fabric.HintBoth
)

// Signal classes for SplitSignal (ClassifyOutcome).
const (
	SignalNone       = fabric.SignalNone
	SignalConflict   = fabric.SignalConflict
	SignalCongestion = fabric.SignalCongestion
)

// ClassifyOutcome maps a transaction outcome to its control class:
// Valid is SignalNone, CLIENT_TIMEOUT is SignalCongestion, and every
// chain-reported failure (MVCC, phantom, endorsement, ordering abort)
// is SignalConflict.
func ClassifyOutcome(code ValidationCode) SignalClass { return fabric.ClassifyOutcome(code) }

// GiveUpAfter truncates any retry policy to at most n submissions.
func GiveUpAfter(inner RetryPolicy, n int) RetryPolicy { return fabric.GiveUpAfter(inner, n) }

// RetryPolicies returns the policy ladder compared by the
// retry-policies experiment.
func RetryPolicies() []RetryPolicy { return core.RetryPolicies() }

// Control is one rung of a retry-control ladder: a label plus a retry
// policy and the optional budget, backpressure, gossip, hint-source
// and split-signal configs, with Apply to wire it into a Config.
type Control = core.Control

// CotunePolicies returns the retry-control strategies (static,
// adaptive, budgeted, paced, budgeted-adaptive) compared by the
// retry-cotune experiment.
func CotunePolicies() []Control { return core.CotunePolicies() }

// CoordinationPolicies returns the retry-control strategies (aimd,
// hinted-orderer, hinted-gossip, hinted-both and the two split rungs)
// compared by the retry-coordination experiment.
func CoordinationPolicies() []Control { return core.CoordinationPolicies() }

// ParseRetryBudget parses a retry-budget spec such as "1:3" or
// "2:5:drop:adaptive" (the CLI's -budget syntax); "" returns nil (no
// budget).
func ParseRetryBudget(s string) (*RetryBudget, error) { return fabric.ParseRetryBudget(s) }

// ParseThinkTime parses a think-time spec such as "exp:500ms" or
// "lognormal:1s:0.8" (the CLI's -think syntax).
func ParseThinkTime(s string) (ThinkTime, error) { return fabric.ParseThinkTime(s) }

// ParseBackpressure parses a backpressure spec such as "on" or
// "0.5:1s:2s" (the CLI's -backpressure syntax); "off" and "" return
// nil (disabled).
func ParseBackpressure(s string) (*Backpressure, error) { return fabric.ParseBackpressure(s) }

// ParseGossip parses a gossip spec such as "on" or "2:500ms:0.5" (the
// CLI's -gossip syntax); "off" and "" return nil (disabled).
func ParseGossip(s string) (*Gossip, error) { return fabric.ParseGossip(s) }

// ParseHintSource parses a hint-source spec (the CLI's -hintsource
// syntax): "orderer" (also ""), "gossip" or "both".
func ParseHintSource(s string) (HintSource, error) { return fabric.ParseHintSource(s) }

// ParseSplitSignal parses a split-signal spec (the CLI's -split
// syntax): "on"/"default" enables the split with the default
// congestion-latency threshold, a duration such as "3s" overrides it,
// and "off"/"" return nil (scalar signal, byte-identical).
func ParseSplitSignal(s string) (*SplitSignal, error) { return fabric.ParseSplitSignal(s) }

// ParseFaults parses a fault spec (the CLI's -faults syntax): a
// scenario name ("crash", "chaos", ...), or comma-separated event
// clauses such as "crash-peer:1@5s+10s,partition@20s+5s,etimeout=2s";
// "off" and "" return nil (disabled).
func ParseFaults(s string) (*Faults, error) { return fabric.ParseFaults(s) }

// FaultScenarios lists the predefined fault scenario names accepted by
// Faults.Scenario and the -faults flag.
func FaultScenarios() []string { return fabric.FaultScenarios() }

// DefaultConfig returns the paper's Table 3 defaults on the C1
// cluster. Chaincode and Workload must still be set.
func DefaultConfig() Config { return fabric.DefaultConfig() }

// NewNetwork validates the config and builds the deployment.
func NewNetwork(cfg Config) (*Network, error) { return fabric.NewNetwork(cfg) }

// Use-case chaincodes (§4.3, Table 2).

// EHRChaincode returns the Electronic Health Records contract.
func EHRChaincode() Chaincode { return ehr.New() }

// EHRWorkload returns the EHR invocation stream with the given
// Zipfian skew.
func EHRWorkload(skew float64) WorkloadGenerator { return ehr.NewWorkload(skew) }

// DVChaincode returns the Digital Voting contract.
func DVChaincode() Chaincode { return dv.New() }

// DVWorkload returns the DV invocation stream.
func DVWorkload(skew float64) WorkloadGenerator { return dv.NewWorkload(skew) }

// SCMChaincode returns the Supply Chain Management contract.
func SCMChaincode() Chaincode { return scm.New() }

// SCMWorkload returns the SCM invocation stream.
func SCMWorkload(skew float64) WorkloadGenerator { return scm.NewWorkload(skew) }

// DRMChaincode returns the Digital Rights Management contract.
func DRMChaincode() Chaincode { return drm.New() }

// DRMWorkload returns the DRM invocation stream.
func DRMWorkload(skew float64) WorkloadGenerator { return drm.NewWorkload(skew) }

// Generated chaincodes and workloads (§4.4).
type (
	// ChaincodeSpec declares a generated chaincode.
	ChaincodeSpec = gen.ChaincodeSpec
	// FunctionSpec declares one generated function.
	FunctionSpec = gen.FunctionSpec
	// Mix is a transaction-type distribution.
	Mix = gen.Mix
)

// Workload mixes of §4.4.
var (
	ReadHeavy   = gen.ReadHeavy
	InsertHeavy = gen.InsertHeavy
	UpdateHeavy = gen.UpdateHeavy
	DeleteHeavy = gen.DeleteHeavy
	RangeHeavy  = gen.RangeHeavy
	UniformRU   = gen.UniformRU
)

// GenChainSpec returns the paper's default generated chaincode: five
// functions, 100k keys.
func GenChainSpec() ChaincodeSpec { return gen.GenChainSpec() }

// GenerateChaincode compiles a spec into an executable chaincode.
func GenerateChaincode(spec ChaincodeSpec) (Chaincode, error) { return gen.NewChaincode(spec) }

// RenderChaincode emits the generated chaincode as Go source.
func RenderChaincode(spec ChaincodeSpec, richQueries bool) (string, error) {
	return gen.Render(spec, richQueries)
}

// GenWorkload builds the generated workload stream.
func GenWorkload(spec ChaincodeSpec, mix Mix, skew float64) WorkloadGenerator {
	return gen.NewWorkload(spec, mix, skew)
}

// The compared systems (§4.5) and the experiment harness.
type (
	// System selects a Fabric build for comparison runs.
	System = core.System
	// Cluster is one of the two testbeds of §4.2.
	Cluster = core.Cluster
	// Options scales an experiment (virtual duration, seeds,
	// parallelism).
	Options = core.Options
	// Experiment reproduces one table or figure.
	Experiment = core.Experiment
	// Result is a seed-averaged run summary.
	Result = core.Result
	// Builder produces the config of one experiment cell for one
	// seed; batches of builders fan out via Options.RunAll.
	Builder = core.Builder
)

// Systems and clusters.
const (
	Fabric14         = core.Fabric14
	FabricPP         = core.FabricPP
	Streamchain      = core.Streamchain
	StreamchainNoRAM = core.StreamchainNoRAM
	FabricSharp      = core.FabricSharp
	C1               = core.C1
	C2               = core.C2
)

// Scale-sweep axes of the "scale" experiment: client population and
// channel count.
var (
	ScaleClients  = core.ScaleClients
	ScaleChannels = core.ScaleChannels
)

// Experiments lists every reproducible table and figure.
func Experiments() []Experiment { return core.Experiments() }

// LookupExperiment finds an experiment by id (e.g. "fig7").
func LookupExperiment(id string) (Experiment, error) { return core.Lookup(id) }

// FullOptions is the paper's regime (3 virtual minutes, 3 seeds).
func FullOptions() Options { return core.FullOptions() }

// QuickOptions is a fast smoke regime (30 virtual seconds, 1 seed).
func QuickOptions() Options { return core.QuickOptions() }

// SmokeOptions is the CI regime (5 virtual seconds, shrunken grids).
func SmokeOptions() Options { return core.SmokeOptions() }
