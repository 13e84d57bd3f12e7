// Package hyperledgerlab is a faithful, laptop-scale reproduction of
// "Why Do My Blockchain Transactions Fail? A Study of Hyperledger
// Fabric" (Chacko, Mayer, Jacobsen — SIGMOD 2021).
//
// It bundles a deterministic discrete-event simulation of a complete
// Fabric 1.4 network — endorsing peers with versioned world-state
// replicas (LevelDB- and CouchDB-style backends), a Kafka-backed
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
// # The client control plane
//
// The paper's clients are fire-and-forget: a failed transaction is
// simply gone (§4.5). Real applications must detect the failure from
// commit events and resubmit, so the lab also models the client side.
// All of it is one value, Config.Control (embedded, so cfg.Retry,
// cfg.RetryBudget, ... are its fields): a RetryPolicy, an optional
// per-client RetryBudget, the orderer-driven Backpressure hint, the
// client-to-client Gossip estimate, the HintSource that picks which of
// the two feeds the shared hint, and the SplitSignal that routes
// conflicts to backoff and congestion to pacing. The zero Control is the
// paper's client. Control.Validate holds every rule about the
// combination; a Rung is a labelled Control, and Rung.Apply replaces a
// config's whole control plane. examples/retry-control walks a ladder of
// them.
//
// Everything else — cohort drivers and channel sharding, fault
// injection, closed-loop clients and think time, the effective metrics
// (goodput, retry amplification, end-to-end latency), the experiment
// registry and the test matrix — is described in docs/ARCHITECTURE.md
// and docs/EXPERIMENTS.md.
//
// The module's import path is "repro". This root package re-exports
// what examples/ and the root tests name of the internal packages and
// nothing else (cmd/docscheck fails on a name neither refers to);
// cmd/hyperlab and bench/ import the internal packages directly.
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
	"repro/internal/statedb"
	"repro/internal/workload"
)

// Core simulation types.
type (
	// Config describes one experiment run (topology, ordering
	// parameters, database type, endorsement policy, load, client
	// control plane, variant).
	Config = fabric.Config
	// Report is the run summary: failure percentages by type,
	// latency, committed throughput, and the effective client metrics.
	Report = metrics.Report
	// Chaincode is the smart-contract interface.
	Chaincode = chaincode.Chaincode
	// WorkloadGenerator produces the invocation stream of a run.
	WorkloadGenerator = workload.Generator
)

// Validation codes (§3 of the paper), the keys of Report.Counts.
const (
	Valid                    = ledger.Valid
	MVCCConflictInterBlock   = ledger.MVCCConflictInterBlock
	MVCCConflictIntraBlock   = ledger.MVCCConflictIntraBlock
	PhantomReadConflict      = ledger.PhantomReadConflict
	EndorsementPolicyFailure = ledger.EndorsementPolicyFailure
)

// Database backends (§5.1.2).
const (
	LevelDB = statedb.LevelDB
	CouchDB = statedb.CouchDB
)

// The client control plane (Config.Control) and its parts.
type (
	// Control is the client control plane of a run as one value: retry
	// policy, retry budget, backpressure, gossip, hint source and split
	// signal. The zero value is the paper's fire-and-forget client.
	Control = fabric.Control
	// Rung is one rung of a retry-control ladder: a label plus a
	// Control, with Apply to replace a Config's control plane.
	Rung = core.Rung
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
	// backoff.
	AdaptivePolicy = fabric.AdaptivePolicy
	// BackpressurePolicy is the hinted retry policy: backoff slides
	// from Floor to a 4 s ceiling with the shared congestion hint.
	BackpressurePolicy = fabric.BackpressurePolicy
	// RetryBudget rate-limits resubmissions per client with a token
	// bucket, independent of the retry policy.
	RetryBudget = fabric.RetryBudget
	// Backpressure enables the orderer-driven congestion hint: the
	// ordering service publishes it with each cut block and clients
	// pace submissions from it.
	Backpressure = fabric.Backpressure
	// Gossip enables the client-to-client congestion estimate,
	// exchanged with sampled peers and merged by max-with-decay.
	Gossip = fabric.Gossip
	// SplitSignal splits the client-side outcome estimate into a
	// conflict component (drives backoff) and a congestion component
	// (drives pacing); nil keeps the scalar signal.
	SplitSignal = fabric.SplitSignal
)

// Congestion-hint producers for Control.HintSource: the orderer, the
// gossip estimate, or their max.
const (
	HintOrderer = fabric.HintOrderer
	HintGossip  = fabric.HintGossip
	HintBoth    = fabric.HintBoth
)

// GiveUpAfter truncates any retry policy to at most n submissions.
func GiveUpAfter(inner RetryPolicy, n int) RetryPolicy { return fabric.GiveUpAfter(inner, n) }

// Faults is the deterministic fault-injection schedule (Config.Faults):
// a named scenario or explicit events, plus client-side endorsement and
// submission deadlines. nil disables the subsystem byte-identically.
type Faults = fabric.Faults

// DefaultConfig returns the paper's Table 3 defaults on the C1
// cluster. Chaincode and Workload must still be set.
func DefaultConfig() Config { return fabric.DefaultConfig() }

// NewNetwork validates the config and builds the deployment.
func NewNetwork(cfg Config) (*fabric.Network, error) { return fabric.NewNetwork(cfg) }

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
	// Options scales an experiment (virtual duration, seeds,
	// parallelism).
	Options = core.Options
	// Result is a seed-averaged run summary.
	Result = core.Result
	// Builder produces the config of one experiment cell for one
	// seed; batches of builders fan out via Options.RunAll.
	Builder = core.Builder
)

// The compared systems.
const (
	Fabric14    = core.Fabric14
	FabricPP    = core.FabricPP
	Streamchain = core.Streamchain
	FabricSharp = core.FabricSharp
)

// Experiments lists every reproducible table and figure.
func Experiments() []core.Experiment { return core.Experiments() }

// LookupExperiment finds an experiment by id (e.g. "fig7").
func LookupExperiment(id string) (core.Experiment, error) { return core.Lookup(id) }

// FullOptions is the paper's regime (3 virtual minutes, 3 seeds).
func FullOptions() Options { return core.FullOptions() }

// QuickOptions is the default regime for sanity runs and benchmarks
// (30 virtual seconds, 1 seed); not the CI-sized smoke regime.
func QuickOptions() Options { return core.QuickOptions() }
