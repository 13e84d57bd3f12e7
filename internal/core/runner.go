// Package core is the HyperLedgerLab experiment harness: cluster
// presets (C1/C2, §4.2), system selection (Fabric 1.4, Fabric++,
// Streamchain, FabricSharp), multi-seed averaged runs, and one
// experiment function per table and figure of the paper's evaluation
// (§5) — each a list of cells, a header and a row function handed to
// the one runner in table.go. The CLI (cmd/hyperlab) and the benchmark
// suite regenerate any result through this package, which lives at
// repro/internal/core (the module path is "repro").
//
// Experiments execute on a shared worker pool (see RunAll): every
// (config, seed) cell of a sweep is an independent simulation with
// its own rng, so cells fan out across Options.Parallelism workers
// while tables and figures stay byte-for-byte identical to a
// sequential run — results aggregate in input order, never in
// completion order.
package core

import (
	"fmt"
	"math"
	"reflect"
	"time"

	"repro/internal/chaincode"
	"repro/internal/chaincodes/drm"
	"repro/internal/chaincodes/dv"
	"repro/internal/chaincodes/ehr"
	"repro/internal/chaincodes/scm"
	"repro/internal/fabric"
	"repro/internal/fabricpp"
	"repro/internal/fabricsharp"
	"repro/internal/gen"
	"repro/internal/metrics"
	"repro/internal/streamchain"
	"repro/internal/workload"
)

// Cluster is one of the paper's two testbeds (§4.2).
type Cluster int

const (
	// C1: 3 workers, 4 peers (2 orgs × 2), 3 orderers, 5 clients.
	C1 Cluster = iota
	// C2: 32 workers, 32 peers (8 orgs × 4), 3 orderers, 25 clients.
	C2
)

// String names the cluster.
func (c Cluster) String() string {
	if c == C2 {
		return "C2"
	}
	return "C1"
}

// Apply sets the cluster topology on a config. C2's larger worker
// pool shows up as a speed factor on fixed per-block costs.
func (c Cluster) Apply(cfg *fabric.Config) {
	switch c {
	case C1:
		cfg.Orgs = 2
		cfg.PeersPerOrg = 2
		cfg.Clients = 5
		cfg.SpeedFactor = 1
	case C2:
		cfg.Orgs = 8
		cfg.PeersPerOrg = 4
		cfg.Clients = 25
		cfg.SpeedFactor = 2.5
	}
}

// System selects one of the four compared Fabric builds (§4.5).
type System int

const (
	// Fabric14 is stock Fabric 1.4.
	Fabric14 System = iota
	// FabricPP is Fabric++ (within-block reordering + early abort).
	FabricPP
	// Streamchain streams transactions one-by-one with a RAM disk.
	Streamchain
	// StreamchainNoRAM is Streamchain's §5.3.3 ablation.
	StreamchainNoRAM
	// FabricSharp is the cross-block OCC scheduler.
	FabricSharp
)

// String names the system like the paper's legends.
func (s System) String() string {
	switch s {
	case FabricPP:
		return "Fabric++"
	case Streamchain:
		return "Streamchain"
	case StreamchainNoRAM:
		return "Streamchain w/o ramdisk"
	case FabricSharp:
		return "FabricSharp"
	default:
		return "Fabric 1.4"
	}
}

// Variant constructs a fresh variant instance for one run.
func (s System) Variant() fabric.Variant {
	switch s {
	case FabricPP:
		return fabricpp.New()
	case Streamchain:
		return streamchain.New()
	case StreamchainNoRAM:
		return streamchain.NewWithoutRAMDisk()
	case FabricSharp:
		return fabricsharp.New()
	default:
		return fabric.Vanilla{}
	}
}

// AllSystems lists the four systems of Fig 26.
func AllSystems() []System {
	return []System{Fabric14, FabricPP, Streamchain, FabricSharp}
}

// CCFactory builds a chaincode and its default workload with a given
// Zipfian skew.
type CCFactory struct {
	Name     string
	New      func() chaincode.Chaincode
	Workload func(skew float64) workload.Generator
}

// The paper's four use-case chaincodes (§4.3, Table 2).
var (
	EHR = CCFactory{ehr.Name, func() chaincode.Chaincode { return ehr.New() }, ehr.NewWorkload}
	DV  = CCFactory{dv.Name, func() chaincode.Chaincode { return dv.New() }, dv.NewWorkload}
	SCM = CCFactory{scm.Name, func() chaincode.Chaincode { return scm.New() }, scm.NewWorkload}
	DRM = CCFactory{drm.Name, func() chaincode.Chaincode { return drm.New() }, drm.NewWorkload}

	useCases = []CCFactory{EHR, DV, SCM, DRM}
)

// UseCase looks a use-case chaincode up by the name the CLI and other
// outside input spell it ("ehr", "dv", "scm", "drm").
func UseCase(name string) (CCFactory, error) {
	for _, f := range useCases {
		if f.Name == name {
			return f, nil
		}
	}
	return CCFactory{}, fmt.Errorf("core: unknown chaincode %q", name)
}

// Generator is Workload for a skew that arrives from outside the
// program: it rejects the exponents the Zipfian sampler cannot take
// instead of letting them panic inside it.
func (f CCFactory) Generator(skew float64) (workload.Generator, error) {
	if math.IsNaN(skew) || math.IsInf(skew, 0) || skew < 0 {
		return nil, fmt.Errorf("core: Zipfian skew must be a finite exponent >= 0, got %g", skew)
	}
	return f.Workload(skew), nil
}

// GenChain returns the genChain factory for a workload mix. keys
// overrides the world-state size (0 = the paper's 100,000).
func GenChain(mix gen.Mix, keys int) CCFactory {
	spec := gen.GenChainSpec()
	if keys > 0 {
		spec.Keys = keys
	}
	return CCFactory{
		Name:     spec.Name,
		New:      func() chaincode.Chaincode { return gen.MustChaincode(spec) },
		Workload: func(skew float64) workload.Generator { return gen.NewWorkload(spec, mix, skew) },
	}
}

// Options scales an experiment: virtual send window and seeds.
type Options struct {
	Duration time.Duration
	Drain    time.Duration
	Seeds    []int64
	// GenKeys shrinks genChain's world state for quick runs (0 keeps
	// the paper's 100,000).
	GenKeys int
	// Parallelism caps how many simulations run concurrently across
	// a batch (0 = one worker per CPU). Results are independent of
	// this value: every (config, seed) cell owns its rng and the
	// harness aggregates in input order.
	Parallelism int
	// Progress, when non-nil, receives one line per completed run — its
	// report, its engine's event count and events per wall-second — on
	// the worker that ran it and under one mutex, so the callback never
	// runs concurrently with itself.
	Progress func(string)
	// Smoke asks experiments with large grids to shrink their sweep to
	// a CI-sized subset (analogous to -benchtime=1x for benchmarks).
	// Row values change; determinism and table structure do not.
	Smoke bool
}

// FullOptions reproduces the paper's regime: 3 virtual minutes, 3
// repetitions (§5).
func FullOptions() Options {
	return Options{Duration: 3 * time.Minute, Drain: time.Minute, Seeds: []int64{1, 2, 3}}
}

// QuickOptions is the default regime for sanity runs and benchmarks:
// 30 virtual seconds, one seed, a 20k-key genChain.
func QuickOptions() Options {
	return Options{Duration: 30 * time.Second, Drain: 30 * time.Second,
		Seeds: []int64{1}, GenKeys: 20000}
}

// SmokeOptions is the tiniest regime: 5 virtual seconds, one seed, a
// 5k-key genChain, and Smoke set so experiments shrink their grids.
// CI uses it to prove every experiment still runs end-to-end.
func SmokeOptions() Options {
	return Options{Duration: 5 * time.Second, Drain: 5 * time.Second,
		Seeds: []int64{1}, GenKeys: 5000, Smoke: true}
}

// Result is a seed-averaged run summary.
type Result struct {
	Total          float64
	Committed      float64
	FailurePct     float64
	EndorsementPct float64
	IntraPct       float64
	InterPct       float64
	MVCCPct        float64
	PhantomPct     float64
	AbortedPct     float64
	LatencySec     float64
	Throughput     float64

	// Effective client-side metrics (the retry subsystem; equal to
	// the chain-level view when clients are fire-and-forget).
	Goodput     float64 // first-submission success throughput, tps
	RetryAmp    float64 // submissions per logical transaction
	EndToEndSec float64 // first submission -> final resolution, seconds
	GaveUpPct   float64 // jobs abandoned by the retry policy, % of jobs

	// Retry-budget and adaptive-policy metrics (zero without them).
	BudgetExhausted float64 // retries dropped on an empty token bucket
	DeferredRetries float64 // retries parked waiting for a budget token
	MaxDeferred     float64 // peak concurrently parked retries
	AdaptiveBackSec float64 // final AIMD backoff level, seconds

	// Orderer-backpressure metrics (zero without Config.Backpressure).
	HintAvg   float64 // mean congestion hint over block cuts, [0,1]
	HintFinal float64 // final smoothed congestion hint, [0,1]
	Paced     float64 // submissions delayed by the backpressure pacer
	PacedSec  float64 // total pacer-added delay, seconds

	// Client-gossip metrics (zero without Config.Gossip).
	GossipMsgs     float64 // gossip messages sent across all clients
	GossipMerges   float64 // received estimates adopted by max-with-decay
	GossipEstAvg   float64 // mean gossip estimate over rounds, [0,1]
	GossipEstFinal float64 // final sampled gossip estimate, [0,1]
	GossipStaleSec float64 // mean staleness of the estimate at use, seconds

	// Split-signal metrics (zero without Config.SplitSignal).
	ConflictEstAvg   float64 // mean conflict estimate over rounds, [0,1]
	ConflictEstFinal float64 // final sampled conflict estimate, [0,1]
	CongestEstAvg    float64 // mean congestion estimate over rounds, [0,1]
	CongestEstFinal  float64 // final sampled congestion estimate, [0,1]

	// Fault-injection metrics (zero without Config.Faults).
	FaultWindows float64 // fault windows opened over the run
	DowntimeSec  float64 // scheduled node downtime, seconds
	EndorseTOs   float64 // client endorsement deadline expiries
	SubmitTOs    float64 // client submission deadline expiries
	Orphans      float64 // txs committed after their client timed out
	RecoverySec  float64 // mean peer post-restart replay latency, seconds
}

// Run executes build(seed) for every seed and averages the reports.
// The build function must produce a complete config except Duration
// and Drain, which the options control. Seeds fan out across the
// worker pool (see RunAll and Options.Parallelism).
func (o Options) Run(build func(seed int64) fabric.Config) (Result, error) {
	results, err := o.RunAll([]Builder{build})
	if err != nil {
		return Result{}, err
	}
	return results[0], nil
}

func fromReport(r metrics.Report) Result {
	res := Result{
		Total:            float64(r.Total),
		Committed:        float64(r.Committed),
		FailurePct:       r.FailurePct,
		EndorsementPct:   r.EndorsementPct,
		IntraPct:         r.IntraBlockPct,
		InterPct:         r.InterBlockPct,
		MVCCPct:          r.MVCCPct,
		PhantomPct:       r.PhantomPct,
		AbortedPct:       r.AbortedPct,
		LatencySec:       r.AvgLatency.Seconds(),
		Throughput:       r.Throughput,
		Goodput:          r.Goodput,
		RetryAmp:         r.RetryAmplification,
		EndToEndSec:      r.AvgEndToEnd.Seconds(),
		BudgetExhausted:  float64(r.BudgetExhausted),
		DeferredRetries:  float64(r.DeferredRetries),
		MaxDeferred:      float64(r.MaxDeferredDepth),
		AdaptiveBackSec:  r.Backoff.Last.Seconds(),
		HintAvg:          r.Hint.Avg(),
		HintFinal:        r.Hint.Last,
		Paced:            float64(r.PacedSubmissions),
		PacedSec:         r.Paced.Sum.Seconds(),
		GossipMsgs:       float64(r.GossipMessages),
		GossipMerges:     float64(r.GossipMerges),
		GossipEstAvg:     r.GossipEstimate.Avg(),
		GossipEstFinal:   r.GossipEstimate.Last,
		GossipStaleSec:   r.GossipStaleness.Avg().Seconds(),
		ConflictEstAvg:   r.ConflictEst.Avg(),
		ConflictEstFinal: r.ConflictEst.Last,
		CongestEstAvg:    r.CongestEst.Avg(),
		CongestEstFinal:  r.CongestEst.Last,
		FaultWindows:     float64(r.FaultWindows),
		DowntimeSec:      r.NodeDowntime.Seconds(),
		EndorseTOs:       float64(r.EndorseTimeouts),
		SubmitTOs:        float64(r.SubmitTimeouts),
		Orphans:          float64(r.OrphanedTxs),
		RecoverySec:      r.Recovery.Avg().Seconds(),
	}
	if r.Jobs > 0 {
		res.GaveUpPct = 100 * float64(r.GaveUp) / float64(r.Jobs)
	}
	return res
}

// add and scale average reports over seeds. Result is all float64
// (TestResultIsAllFloat64 keeps it so), so one loop over the fields
// covers every metric, including the next one added.
func (r Result) add(o Result) Result {
	rv, ov := reflect.ValueOf(&r).Elem(), reflect.ValueOf(o)
	for i := 0; i < rv.NumField(); i++ {
		rv.Field(i).SetFloat(rv.Field(i).Float() + ov.Field(i).Float())
	}
	return r
}

func (r Result) scale(f float64) Result {
	rv := reflect.ValueOf(&r).Elem()
	for i := 0; i < rv.NumField(); i++ {
		rv.Field(i).SetFloat(rv.Field(i).Float() * f)
	}
	return r
}

// baseConfig assembles the default config for a chaincode factory on a
// cluster with the given skew.
func baseConfig(cluster Cluster, cc CCFactory, skew float64, sys System) func(int64) fabric.Config {
	return func(seed int64) fabric.Config {
		cfg := fabric.DefaultConfig()
		cluster.Apply(&cfg)
		cfg.Chaincode = cc.New()
		cfg.Workload = cc.Workload(skew)
		cfg.Variant = sys.Variant()
		return cfg
	}
}
