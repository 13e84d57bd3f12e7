package main

import (
	"time"

	"repro/internal/chaincodes/ehr"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/gen"
	"repro/internal/statedb"
)

// drain is the virtual time every workload lets in-flight transactions
// finish after its send window.
const drain = 30 * time.Second

// workload is one fixed set of inputs. A single-run workload has one
// cell and a rep is NewNetwork + Run on it; a sweep has several and a
// rep is one core.Options.RunAll over all of them on two workers.
type workload struct {
	name string
	why  string
	// duration is the virtual send window. It is part of the workload's
	// definition (it fixes the transaction counts that expected.json
	// pins); only the tests shorten it.
	duration time.Duration
	// cells is the number of simulations in one rep.
	cells int
	// sweep routes the rep through core's scheduler.
	sweep bool
	// cell builds cell i's config from the seed. It returns a fresh
	// chaincode and generator on every call (generators are stateful),
	// and leaves Seed, Duration and Drain to config.
	cell func(i int) fabric.Config
}

// config returns the complete config of cell i: what the program under
// test receives. The seed reaches it only through Config.Seed.
func (w workload) config(seed int64, i int) fabric.Config {
	cfg := w.cell(i)
	cfg.Seed = seed
	cfg.Duration = w.duration
	cfg.Drain = drain
	return cfg
}

func ehrConfig(skew float64) fabric.Config {
	cfg := fabric.DefaultConfig()
	cfg.Chaincode = ehr.New()
	cfg.Workload = ehr.NewWorkload(skew)
	return cfg
}

func genChainConfig(mix gen.Mix, keys int) fabric.Config {
	cc := core.GenChain(mix, keys)
	cfg := fabric.DefaultConfig()
	cfg.Chaincode = cc.New()
	cfg.Workload = cc.Workload(1)
	return cfg
}

// sweepBlockSizes are crossed with core.AllSystems() in sweep-systems.
var sweepBlockSizes = []int{10, 100}

// workloads lists the benchmark's workloads. The why lines are copied
// into BENCHMARK.json; bench_test.go checks the two agree.
var workloads = []workload{
	{
		name:     "ehr-fireforget",
		why:      "The paper's default run (EHR, CouchDB, open loop 100 tps): endorsement dominates and the client control plane does nothing.",
		duration: 300 * time.Second,
		cells:    1,
		cell:     func(int) fabric.Config { return ehrConfig(1) },
	},
	{
		name:     "ehr-controlplane",
		why:      "Same pipeline on LevelDB with 200 closed-loop clients and every client control on: gossip rounds and the event heap dominate, chaincode does not.",
		duration: 180 * time.Second,
		cells:    1,
		cell: func(int) fabric.Config {
			cfg := ehrConfig(1)
			cfg.DBKind = statedb.LevelDB
			cfg.ClosedLoop = true
			cfg.Clients = 200
			cfg.InFlightPerClient = 1
			cfg.ThinkTime = fabric.ThinkTime{Kind: fabric.ThinkExponential, Mean: time.Second}
			cfg.Retry = fabric.GiveUpAfter(fabric.BackpressurePolicy{}, 5)
			cfg.Backpressure = &fabric.Backpressure{}
			cfg.Gossip = &fabric.Gossip{Fanout: 3, Period: 200 * time.Millisecond}
			cfg.HintSource = fabric.HintBoth
			cfg.SplitSignal = &fabric.SplitSignal{}
			cfg.RetryBudget = &fabric.RetryBudget{RefillPerSec: 1, Burst: 3, Adaptive: true}
			return cfg
		},
	},
	{
		name:     "genchain-range",
		why:      "Range-heavy genChain over 100000 keys: range scans and phantom re-scans replace point reads, and it is the one workload with large set-up and heap.",
		duration: 300 * time.Second,
		cells:    1,
		cell:     func(int) fabric.Config { return genChainConfig(gen.RangeHeavy, 0) },
	},
	{
		name:     "million-sharded",
		why:      "The canonical scale cell: 10^6 clients in cohorts of 10000 over 4 channels with 10% cross-channel transactions at 200 tps; pairs with ehr-fireforget.",
		duration: 200 * time.Second,
		cells:    1,
		cell: func(int) fabric.Config {
			cfg := ehrConfig(2)
			cfg.Rate = 200
			cfg.Clients = 1_000_000
			cfg.CohortSize = 10_000
			cfg.Channels = 4
			cfg.CrossChannel = 0.1
			return cfg
		},
	},
	{
		name:     "sweep-systems",
		why:      "What researchers run: an 8-cell sweep (4 systems x 2 block sizes) through core's scheduler on two workers, the only use of the fork variants and both cores.",
		duration: 120 * time.Second,
		cells:    len(core.AllSystems()) * len(sweepBlockSizes),
		sweep:    true,
		cell: func(i int) fabric.Config {
			cfg := genChainConfig(gen.UpdateHeavy, 10000)
			cfg.Variant = core.AllSystems()[i/len(sweepBlockSizes)].Variant()
			cfg.BlockSize = sweepBlockSizes[i%len(sweepBlockSizes)]
			return cfg
		},
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
