// Root benchmarks: one end-to-end simulated run, the largest scale
// cell, and the harness scheduler at one worker vs all cores (the
// ablations are in ablation_test.go). Every experiment's table is pinned
// row by row by internal/core's TestGoldenExperimentTables and timed by
// bench/'s sweep-systems workload; to regenerate the study use the CLI:
//
//	go run ./cmd/hyperlab -exp all -regime full
package hyperledgerlab

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
)

// benchOptions is a reduced regime: 12 virtual seconds, one seed, a
// 10k-key genChain.
func benchOptions() core.Options {
	return core.Options{
		Duration:    12 * time.Second,
		Drain:       18 * time.Second,
		Seeds:       []int64{1},
		GenKeys:     10000,
		Parallelism: 0, // one worker per CPU
	}
}

// BenchmarkMillionClients_SingleRun measures one 10^6-client run on 4
// channels — the largest single cell the scale experiment holds — to
// track the cohort layer's per-run cost in isolation.
func BenchmarkMillionClients_SingleRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig()
		cfg.Seed = int64(i + 1)
		cfg.Duration = 12 * time.Second
		cfg.Drain = 18 * time.Second
		cfg.Chaincode = EHRChaincode()
		cfg.Workload = EHRWorkload(2)
		cfg.Rate = 200
		cfg.Clients = 1_000_000
		cfg.CohortSize = 10_000
		cfg.Channels = 4
		cfg.CrossChannel = 0.1
		nw, err := NewNetwork(cfg)
		if err != nil {
			b.Fatal(err)
		}
		rep := nw.Run()
		if rep.Total == 0 {
			b.Fatal("empty run")
		}
	}
}

// BenchmarkExpAllParallelism measures how the harness's wall-clock
// for a full sweep scales with the worker-pool size (see also
// BenchmarkBlockSizeSweepParallelism in internal/core for the raw
// sweep primitive).
func BenchmarkExpAllParallelism(b *testing.B) {
	for _, p := range []int{1, 0} { // sequential vs all cores
		name := fmt.Sprintf("parallel=%d", p)
		if p == 0 {
			name = "parallel=numcpu"
		}
		b.Run(name, func(b *testing.B) {
			exp, err := core.Lookup("fig4")
			if err != nil {
				b.Fatal(err)
			}
			o := benchOptions()
			o.Parallelism = p
			for i := 0; i < b.N; i++ {
				if _, err := exp.Run(o); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSingleRun_EHR measures one end-to-end simulated run (the
// harness's unit of work): a 12-virtual-second EHR experiment.
func BenchmarkSingleRun_EHR(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig()
		cfg.Seed = int64(i + 1)
		cfg.Duration = 12 * time.Second
		cfg.Drain = 18 * time.Second
		cfg.Chaincode = EHRChaincode()
		cfg.Workload = EHRWorkload(1)
		nw, err := NewNetwork(cfg)
		if err != nil {
			b.Fatal(err)
		}
		rep := nw.Run()
		if rep.Total == 0 {
			b.Fatal("empty run")
		}
	}
}
