// Scale walks the two mechanisms behind `hyperlab -exp scale` —
// cohort client drivers and multi-channel sharding — at example pace.
//
// The paper's testbed simulates every client as its own state object,
// which is faithful but caps the population a laptop can hold. Real
// Fabric deployments talk about millions of wallets and devices, and
// production deployments shard load across channels. Three acts:
//
//  1. equivalence: a 6-client closed-loop run split into two
//     3-member cohorts produces the *same* report as the exact
//     simulation — cohorts are an aggregation, not an approximation,
//     while the retry policy is stateless;
//  2. population: 10^2 to 10^5 clients at a fixed 200 tps total
//     arrival rate, cohort size scaled to keep ~100 drivers — the
//     chain-side load stays put while the population grows three
//     orders of magnitude;
//  3. sharding: the same load over 1, 2 and 4 channels with 10%
//     cross-channel two-leg transactions — what per-channel ordering
//     buys and what the distributed legs cost.
//
// Everything is deterministic: same seeds, same tables, at any
// parallelism.
package main

import (
	"fmt"
	"log"
	"time"

	lab "repro"
)

// options is the sweep regime: 30 virtual seconds, one seed.
func options() lab.Options {
	return lab.Options{
		Duration: 30 * time.Second,
		Drain:    30 * time.Second,
		Seeds:    []int64{1},
	}
}

// cell builds one EHR run with the given population, cohort size and
// channel layout under a capped exponential-backoff retry policy.
func cell(clients, cohortSize, channels int, crossChannel float64) lab.Builder {
	return func(seed int64) lab.Config {
		cfg := lab.DefaultConfig()
		cfg.Chaincode = lab.EHRChaincode()
		cfg.Workload = lab.EHRWorkload(2)
		cfg.Rate = 200
		cfg.Clients = clients
		cfg.CohortSize = cohortSize
		cfg.Channels = channels
		cfg.CrossChannel = crossChannel
		cfg.Retry = lab.ExponentialBackoff{
			Initial: 200 * time.Millisecond, Cap: 2 * time.Second,
			MaxAttempts: 5, Jitter: 0.2,
		}
		cfg.Seed = seed
		return cfg
	}
}

func main() {
	o := options()

	// Act 1: cohorts must reproduce the exact simulation.
	fmt.Println("== Act 1: cohort drivers vs exact per-client simulation (6 closed-loop clients)")
	closed := func(cohortSize int) lab.Builder {
		return func(seed int64) lab.Config {
			cfg := cell(6, cohortSize, 1, 0)(seed)
			cfg.ClosedLoop = true
			cfg.InFlightPerClient = 2
			cfg.Rate = 50
			return cfg
		}
	}
	results, err := o.RunAll([]lab.Builder{closed(0), closed(3)})
	if err != nil {
		log.Fatal(err)
	}
	exact, cohort := results[0], results[1]
	fmt.Printf("  exact : goodput=%6.2f tps  amp=%.4f  e2e=%.4fs  gave-up=%.2f%%\n",
		exact.Goodput, exact.RetryAmp, exact.EndToEndSec, exact.GaveUpPct)
	fmt.Printf("  cohort: goodput=%6.2f tps  amp=%.4f  e2e=%.4fs  gave-up=%.2f%%\n",
		cohort.Goodput, cohort.RetryAmp, cohort.EndToEndSec, cohort.GaveUpPct)
	if exact == cohort {
		fmt.Println("  -> identical to the last digit: cohorts aggregate, they do not approximate")
	} else {
		fmt.Println("  -> DIVERGED (this would fail the locked equivalence test)")
	}

	// Act 2: grow the population, hold the load.
	fmt.Println("\n== Act 2: population sweep at a fixed 200 tps total arrival rate")
	pops := []int{100, 1_000, 10_000, 100_000}
	var builds []lab.Builder
	for _, p := range pops {
		size := p / 100
		builds = append(builds, cell(p, size, 1, 0))
	}
	start := time.Now()
	results, err = o.RunAll(builds)
	if err != nil {
		log.Fatal(err)
	}
	for i, p := range pops {
		r := results[i]
		fmt.Printf("  %7d clients (~100 cohorts): tput=%6.1f tps  goodput=%6.2f tps  amp=%.2f  e2e=%5.2fs\n",
			p, r.Throughput, r.Goodput, r.RetryAmp, r.EndToEndSec)
	}
	fmt.Printf("  (whole sweep took %v real time)\n", time.Since(start).Round(time.Millisecond))

	// Act 3: shard the same load across channels.
	fmt.Println("\n== Act 3: channel sharding (10k clients, 10% cross-channel when sharded)")
	for _, ch := range []int{1, 2, 4} {
		cross := 0.0
		if ch > 1 {
			cross = 0.1
		}
		r, err := o.Run(cell(10_000, 100, ch, cross))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %d channel(s): tput=%6.1f tps  goodput=%6.2f tps  fail=%5.2f%%  e2e=%5.2fs\n",
			ch, r.Throughput, r.Goodput, r.FailurePct, r.EndToEndSec)
	}
}
