// Retry-control walks the client control plane one rung at a time. The
// paper's clients fire and forget, so a failed transaction is simply
// lost; a real application must resubmit it, and the retry traffic
// feeds the very contention that failed it. Config.Control is the one
// value that says what a client does about that: a retry policy, a
// per-client token-bucket budget, the orderer's backpressure hint, the
// client-to-client gossip estimate, which of the two feeds the shared
// hint, and whether the signal is split into conflict (drives backoff)
// and congestion (drives pacing).
//
// One ladder of lab.Rung values — a label plus a lab.Control — is
// applied with Rung.Apply on two stages:
//
//  1. contended EHR: skew 2 at 100 tps, where failures are conflicts
//     and the question is what a failure costs end to end;
//  2. an undersized orderer: 25 ms of serial CPU per transaction
//     (≈ 40 tps capacity) under 50 tps, where failures are congestion
//     and the question is whether clients that share a signal (the
//     orderer's, or merely each other's) beat client-local control —
//     the ladder of `hyperlab -exp retry-coordination`.
//
// Every cell fans out across the harness's scheduler; tables are
// identical at any worker count.
package main

import (
	"fmt"
	"log"
	"time"

	lab "repro"
)

var options = lab.Options{Duration: 40 * time.Second, Drain: 30 * time.Second, Seeds: []int64{1}}

// contended is stage 1, congested stage 2.
func contended() lab.Config {
	cfg := lab.DefaultConfig()
	cfg.Chaincode = lab.EHRChaincode()
	cfg.Workload = lab.EHRWorkload(2)
	return cfg
}

func congested() lab.Config {
	cfg := lab.DefaultConfig()
	cfg.Chaincode = lab.EHRChaincode()
	cfg.Workload = lab.EHRWorkload(1)
	cfg.Rate = 50
	cfg.OrdererCosts.PerTx = 25 * time.Millisecond
	return cfg
}

// walk runs every rung of the ladder on one stage and prints a row each.
func walk(title string, stage func() lab.Config, ladder []lab.Rung) {
	builds := make([]lab.Builder, len(ladder))
	for i, r := range ladder {
		r := r
		builds[i] = func(int64) lab.Config {
			cfg := stage()
			r.Apply(&cfg) // replaces the whole control plane
			return cfg
		}
	}
	results, err := options.RunAll(builds)
	if err != nil {
		log.Fatal(err)
	}
	sec := func(s float64) time.Duration {
		return time.Duration(s * float64(time.Second)).Round(time.Millisecond)
	}
	fmt.Printf("\n== %s\n", title)
	fmt.Printf("%-16s %-12s %-9s %-5s %-8s %-9s %-10s %-9s %-6s %-6s %-8s\n", "control",
		"goodput tps", "tput tps", "amp", "e2e lat", "gave up %", "exhausted", "paced s", "hint", "gest", "aimd fin")
	for i, r := range ladder {
		x := results[i]
		fmt.Printf("%-16s %-12.1f %-9.1f %-5.2f %-8v %-9.1f %-10.0f %-9.1f %-6.3f %-6.3f %-8v\n", r.Label,
			x.Goodput, x.Throughput, x.RetryAmp, sec(x.EndToEndSec), x.GaveUpPct, x.BudgetExhausted,
			x.PacedSec, x.HintFinal, x.GossipEstFinal, sec(x.AdaptiveBackSec))
	}
}

func main() {
	static := lab.ExponentialBackoff{Initial: 200 * time.Millisecond, Cap: 2 * time.Second, MaxAttempts: 5, Jitter: 0.2}
	aimd := lab.AdaptivePolicy{Floor: 100 * time.Millisecond, Ceiling: 4 * time.Second, MaxAttempts: 5, Jitter: 0.2}
	hinted := lab.BackpressurePolicy{Floor: 100 * time.Millisecond, MaxAttempts: 5, Jitter: 0.2}
	bucket := lab.RetryBudget{RefillPerSec: 1, Burst: 3}
	drop := bucket
	drop.DropOnEmpty = true
	signal, mesh := &lab.Backpressure{}, &lab.Gossip{} // documented defaults

	ladder := []lab.Rung{
		{Label: "none"}, // the paper's fire-and-forget client
		{Label: "immediate", Control: lab.Control{Retry: lab.ImmediateRetry{MaxAttempts: 3}}},
		{Label: "static", Control: lab.Control{Retry: static}},
		{Label: "static-cap2", Control: lab.Control{Retry: lab.GiveUpAfter(static, 2)}},
		{Label: "aimd", Control: lab.Control{Retry: aimd}},
		{Label: "budget-drop", Control: lab.Control{Retry: static, RetryBudget: &drop}},
		{Label: "budget-defer", Control: lab.Control{Retry: static, RetryBudget: &bucket}},
		{Label: "hinted-orderer", Control: lab.Control{Retry: hinted, Backpressure: signal, HintSource: lab.HintOrderer}},
		{Label: "hinted+budget", Control: lab.Control{Retry: hinted, Backpressure: signal, RetryBudget: &drop}},
		{Label: "hinted-gossip", Control: lab.Control{Retry: hinted, Backpressure: signal, Gossip: mesh, HintSource: lab.HintGossip}},
		{Label: "hinted-both", Control: lab.Control{Retry: hinted, Backpressure: signal, Gossip: mesh, HintSource: lab.HintBoth}},
		{Label: "split-both", Control: lab.Control{Retry: hinted, Backpressure: signal, Gossip: mesh, HintSource: lab.HintBoth,
			SplitSignal: &lab.SplitSignal{}}},
	}
	walk("EHR at skew 2, 100 tps: what does a failure cost end to end?", contended, ladder)
	walk("EHR against a 40 tps orderer at 50 tps: client-local vs shared signals", congested, ladder)

	fmt.Println("\nFire-and-forget loses every failed transaction (goodput is first-try")
	fmt.Println("successes only); unbudgeted retries multiply the submitted load (amp), and a")
	fmt.Println("budget bounds it outright (drop) or paces it out (defer). On the contended")
	fmt.Println("stage the orderer is idle (hint 0), yet the scalar gossip rungs pace for")
	fmt.Println("hours of summed client time on pure conflicts; split-both routes conflicts to")
	fmt.Println("backoff and barely paces. On the congested stage the hint saturates and the")
	fmt.Println("hinted clients back off together.")
}
