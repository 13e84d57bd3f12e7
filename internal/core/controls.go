package core

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/fabric"
)

// Rung is one rung of a retry-control ladder: a label for the table
// row plus the whole client control plane (fabric.Control — retry
// policy, budget, backpressure, gossip, hint source, split signal). The
// zero value of every control field is the subsystem off.
type Rung struct {
	Label string
	fabric.Control
}

// Apply wires the rung into a config. The whole control plane is
// replaced, so a rung that leaves a subsystem out switches it off.
func (r Rung) Apply(cfg *fabric.Config) { cfg.Control = r.Control }

// The control literals every ladder draws from, each defined once. All
// policies cap at 5 submissions so grids stay comparable. The configs
// behind the pointers are read-only: a network copies what it resolves.
var (
	// staticBackoff is the capped exponential backoff with
	// deterministic jitter — a fixed schedule that ignores what the
	// network is doing. It is the baseline of every ladder.
	staticBackoff = fabric.ExponentialBackoff{
		Initial:     200 * time.Millisecond,
		Cap:         2 * time.Second,
		MaxAttempts: 5,
		Jitter:      0.2,
	}
	// aimdPolicy is the client-local AIMD controller: each client
	// watches only its own windowed failure rate.
	aimdPolicy = fabric.AdaptivePolicy{
		Floor:       100 * time.Millisecond,
		Ceiling:     4 * time.Second,
		Decrease:    50 * time.Millisecond,
		MaxAttempts: 5,
		Jitter:      0.2,
	}
	// hintedPolicy backs off from the shared congestion hint.
	hintedPolicy = fabric.BackpressurePolicy{
		Floor:       100 * time.Millisecond,
		MaxAttempts: 5,
		Jitter:      0.2,
	}

	// The per-client token bucket (1 token/s, burst 3) in its three
	// modes: drop on empty, defer on empty, drop with adaptive refill.
	dropBucket     = &fabric.RetryBudget{RefillPerSec: 1, Burst: 3, DropOnEmpty: true}
	deferBucket    = &fabric.RetryBudget{RefillPerSec: 1, Burst: 3}
	adaptiveBucket = &fabric.RetryBudget{RefillPerSec: 1, Burst: 3, DropOnEmpty: true, Adaptive: true}

	defaultSignal = &fabric.Backpressure{}
	defaultMesh   = &fabric.Gossip{} // documented defaults: fanout 2, 500ms period
	defaultSplit  = &fabric.SplitSignal{}
)

// retryLadder is the policy ladder the retry-policies sweep compares,
// each rung labelled by its policy's name: fire-and-forget (the
// paper's clients), capped immediate resubmission, capped exponential
// backoff with deterministic jitter, and an unlimited backoff truncated
// to a give-up-after-N budget.
var retryLadder = func() (rungs []Rung) {
	for _, p := range []fabric.RetryPolicy{
		fabric.NoRetry{},
		fabric.ImmediateRetry{MaxAttempts: 3},
		staticBackoff,
		fabric.GiveUpAfter(fabric.ExponentialBackoff{
			Initial: 100 * time.Millisecond,
			Cap:     time.Second,
			Jitter:  0.5,
		}, 2),
	} {
		rungs = append(rungs, Rung{p.Name(), fabric.Control{Retry: p}})
	}
	return rungs
}()

// cotuneLadder is the five retry-control strategies the co-tuning
// study compares, all capped at 5 submissions so grids stay
// comparable:
//
//   - "static": the PR-2 exponential backoff — a fixed schedule that
//     ignores what the network is doing;
//   - "adaptive": the AIMD controller, which watches each client's
//     windowed failure rate and grows/shrinks its backoff;
//   - "budgeted": the static backoff gated by a drop-mode token bucket
//     (1 token/s, burst 3 per client), which bounds retry load at the
//     price of abandoning transactions when the budget runs dry;
//   - "paced": the same bucket in defer mode — no transaction is
//     dropped, but retries beyond the budget queue up and drain into
//     the network at the refill rate;
//   - "budgeted-adaptive": the drop-mode bucket with adaptive refill
//     calibration (RetryBudget.Adaptive) — conflict-class demand on an
//     empty bucket doubles the refill rate so hot chaincodes like DV
//     stop burning thousands of drops against a rate tuned for EHR,
//     while an idle full bucket decays back to the base rate.
var cotuneLadder = []Rung{
	{"static", fabric.Control{Retry: staticBackoff}},
	{"adaptive", fabric.Control{Retry: aimdPolicy}},
	{"budgeted", fabric.Control{Retry: staticBackoff, RetryBudget: dropBucket}},
	{"paced", fabric.Control{Retry: staticBackoff, RetryBudget: deferBucket}},
	{"budgeted-adaptive", fabric.Control{Retry: staticBackoff, RetryBudget: adaptiveBucket}},
}

// hinted builds a shared-signal rung: hintedPolicy backing off from,
// and the default pacer pacing by, the hint src selects.
func hinted(label string, src fabric.HintSource, mesh *fabric.Gossip, split *fabric.SplitSignal) Rung {
	return Rung{label, fabric.Control{Retry: hintedPolicy, Backpressure: defaultSignal,
		Gossip: mesh, HintSource: src, SplitSignal: split}}
}

// coordinationLadder is the retry-control strategies the coordination
// study compares, all capped at 5 submissions so grids
// stay comparable with retry-cotune:
//
//   - "aimd": the PR-3 client-local AIMD controller — each client
//     watches only its own windowed failure rate, no sharing at all;
//   - "hinted-orderer": the orderer-driven BackpressurePolicy — every
//     client backs off from the shared congestion hint the ordering
//     service stamps onto commit events (the global view, pushed),
//     with the pacer also stretching resubmission delays by hint×gain;
//   - "hinted-gossip": the same policy and pacer, but fed by the
//     client-to-client gossip estimate instead — the orderer computes
//     no hints, so the clients share only what they each observed
//     (no privileged source, still a common signal);
//   - "hinted-both": the max-combination of the two signals — backs
//     off from whichever view is currently more alarmed;
//   - "split-gossip" / "split-both": the same wiring as the matching
//     hinted rung plus SplitSignal — outcomes are classified into a
//     conflict component (MVCC/phantom failures, drives backoff) and
//     a congestion component (ordering backlog and slow commits,
//     drives pacing) instead of one scalar estimate. These rungs pin
//     the fix for the scalar signal's mis-pacing: on contention-bound
//     workloads with an idle orderer, the scalar rungs pace heavily
//     from pure conflict failures while the split rungs keep pacing
//     near zero and let backoff absorb the conflicts.
//
// Comparing the three hinted rungs isolates the ROADMAP question of
// whether the coordination win comes from the signal's *source* (the
// orderer's global view) or its *sharing* (any common signal). The
// "hinted-orderer" rung is configuration-identical to PR 4's "hinted"
// rung, so its rows are byte-identical to that baseline; the split
// rungs likewise leave every pre-existing row byte-identical.
var (
	rungAIMD          = Rung{"aimd", fabric.Control{Retry: aimdPolicy}}
	rungHintedOrderer = hinted("hinted-orderer", fabric.HintOrderer, nil, nil)
	rungHintedGossip  = hinted("hinted-gossip", fabric.HintGossip, defaultMesh, nil)

	coordinationLadder = []Rung{
		rungAIMD, rungHintedOrderer, rungHintedGossip,
		hinted("hinted-both", fabric.HintBoth, defaultMesh, nil),
		hinted("split-gossip", fabric.HintGossip, defaultMesh, defaultSplit),
		hinted("split-both", fabric.HintBoth, defaultMesh, defaultSplit),
	}
)

// faultLadder is the control axis of the faults study: the plain
// capped exponential baseline, then three rungs verbatim from the
// coordination study, so their healthy-scenario rows are directly
// comparable with the retry-coordination grid.
var (
	rungBackoff = Rung{"backoff", fabric.Control{Retry: staticBackoff}}
	faultLadder = []Rung{rungBackoff, rungAIMD, rungHintedOrderer, rungHintedGossip}
)

// Rungs lists every rung the control studies run, each label once, in
// ladder order: retry-policies, retry-cotune, retry-coordination, then
// the faults study's baseline. A label two ladders share names one
// control.
func Rungs() []Rung {
	var rungs []Rung
	for _, ladder := range [][]Rung{retryLadder, cotuneLadder, coordinationLadder, faultLadder} {
		for _, r := range ladder {
			if !slices.ContainsFunc(rungs, func(k Rung) bool { return k.Label == r.Label }) {
				rungs = append(rungs, r)
			}
		}
	}
	return rungs
}

// LookupRung finds a rung of Rungs by its label.
func LookupRung(label string) (Rung, error) {
	var labels []string
	for _, r := range Rungs() {
		if r.Label == label {
			return r, nil
		}
		labels = append(labels, r.Label)
	}
	return Rung{}, fmt.Errorf("core: unknown control %q, want one of %s", label, strings.Join(labels, ", "))
}
