package fabric

import (
	"repro/internal/ledger"
	"repro/internal/sim"
)

// ClientDriver is a client-behavior implementation: one network node
// that drives one or more simulated clients through the
// submit/endorse/order/commit loop. Two implementations exist — the
// exact per-client Client and the state-sharing Cohort — both built
// on the same clientCore machinery, so they differ only in their
// arrival process and in how many simulated clients amortize one
// state object.
//
// The driver list is also the gossip mesh: each driver is one gossip
// participant regardless of how many members it speaks for.
type ClientDriver interface {
	// Name returns the driver's network node name ("client3",
	// "cohort0").
	Name() string
	// Members reports how many simulated clients this driver drives
	// (always 1 for Client).
	Members() int
	// Resubmissions reports how many retry submissions this driver
	// issued (diagnostics).
	Resubmissions() int
	// Pending reports how many attempts are still awaiting an outcome
	// event (diagnostics).
	Pending() int

	// start schedules the driver's arrival process.
	start()
	// onOutcome delivers a commit (or early-abort) event for one
	// transaction id, with the channel's congestion hint.
	onOutcome(txID string, code ledger.ValidationCode, hint float64, channel int)
	// onGossip delivers one peer driver's signal estimate.
	onGossip(e SplitEstimate, sentAt sim.Time)
}

var (
	_ ClientDriver = (*Client)(nil)
	_ ClientDriver = (*Cohort)(nil)
)
