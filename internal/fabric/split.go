package fabric

import "repro/internal/ledger"

// SignalClass partitions attempt outcomes by which control can
// actually help against them. The coordination stack's scalar estimate
// (PR 5) folded every failure into one number, so on contention-bound
// workloads — where MVCC and phantom conflicts dominate — clients
// paced hard even when the orderer was idle. The split keeps the two
// phenomena apart:
//
//   - conflict-class failures (MVCC intra/inter-block, phantom reads,
//     endorsement divergence, early aborts of doomed transactions) are
//     caused by data contention: pacing the orderer does nothing for
//     them; *backing off* until the hot key cools does;
//   - congestion-class failures (client-side deadline expiries) are
//     caused by backlog: backing off a single client does little;
//     *pacing* the fleet drains the queue.
//
// Valid outcomes carry no alarm in either direction.
type SignalClass int

const (
	// SignalNone is a Valid outcome: evidence against both alarms.
	SignalNone SignalClass = iota
	// SignalConflict is a contention-caused failure: drives backoff.
	SignalConflict
	// SignalCongestion is a backlog-caused failure: drives pacing.
	SignalCongestion
)

// String names the class for diagnostics.
func (s SignalClass) String() string {
	switch s {
	case SignalConflict:
		return "conflict"
	case SignalCongestion:
		return "congestion"
	}
	return "none"
}

// ClassifyOutcome maps a validation code to its signal class. The
// mapping is total: every failure code lands in exactly one class, and
// codes this build does not know yet default to conflict — the
// conservative direction, since backoff only costs the one client
// while mis-pacing throttles fresh load fleet-wide.
//
// CLIENT_TIMEOUT is the one congestion-class code: a deadline expiry
// means the attempt's envelope (or its commit event) is stuck behind a
// backlog or a fault window, which retrying harder cannot fix but
// pacing can relieve. Everything else — MVCC inter/intra-block,
// phantom reads, endorsement divergence, and ordering-phase early
// aborts of doomed transactions — is contention showing up at
// different pipeline stages.
func ClassifyOutcome(code ledger.ValidationCode) SignalClass {
	switch code {
	case ledger.Valid:
		return SignalNone
	case ledger.ClientTimeout:
		return SignalCongestion
	default:
		return SignalConflict
	}
}

// SplitSignal enables the two-component client signal
// (Config.SplitSignal): the gossip estimate, the adaptive window and
// the budget calibration all classify outcomes per SignalClass instead
// of collapsing them into a scalar failure rate, and the two resulting
// estimates route to the controls they can help — conflict to backoff
// (AdaptivePolicy's AIMD gate, BackpressurePolicy's slide),
// congestion to pacing (the backpressure pacer, whatever HintSource
// feeds it).
//
// The congestion estimate also applies a latency rule: an attempt that
// took 2 × Config.BlockTimeout or longer from submission to resolution
// counts as congestion evidence whatever its validation code (an idle
// pipeline resolves well under one block timeout plus cutting slack).
// That lets the estimate rise on a jammed orderer before any client
// deadline (Config.Faults) expires — commits still happen, just slowly.
//
// Nil (the default) is scalar mode, the same path with a one-class
// classifier — every failure is conflict-class, the latency rule never
// applies — and the two resolved signals collapsed to their max, so
// backoff and pacing read one number as they did before the split
// existed (byte-identical, pinned by every pre-split golden).
type SplitSignal struct{}

// SplitEstimate is the client signal every gossip message carries: the
// conflict and congestion estimates, each in [0,1] and each merged and
// decayed independently — a fleet-wide conflict storm must not
// manufacture congestion alarm, and vice versa. Without
// Config.SplitSignal every failure is conflict-class, so Congestion is
// exactly 0 and Max() is the scalar estimate of PR 5.
type SplitEstimate struct {
	Conflict   float64
	Congestion float64
}

// Max collapses the estimate to its more alarmed component — the
// scalar view used for the shared gossip-estimate trajectory metric.
func (e SplitEstimate) Max() float64 {
	return MergeEstimates(e.Conflict, e.Congestion)
}
