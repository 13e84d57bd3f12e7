package fabric

import (
	"fmt"
	"math"
	"time"

	"repro/internal/sim"
)

// RetryBudget caps the rate at which one client may resubmit failed
// transactions, independently of which RetryPolicy decides the backoff
// schedule. Each client owns a token bucket: a resubmission consumes
// one token, tokens refill continuously at RefillPerSec (in virtual
// time), and the bucket never holds more than Burst tokens. First
// submissions are never charged — the budget throttles only the extra
// load that retries add.
//
// When the bucket is empty the behaviour depends on DropOnEmpty:
//
//   - false (the default): the retry is *deferred* — the bucket lends
//     the token and the resubmission waits until the loan is repaid by
//     the refill stream, on top of whatever backoff the policy chose.
//     Deferred retries serialize: each waits for its own token, so a
//     burst of failures drains into the network at RefillPerSec.
//   - true: the retry is *dropped* — the logical transaction is
//     abandoned immediately and counted as a budget exhaustion (and as
//     a given-up job) in the report.
//
// The budget is the congestion-control half of the retry subsystem:
// policies shape *when* an individual transaction comes back, the
// budget bounds *how much* duplicate work a misbehaving policy (or a
// pathological workload such as DV's phantom-conflict storm) can
// inject.
type RetryBudget struct {
	// RefillPerSec is the token refill rate in tokens per second of
	// virtual time. 0 defaults to 1; negative is a validation error.
	RefillPerSec float64
	// Burst is the bucket capacity and the initial fill, in tokens.
	// 0 defaults to 1; negative is a validation error.
	Burst float64
	// DropOnEmpty selects drop semantics (abandon the job) instead of
	// the default defer semantics (wait for a token) when the bucket
	// is empty.
	DropOnEmpty bool

	// Adaptive calibrates the budget to the workload instead of
	// trusting one fixed number to fit every chaincode: a conflict-bound
	// storm (DV's phantom conflicts) that finds the bucket empty doubles
	// the refill rate, capped at 64 × RefillPerSec, with the bucket
	// capacity scaling along (Burst × rate/RefillPerSec) so the raised
	// rate can actually be banked against the bursty block-commit
	// arrival of failures; the raised rate relaxes exponentially back
	// toward the configured base with a 10 virtual-second half-life
	// once the storm subsides. The rule is driven purely by take-time
	// bucket state, elapsed virtual time and the outcome's SignalClass,
	// so it draws no rng and stays deterministic. Congestion-class
	// demand (CLIENT_TIMEOUT) never raises the rate: granting more
	// retry budget to a backlogged network is exactly the wrong
	// response — pacing, not budget, handles congestion.
	Adaptive bool
}

// adaptiveMaxRefillFactor caps an adaptive bucket's refill rate at this
// multiple of its base rate: six doublings.
const adaptiveMaxRefillFactor = 64

// withDefaults resolves the documented zero-value defaults.
func (b RetryBudget) withDefaults() RetryBudget {
	if b.RefillPerSec == 0 {
		b.RefillPerSec = 1
	}
	if b.Burst == 0 {
		b.Burst = 1
	}
	return b
}

// Validate reports configuration errors.
func (b RetryBudget) Validate() error {
	if !finiteNonNeg(b.RefillPerSec) {
		return fmt.Errorf("fabric: retry budget refill rate must be a finite rate >= 0 tokens/s, got %g", b.RefillPerSec)
	}
	if !finiteNonNeg(b.Burst) {
		return fmt.Errorf("fabric: retry budget burst must be a finite count >= 0 tokens, got %g", b.Burst)
	}
	return nil
}

// tokenBucket is the per-client budget state. It operates in virtual
// time and is driven only from simulation events, so it needs no
// locking and stays deterministic.
type tokenBucket struct {
	rate   float64 // tokens per second (current; adaptive mode moves it)
	burst  float64 // capacity
	drop   bool
	tokens float64  // may go negative in defer mode (borrowed tokens)
	last   sim.Time // time of the last refill

	// Adaptive calibration (RetryBudget.Adaptive): rate moves between
	// base and adaptiveMaxRefillFactor × base per the rule in take.
	adaptive bool
	base     float64 // configured refill rate, the relaxation target
}

// newTokenBucket builds a full bucket from a (defaulted) config.
func newTokenBucket(b RetryBudget) *tokenBucket {
	b = b.withDefaults()
	return &tokenBucket{rate: b.RefillPerSec, burst: b.Burst, tokens: b.Burst, drop: b.DropOnEmpty,
		adaptive: b.Adaptive, base: b.RefillPerSec}
}

// adaptiveRelaxHalfLife is the half-life (virtual seconds) at which an
// adaptive bucket's raised refill rate decays back toward its base: a
// persistent conflict storm re-doubles the rate far faster than the
// decay erodes it, while a storm that ends lets the rate relax within
// a few tens of seconds. A per-take relax rule (halve on a full
// bucket) was tried first and misreads success as overshoot: once the
// raised rate absorbs the storm the bucket is full at every take, and
// the rate collapses while the storm still rages.
const adaptiveRelaxHalfLife = 10.0

// cap is the bucket's current capacity. In adaptive mode the capacity
// scales with the calibrated rate (burst × rate/base): failures arrive
// in bursts at block-commit instants, so a raised refill rate is
// useless unless the bucket can bank it between storms — with a fixed
// cap the doubled rate tops the bucket up in a blink and the next
// storm still drops everything past the configured burst.
func (tb *tokenBucket) cap() float64 {
	if tb.adaptive && tb.base > 0 {
		return tb.burst * tb.rate / tb.base
	}
	return tb.burst
}

// refill accrues tokens for the virtual time elapsed since the last
// call, capped at the bucket capacity. In adaptive mode it also
// relaxes a raised rate exponentially toward the base (tokens accrue
// at the pre-decay rate for the elapsed slice — a deterministic
// overestimate of at most one decay step).
func (tb *tokenBucket) refill(now sim.Time) {
	if now > tb.last {
		dt := time.Duration(now - tb.last).Seconds()
		tb.tokens += dt * tb.rate
		if tb.adaptive && tb.rate > tb.base {
			tb.rate = tb.base + (tb.rate-tb.base)*math.Pow(0.5, dt/adaptiveRelaxHalfLife)
		}
		tb.tokens = min(tb.tokens, tb.cap())
		tb.last = now
	}
}

// take charges one token at virtual time now, for a retry demanded by
// an outcome of the given signal class. ok=false means the retry must
// be dropped — the caller records it as a budget exhaustion, never as
// a deferral, and no token is consumed. A positive wait means the
// retry is deferred: the token was lent and becomes available only
// wait from now.
//
// In adaptive mode the bucket recalibrates its refill rate first:
// conflict-class demand on an empty bucket doubles the rate (capped at
// adaptiveMaxRefillFactor × base) — the base rate is undersized for
// this workload's failure volume — while the raised rate relaxes back toward base on a fixed
// half-life (see refill). Congestion-class demand never raises the
// rate (see RetryBudget.Adaptive). The rate change applies from now
// on; it never retroactively refills, so determinism and the burst
// cap hold.
func (tb *tokenBucket) take(now sim.Time, class SignalClass) (wait time.Duration, ok bool) {
	tb.refill(now)
	if tb.adaptive && tb.tokens < 1 && class == SignalConflict {
		tb.rate = min(2*tb.rate, adaptiveMaxRefillFactor*tb.base)
	}
	if tb.tokens < 1 && (tb.drop || tb.rate <= 0) {
		// Drop mode refuses on an empty bucket by design. Defer mode
		// refuses too when there is no refill stream to repay a loan
		// (rate <= 0, unreachable through Config but guarded here):
		// lending would park the retry forever, so the outcome must
		// read as an exhaustion drop, not an open-ended deferral.
		return 0, false
	}
	tb.tokens--
	if tb.tokens >= 0 {
		return 0, true
	}
	return time.Duration(-tb.tokens / tb.rate * float64(time.Second)), true
}

// level reports the current token level at virtual time now
// (diagnostics and tests).
func (tb *tokenBucket) level(now sim.Time) float64 {
	tb.refill(now)
	return tb.tokens
}
