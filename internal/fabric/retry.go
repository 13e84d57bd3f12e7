package fabric

import (
	"fmt"
	"math/rand"
	"time"
)

// RetryPolicy decides whether a client resubmits a failed transaction
// and after what backoff. Fabric clients observe failures through
// commit events (§2 step 7) and the paper's motivating premise is that
// applications must resubmit failed transactions themselves — the SDK
// does not. A policy is consulted once per failed attempt with the
// number of attempts made so far (>= 1); returning ok=false abandons
// the transaction ("give up").
//
// All randomness (jitter) must come from the rng passed in, which is
// the simulation engine's deterministic source: the same (config,
// seed) pair always produces the same retry schedule.
type RetryPolicy interface {
	// Name identifies the policy in reports and experiment tables.
	Name() string
	// NextDelay reports whether a transaction that has failed
	// `attempts` times should be resubmitted, and the backoff to wait
	// before doing so.
	NextDelay(attempts int, rng *rand.Rand) (time.Duration, bool)
}

// NoRetry never resubmits: the fire-and-forget behaviour of the
// paper's Caliper clients (§4.5, "failed transactions are not
// resent"). It is the default when Config.Retry is nil.
type NoRetry struct{}

// Name implements RetryPolicy.
func (NoRetry) Name() string { return "none" }

// NextDelay implements RetryPolicy.
func (NoRetry) NextDelay(int, *rand.Rand) (time.Duration, bool) { return 0, false }

// ImmediateRetry resubmits a failed transaction right away, with no
// backoff. MaxAttempts caps the total number of submissions (first
// attempt included); 0 means unlimited. Immediate resubmission is the
// naive client loop — under contention it amplifies the very conflicts
// that failed the transaction.
type ImmediateRetry struct {
	MaxAttempts int
}

// Name implements RetryPolicy.
func (p ImmediateRetry) Name() string {
	if p.MaxAttempts > 0 {
		return fmt.Sprintf("immediate(%d)", p.MaxAttempts)
	}
	return "immediate"
}

// NextDelay implements RetryPolicy.
func (p ImmediateRetry) NextDelay(attempts int, _ *rand.Rand) (time.Duration, bool) {
	if p.MaxAttempts > 0 && attempts >= p.MaxAttempts {
		return 0, false
	}
	return 0, true
}

// ExponentialBackoff resubmits after a capped exponential backoff with
// multiplicative jitter: the k'th retry waits
// min(Initial*2^(k-1), Cap) scaled by a uniform factor in
// [1-Jitter, 1+Jitter] drawn from the simulation rng. MaxAttempts caps
// total submissions (0 = unlimited).
type ExponentialBackoff struct {
	Initial     time.Duration // first backoff (default 250ms)
	Cap         time.Duration // backoff ceiling (default 8s)
	MaxAttempts int           // total submissions, first included (0 = unlimited)
	Jitter      float64       // uniform ± fraction applied to each backoff
}

// Validate reports configuration errors.
func (p ExponentialBackoff) Validate() error {
	if !finiteNonNeg(p.Jitter) {
		return fmt.Errorf("fabric: backoff jitter must be a finite fraction >= 0, got %g", p.Jitter)
	}
	return nil
}

// Name implements RetryPolicy.
func (p ExponentialBackoff) Name() string {
	if p.MaxAttempts > 0 {
		return fmt.Sprintf("backoff(%d)", p.MaxAttempts)
	}
	return "backoff"
}

// NextDelay implements RetryPolicy.
func (p ExponentialBackoff) NextDelay(attempts int, rng *rand.Rand) (time.Duration, bool) {
	if p.MaxAttempts > 0 && attempts >= p.MaxAttempts {
		return 0, false
	}
	initial := p.Initial
	if initial <= 0 {
		initial = 250 * time.Millisecond
	}
	cap := p.Cap
	if cap <= 0 {
		cap = 8 * time.Second
	}
	d := initial
	for i := 1; i < attempts && d < cap; i++ {
		d *= 2
	}
	return jitterDelay(min(d, cap), p.Jitter, rng), true
}

// GiveUpAfter wraps a policy with a hard attempt budget: the inner
// policy's schedule applies, but after n total submissions the
// transaction is abandoned regardless of what the inner policy says.
// It turns an unlimited policy into a give-up-after-N one. Stateful
// inner policies (AdaptivePolicy) keep their per-client adaptation:
// inside a Network the cap wraps the inner policy's controller.
func GiveUpAfter(inner RetryPolicy, n int) RetryPolicy {
	return giveUpAfter{inner: inner, n: n}
}

type giveUpAfter struct {
	inner RetryPolicy
	n     int
}

// Name implements RetryPolicy.
func (g giveUpAfter) Name() string { return fmt.Sprintf("%s-cap%d", g.inner.Name(), g.n) }

// NextDelay implements RetryPolicy.
func (g giveUpAfter) NextDelay(attempts int, rng *rand.Rand) (time.Duration, bool) {
	if attempts >= g.n {
		return 0, false
	}
	return g.inner.NextDelay(attempts, rng)
}

// Validate checks the wrapper and forwards the inner policy's
// validation.
func (g giveUpAfter) Validate() error {
	switch {
	case g.inner == nil:
		return fmt.Errorf("fabric: give-up-after wraps no retry policy")
	case g.n < 1:
		return fmt.Errorf("fabric: retry cap must be >= 1 submission, got %d", g.n)
	}
	return validatePolicy(g.inner)
}

// validatePolicy runs a policy's Validate if it has one: the interface
// does not require it, so user-supplied policies need none. Nil (no
// policy) is valid.
func validatePolicy(p RetryPolicy) error {
	if v, ok := p.(interface{ Validate() error }); ok {
		return v.Validate()
	}
	return nil
}

// newController caps the inner policy's controller, so its hooks and
// per-driver state pass through the wrapper.
func (g giveUpAfter) newController() controller {
	return cappedController{newController(g.inner), g.n}
}

// cappedController is giveUpAfter's per-driver form: the inner
// controller with its schedule cut off after n attempts.
type cappedController struct {
	controller
	n int
}

// NextDelay implements controller.
func (c cappedController) NextDelay(attempts int, rng *rand.Rand) (time.Duration, bool) {
	if attempts >= c.n {
		return 0, false
	}
	return c.controller.NextDelay(attempts, rng)
}

// controller is one client driver's retry controller: the schedule
// consulted on failures plus the hooks through which the client signal
// path feeds it. Stateful policies build one per driver (newController)
// so adaptation never aliases across clients — a cohort's members share
// one, the mean-field approximation. Every other policy, user-supplied
// ones included, runs behind statelessController: the hooks do nothing,
// the shared estimate is never consulted on its behalf, and no rng is
// drawn beyond what its own NextDelay draws.
type controller interface {
	// NextDelay is RetryPolicy's, over this driver's state.
	NextDelay(attempts int, rng *rand.Rand) (time.Duration, bool)
	// observeClass feeds one classified attempt outcome — commits as
	// well as the failures NextDelay is then consulted about — mirroring
	// an SDK client reacting to its own commit-event stream.
	observeClass(class SignalClass)
	// observeHint hands over the current shared-signal value in [0,1]
	// (orderer hint or gossip estimate) ahead of the next NextDelay.
	observeHint(h float64)
	// consumesHint reports whether the controller reads observeHint.
	// Only then is the gossip estimate consulted for it, and every
	// consultation is a GossipStaleness sample in the report.
	consumesHint() bool
	// backoffLevel reports the controller's evolving backoff level,
	// sampled into the collector after every observed outcome; ok is
	// false for controllers without one.
	backoffLevel() (d time.Duration, ok bool)
}

// noHooks is the embeddable no-op default for the controller hooks.
type noHooks struct{}

func (noHooks) observeClass(SignalClass)            {}
func (noHooks) observeHint(float64)                 {}
func (noHooks) consumesHint() bool                  { return false }
func (noHooks) backoffLevel() (time.Duration, bool) { return 0, false }

// statelessController runs a policy that keeps no per-client state.
type statelessController struct {
	RetryPolicy
	noHooks
}

// newController instantiates p's controller for one driver.
func newController(p RetryPolicy) controller {
	if s, ok := p.(interface{ newController() controller }); ok {
		return s.newController()
	}
	return statelessController{RetryPolicy: p}
}
