package fabric

import (
	"fmt"
	"math/rand"
	"time"
)

// AdaptivePolicy is a failure-rate-watching retry policy: instead of a
// fixed backoff schedule, each client runs an AIMD (additive increase
// is the *recovery* direction here — additive decrease of the backoff
// on commits, multiplicative increase on aborts) controller fed by the
// commit events the client already listens to. The client observes
// every attempt outcome, keeps the last outcomeWindowSize outcomes in a
// sliding window, and adjusts a single current-backoff level:
//
//   - a failed attempt while the windowed failure rate is at or above
//     aimdTarget multiplies the backoff by aimdIncrease (capped at
//     Ceiling) — the client interprets sustained failures as congestion
//     and backs off hard, like a TCP sender halving its window;
//   - a committed attempt subtracts Decrease (floored at Floor) — the
//     client probes for capacity additively;
//   - isolated failures below the target rate leave the level alone,
//     so one unlucky MVCC conflict does not stall an otherwise healthy
//     client.
//
// Every resubmission then waits the current level, jittered by ±Jitter
// with randomness from the simulation rng, so runs remain
// deterministic for a given (config, seed).
//
// The network gives every client its own controller instance: the
// failure rate being watched is the client's own, not the fleet's.
// Calling NextDelay on the AdaptivePolicy value itself (outside a
// Network) behaves as a constant Floor-level backoff.
type AdaptivePolicy struct {
	// Floor is the minimum backoff and the starting level.
	// 0 defaults to 50ms; negative is a validation error.
	Floor time.Duration
	// Ceiling is the maximum backoff the multiplicative increase can
	// reach. 0 defaults to 8s.
	Ceiling time.Duration
	// Decrease is the additive step subtracted from the backoff on
	// every commit. 0 defaults to 25ms.
	Decrease time.Duration
	// MaxAttempts caps total submissions per logical transaction,
	// first attempt included. 0 = unlimited.
	MaxAttempts int
	// Jitter is the uniform ± fraction applied to each delay.
	// 0 means no jitter.
	Jitter float64
}

// The AIMD constants: the factor a failure at or above the target rate
// multiplies the backoff by, and that windowed failure-rate threshold
// (10% failures).
const (
	aimdIncrease = 2
	aimdTarget   = 0.1
)

// withDefaults resolves the documented zero-value defaults.
func (p AdaptivePolicy) withDefaults() AdaptivePolicy {
	if p.Floor == 0 {
		p.Floor = 50 * time.Millisecond
	}
	if p.Ceiling == 0 {
		p.Ceiling = 8 * time.Second
	}
	if p.Decrease == 0 {
		p.Decrease = 25 * time.Millisecond
	}
	return p
}

// Validate reports configuration errors. The floor/ceiling relation
// is checked against the resolved defaults, so a floor above the
// default 8s ceiling is rejected too.
func (p AdaptivePolicy) Validate() error {
	switch {
	case p.Floor < 0:
		return fmt.Errorf("fabric: adaptive floor must be >= 0, got %v", p.Floor)
	case p.Ceiling < 0:
		return fmt.Errorf("fabric: adaptive ceiling must be >= 0, got %v", p.Ceiling)
	case p.Decrease < 0:
		return fmt.Errorf("fabric: adaptive decrease step must be >= 0, got %v", p.Decrease)
	case !finiteNonNeg(p.Jitter):
		return fmt.Errorf("fabric: adaptive jitter must be a finite fraction >= 0, got %g", p.Jitter)
	}
	if d := p.withDefaults(); d.Floor > d.Ceiling {
		return fmt.Errorf("fabric: adaptive floor %v above ceiling %v", d.Floor, d.Ceiling)
	}
	return nil
}

// Name implements RetryPolicy.
func (p AdaptivePolicy) Name() string {
	if p.MaxAttempts > 0 {
		return fmt.Sprintf("adaptive(%d)", p.MaxAttempts)
	}
	return "adaptive"
}

// NextDelay implements RetryPolicy on the bare config value: a
// controller that has seen nothing yet, so it backs off at the Floor
// level. Inside a Network each client consults its own *adaptiveState.
func (p AdaptivePolicy) NextDelay(attempts int, rng *rand.Rand) (time.Duration, bool) {
	return p.newController().NextDelay(attempts, rng)
}

// newController gives every driver a fresh controller seeded at the
// floor.
func (p AdaptivePolicy) newController() controller {
	d := p.withDefaults()
	return &adaptiveState{cfg: d, cur: d.Floor}
}

// outcomeWindowSize is the number of most-recent attempt outcomes an
// outcomeWindow holds.
const outcomeWindowSize = 32

// outcomeWindow is a sliding ring over a client's last
// outcomeWindowSize attempt outcomes (true = the attempt failed),
// shared by adaptiveState (AIMD failure-rate gating) and gossipState
// (the local congestion estimate) so the two consumers cannot drift
// apart. The failure rate's denominator is the full size even while the
// ring is still filling: a client's first failure reads as 1/32, not
// 100%, so early unlucky conflicts cannot alarm a controller on their
// own. The zero value is an empty window.
type outcomeWindow struct {
	ring     [outcomeWindowSize]bool
	next     int // write cursor
	failures int // count of true entries currently in the ring
}

// observe slides one attempt outcome into the ring.
func (w *outcomeWindow) observe(failed bool) {
	if w.ring[w.next] {
		w.failures--
	}
	w.ring[w.next] = failed
	if failed {
		w.failures++
	}
	w.next = (w.next + 1) % outcomeWindowSize
}

// failureRate reports the failure fraction over the window.
func (w *outcomeWindow) failureRate() float64 {
	return float64(w.failures) / outcomeWindowSize
}

// adaptiveState is one client's AIMD controller. It reads no shared
// hint, so those hooks stay no-ops.
type adaptiveState struct {
	noHooks
	cfg AdaptivePolicy // defaults resolved
	cur time.Duration  // current backoff level

	// conflictWin is the window of the last outcomes, true for a
	// conflict-class failure. The AIMD increase gates on it, so
	// congestion-class failures (CLIENT_TIMEOUT under Config.SplitSignal)
	// do not inflate the backoff a conflict controller is supposed to
	// manage — pacing handles them instead.
	conflictWin outcomeWindow
}

// NextDelay implements controller: the current AIMD level, jittered.
func (s *adaptiveState) NextDelay(attempts int, rng *rand.Rand) (time.Duration, bool) {
	if s.cfg.MaxAttempts > 0 && attempts >= s.cfg.MaxAttempts {
		return 0, false
	}
	return jitterDelay(s.cur, s.cfg.Jitter, rng), true
}

// observeClass implements controller: every outcome slides the
// conflict window, but only a conflict-class failure at or above the
// target conflict rate runs the multiplicative increase (capped at the
// ceiling). A congestion-class failure leaves the level alone — backing
// off one client cannot drain a backlog; the pacing path handles it —
// and a commit decreases additively (floored).
func (s *adaptiveState) observeClass(class SignalClass) {
	s.conflictWin.observe(class == SignalConflict)
	switch class {
	case SignalConflict:
		if s.conflictWin.failureRate() >= aimdTarget {
			s.cur = min(time.Duration(float64(s.cur)*aimdIncrease), s.cfg.Ceiling)
		}
	case SignalNone:
		s.cur = max(s.cur-s.cfg.Decrease, s.cfg.Floor)
	}
}

// backoffLevel implements controller: the level is sampled after every
// observed outcome so reports can summarize the AIMD trajectory.
func (s *adaptiveState) backoffLevel() (time.Duration, bool) { return s.cur, true }

// jitterDelay applies a uniform ±frac factor to d using the
// simulation rng (no draw when frac is zero, so unjittered policies
// stay rng-neutral).
func jitterDelay(d time.Duration, frac float64, rng *rand.Rand) time.Duration {
	if frac <= 0 || d <= 0 {
		return d
	}
	f := 1 + frac*(2*rng.Float64()-1)
	j := time.Duration(float64(d) * f)
	if j < 0 {
		return 0
	}
	return j
}
