package fabric

import (
	"fmt"
	"math/rand"
	"time"
)

// Backpressure enables the orderer-driven congestion signal
// (Config.Backpressure): at every block cut the ordering service
// condenses its own load — the serial-server backlog and the
// arrival-vs-service pressure estimated from the ordered-transaction
// stream — into a hint in [0,1], smooths it with an EWMA of weight
// hintSmoothing, and stamps it onto the block. The hint travels to clients on the commit events
// they already listen to (and on early-abort notifications), exactly
// where a Fabric SDK would read block metadata, so no extra events and
// no extra rng draws exist anywhere on the path.
//
// Clients use the hint two ways:
//
//   - pacing: every resubmission and every new closed-loop submission
//     is delayed by hint×pacingGain (capped at maxPause) on top of
//     whatever the retry policy or think time decided — SDK-level flow
//     control driven by the shared signal instead of each client's
//     private failure history;
//   - policy input: BackpressurePolicy derives its whole backoff from
//     the hint.
//
// Nil (the default) disables the subsystem completely: the orderer
// computes nothing, hints stay zero, and runs are byte-identical to a
// build without it. Pacing requires outcome tracking (a retry policy
// or closed-loop mode), since the hint arrives on outcome events.
type Backpressure struct{}

// The backpressure constants: the EWMA weight of the newest raw
// congestion sample, the pause a fully congested orderer (hint 1)
// paces by, and the cap on one pause.
const (
	hintSmoothing = 0.5
	pacingGain    = time.Second
	maxPause      = 2 * time.Second
)

// pacePause converts a hint into the pacing delay: hint×pacingGain
// capped at maxPause. Zero hints pause nothing.
func pacePause(hint float64) time.Duration {
	if hint <= 0 {
		return 0
	}
	return min(time.Duration(hint*float64(pacingGain)), maxPause)
}

// ParseBackpressure parses the CLI syntax for the backpressure switch:
// "off" (or "") disables it and "on" enables it.
func ParseBackpressure(s string) (*Backpressure, error) {
	if on, err := parseToggled("backpressure", "", s); !on || err != nil {
		return nil, err
	}
	return &Backpressure{}, nil
}

// BackpressurePolicy is the orderer-hinted retry policy: instead of a
// private backoff schedule (ExponentialBackoff) or a private failure
// window (AdaptivePolicy), every resubmission waits a delay derived
// from the shared congestion hint the ordering service stamps onto
// commit events — Floor when the orderer is idle, sliding linearly to
// hintedCeiling at full congestion. All clients therefore back off from
// the *same* signal, the coordination the client-local controllers
// lack.
//
// The policy needs Config.Backpressure to be set; without the signal
// the hint stays zero and the policy degenerates to a constant
// Floor-level backoff.
type BackpressurePolicy struct {
	// Floor is the backoff at hint 0. 0 defaults to 50ms; negative or
	// above hintedCeiling is a validation error.
	Floor time.Duration
	// MaxAttempts caps total submissions per logical transaction,
	// first attempt included. 0 = unlimited.
	MaxAttempts int
	// Jitter is the uniform ± fraction applied to each delay.
	// 0 means no jitter.
	Jitter float64
}

// hintedCeiling is BackpressurePolicy's backoff at hint 1.
const hintedCeiling = 4 * time.Second

// withDefaults resolves the documented zero-value defaults.
func (p BackpressurePolicy) withDefaults() BackpressurePolicy {
	if p.Floor == 0 {
		p.Floor = 50 * time.Millisecond
	}
	return p
}

// Validate reports configuration errors.
func (p BackpressurePolicy) Validate() error {
	switch {
	case p.Floor < 0:
		return fmt.Errorf("fabric: backpressure policy floor must be >= 0, got %v", p.Floor)
	case p.Floor > hintedCeiling:
		return fmt.Errorf("fabric: backpressure policy floor %v above the %v ceiling", p.Floor, hintedCeiling)
	case !finiteNonNeg(p.Jitter):
		return fmt.Errorf("fabric: backpressure policy jitter must be a finite fraction >= 0, got %g", p.Jitter)
	}
	return nil
}

// Name implements RetryPolicy.
func (p BackpressurePolicy) Name() string {
	if p.MaxAttempts > 0 {
		return fmt.Sprintf("hinted(%d)", p.MaxAttempts)
	}
	return "hinted"
}

// NextDelay implements RetryPolicy on the bare config value: a
// controller that has seen no hint yet, so it backs off at the Floor
// level. Inside a Network each client consults its own
// *backpressureState.
func (p BackpressurePolicy) NextDelay(attempts int, rng *rand.Rand) (time.Duration, bool) {
	return (&backpressureState{cfg: p.withDefaults()}).NextDelay(attempts, rng)
}

// newController gives every driver its own view of the shared signal.
func (p BackpressurePolicy) newController() controller {
	return &backpressureState{cfg: p.withDefaults()}
}

// backpressureState is one client's view of the shared signal. It
// learns nothing from outcomes and has no evolving level, so those
// hooks stay no-ops.
type backpressureState struct {
	noHooks
	cfg  BackpressurePolicy // defaults resolved
	hint float64            // latest observed congestion hint
}

// NextDelay implements controller: Floor + hint×(hintedCeiling−Floor),
// jittered.
func (s *backpressureState) NextDelay(attempts int, rng *rand.Rand) (time.Duration, bool) {
	if s.cfg.MaxAttempts > 0 && attempts >= s.cfg.MaxAttempts {
		return 0, false
	}
	d := s.cfg.Floor + time.Duration(s.hint*float64(hintedCeiling-s.cfg.Floor))
	return jitterDelay(d, s.cfg.Jitter, rng), true
}

// observeHint implements controller.
func (s *backpressureState) observeHint(h float64) { s.hint = h }

// consumesHint implements controller.
func (s *backpressureState) consumesHint() bool { return true }
