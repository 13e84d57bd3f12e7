package fabric

import (
	"fmt"
	"math"
	"time"

	"repro/internal/sim"
)

// Gossip enables the client-to-client congestion signal
// (Config.Gossip): instead of the ordering service condensing its own
// load into a hint (Config.Backpressure), every client distils its
// *own* outcome stream into a local congestion estimate — the failure
// fraction over a sliding window of its last outcomeWindowSize attempt
// outcomes, the same window machinery AdaptivePolicy uses — and
// periodically exchanges that estimate with Fanout sampled peers over
// the network model, like an SDK-side gossip mesh. Estimates merge by
// max-with-decay: a receiver adopts an incoming estimate when its
// age-decayed value exceeds the receiver's current remote view, and
// every adopted estimate fades exponentially (e·exp(−gossipDecay·age))
// so stale panic cannot pin the fleet at a ceiling forever.
//
// The merged estimate feeds the exact hint path the orderer-driven
// signal uses — pacing (Config.Backpressure supplies the pacer) and
// BackpressurePolicy's Floor→ceiling slide — so Config.HintSource can
// swap the producer (orderer | gossip | both) without touching any
// consumer. That isolates the ROADMAP's question: does the
// coordination win come from the signal's *source* (the orderer's
// global view) or merely its *sharing* (any common signal)?
//
// Nil (the default) disables the subsystem completely: no gossip
// rounds are scheduled, no rng is drawn, and runs are byte-identical
// to a build without it. Gossip requires outcome tracking (a retry
// policy or closed-loop mode) — without outcomes there is nothing to
// estimate — and is silently inert on fire-and-forget runs, exactly
// like backpressure pacing.
type Gossip struct {
	// Fanout is how many distinct peer clients each client samples per
	// gossip round. 0 defaults to 2; negative is a validation error.
	// A fanout at or above the client count sends to every peer.
	Fanout int
	// Period is the virtual time between one client's gossip rounds.
	// 0 defaults to 500ms; negative is a validation error.
	Period time.Duration
}

// gossipDecay is the per-second exponential decay rate applied to a
// remote estimate's age: value(t) = e·exp(−gossipDecay·age), a
// half-life of about 1.4 s.
const gossipDecay = 0.5

// withDefaults resolves the documented zero-value defaults.
func (g Gossip) withDefaults() Gossip {
	if g.Fanout == 0 {
		g.Fanout = 2
	}
	if g.Period == 0 {
		g.Period = 500 * time.Millisecond
	}
	return g
}

// Validate reports configuration errors.
func (g Gossip) Validate() error {
	switch {
	case g.Fanout < 0:
		return fmt.Errorf("fabric: gossip fanout must be >= 0, got %d", g.Fanout)
	case g.Period < 0:
		return fmt.Errorf("fabric: gossip period must be >= 0, got %v", g.Period)
	}
	return nil
}

// HintSource selects which producer feeds the congestion hint that
// clients pace by and that BackpressurePolicy reads.
type HintSource string

const (
	// HintOrderer is the PR-4 behaviour and the default (the empty
	// string resolves here): the ordering service's smoothed hint,
	// delivered on commit events. Requires Config.Backpressure for a
	// non-zero signal.
	HintOrderer HintSource = "orderer"
	// HintGossip uses the client-to-client gossip estimate only: the
	// orderer computes no hints at all, so any coordination effect
	// comes purely from clients sharing their own failure views.
	// Requires Config.Gossip.
	HintGossip HintSource = "gossip"
	// HintBoth max-combines the two signals: a client backs off from
	// whichever of the orderer's view and the gossiped fleet view is
	// currently more alarmed.
	HintBoth HintSource = "both"
)

// Validate reports unknown hint sources.
func (s HintSource) Validate() error {
	switch s {
	case "", HintOrderer, HintGossip, HintBoth:
		return nil
	}
	return fmt.Errorf("fabric: hint source %q: want orderer, gossip or both", string(s))
}

// ClampEstimate bounds a congestion estimate to [0,1]; NaN maps to 0
// (no evidence of congestion).
func ClampEstimate(e float64) float64 {
	switch {
	case math.IsNaN(e), e < 0:
		return 0
	case e > 1:
		return 1
	}
	return e
}

// DecayEstimate ages a congestion estimate by age at the given
// per-second decay rate: ClampEstimate(e)·exp(−decay·age). A
// non-positive age and a non-positive or NaN rate (−Inf included) leave
// the clamped estimate unchanged; a +Inf rate is the formula's limit
// and takes any aged estimate to 0 (runs use gossipDecay). A zero
// stays zero at any age and rate and skips the exponential. The result
// is always in [0,1] and never exceeds the undecayed value.
func DecayEstimate(e float64, age time.Duration, decayPerSec float64) float64 {
	e = ClampEstimate(e)
	if e == 0 || age <= 0 || decayPerSec <= 0 || math.IsNaN(decayPerSec) {
		return e
	}
	return ClampEstimate(e * math.Exp(-decayPerSec*age.Seconds()))
}

// MergeEstimates is the gossip merge operator: the maximum of the two
// clamped estimates, so a merged view is never less alarmed than
// either input.
func MergeEstimates(a, b float64) float64 {
	return max(ClampEstimate(a), ClampEstimate(b))
}

// gossipState is one client's view of the gossiped signal: per signal
// class, the sliding outcome window behind its local estimate plus the
// most alarmed remote estimate it has adopted (timestamped so it
// decays). The classes never mix — a peer's conflict storm can raise
// only the conflict view, its backlog alarm only the congestion view.
//
// The state has no notion of scalar vs split mode: which class an
// outcome lands in is the caller's classifier (ClientDriver.classify).
// Under the scalar classifier every failure is conflict-class, so the
// congestion window stays all-false, the congestion remote view is never
// adopted (merge refuses a zero into an empty view), and the estimate is
// {rate, 0} — the one-number signal of PR 5.
type gossipState struct {
	conflict, congestion signalView
}

// signalView is one signal class's half of a gossipState.
type signalView struct {
	// window holds the last outcomeWindowSize outcomes of this class —
	// the same outcomeWindow ring adaptiveState uses.
	window outcomeWindow
	remote remoteComponent
}

// estimate returns the class's current estimate at now — the max of
// the live local window rate and the age-decayed remote view — with the
// age of the information that produced it (zero when the local window
// dominates: a client's own outcomes are fresh by construction).
func (v *signalView) estimate(now sim.Time) (val float64, staleness time.Duration) {
	val = ClampEstimate(v.window.failureRate())
	if rem, age := v.remote.decayed(now, gossipDecay); rem > val {
		return rem, age
	}
	return val, 0
}

// observe slides one classified attempt outcome into the per-class
// windows. congested marks latency-based congestion evidence — the
// attempt resolved only after the split signal's latency threshold,
// whatever its validation code — so a jammed orderer raises the
// congestion estimate even while commits (slowly) succeed and no
// deadline ever expires.
func (g *gossipState) observe(class SignalClass, congested bool) {
	g.conflict.window.observe(class == SignalConflict)
	g.congestion.window.observe(class == SignalCongestion || congested)
}

// estimate returns the client's current estimate at now, one component
// per class, together with the age of the oldest remote information
// that produced a dominating component (zero when the local windows
// dominate both).
func (g *gossipState) estimate(now sim.Time) (est SplitEstimate, staleness time.Duration) {
	est.Conflict, staleness = g.conflict.estimate(now)
	var age time.Duration
	est.Congestion, age = g.congestion.estimate(now)
	return est, max(staleness, age)
}

// merge folds one received estimate (worth e at the sender's sentAt)
// into the view, component by component. Reports whether either
// component advanced.
func (g *gossipState) merge(e SplitEstimate, sentAt, now sim.Time) bool {
	cflt := g.conflict.remote.merge(e.Conflict, sentAt, now, gossipDecay)
	cngst := g.congestion.remote.merge(e.Congestion, sentAt, now, gossipDecay)
	return cflt || cngst
}

// remoteComponent is one adopted remote component of the estimate: its
// value as of the sender's send time, so it decays from there. has
// distinguishes "no estimate yet" from zero.
type remoteComponent struct {
	value float64
	at    sim.Time
	has   bool
}

// decayed returns the component's current value at now and the age of
// the information behind it (zero when nothing was ever adopted).
func (r *remoteComponent) decayed(now sim.Time, decayPerSec float64) (float64, time.Duration) {
	if !r.has {
		return 0, 0
	}
	age := time.Duration(now - r.at)
	return DecayEstimate(r.value, age, decayPerSec), age
}

// merge folds one received component value (worth value at sentAt)
// into the view by max-with-decay: adopted iff its decayed value beats
// the current decayed view — so stale panic cannot displace a fresher,
// currently stronger alarm — and a zero is never adopted, into an empty
// view or any other: it decays to zero and no view is worth less, so it
// is refused before the current view is computed (under the scalar
// classifier that is every message's congestion component).
func (r *remoteComponent) merge(value float64, sentAt, now sim.Time, decayPerSec float64) bool {
	value = ClampEstimate(value)
	if value == 0 {
		return false
	}
	incoming := DecayEstimate(value, time.Duration(now-sentAt), decayPerSec)
	if cur, _ := r.decayed(now, decayPerSec); incoming <= cur {
		return false // an empty view is worth 0
	}
	r.value = value
	r.at = sentAt
	r.has = true
	return true
}
