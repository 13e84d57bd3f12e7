package fabric

import (
	"fmt"
	"time"

	"repro/internal/sim"
)

// Cohort drives Config.CohortSize statistically identical clients
// from one state object. Where the exact simulation allocates a
// Client — pending table, retry-policy instance, budget bucket,
// gossip window — per simulated client, a cohort allocates that state
// once and shares it across its members, keeping only one
// endorser-rotation counter per member. Memory and event-queue
// pressure therefore scale with the cohort count (clients /
// CohortSize), not the client count, which is what makes 10^6-client
// sweeps tractable.
//
// The approximations are explicit and small:
//
//   - Open loop: members share one aggregate Poisson arrival process
//     at members × the per-client rate. By superposition this is
//     exactly the sum of the members' independent Poisson processes;
//     the submitting member is drawn uniformly per arrival.
//   - Closed loop: each member keeps its own in-flight window, driven
//     through the shared machinery — the same event cadence as exact
//     clients, amortized onto one object.
//   - Stateful retry policies (AdaptivePolicy), the retry budget and
//     the gossip window are shared: the cohort reacts to its members'
//     pooled outcome stream (a mean-field approximation). The budget's
//     refill rate and burst are scaled by the member count so the
//     aggregate retry allowance matches the exact simulation.
//
// With a stateless retry policy and no budget/gossip/backpressure,
// closed-loop cohort runs are byte-identical to the exact simulation
// (locked by TestCohortEquivalence); shared-state runs track the
// exact aggregates within tolerances instead.
type Cohort struct {
	clientCore
}

// newCohort builds a cohort driving members simulated clients whose
// global indices start at firstID; index is the driver's position in
// the network's driver list.
func newCohort(nw *Network, index, firstID, members int) *Cohort {
	c := &Cohort{}
	c.init(nw, index, firstID, members, fmt.Sprintf("cohort%d", index))
	return c
}

// start schedules the cohort's arrival process. Closed loop: every
// member's in-flight window opens, in member order. Open loop: one
// aggregate Poisson process stands in for the members' independent
// arrivals (superposition), drawing the submitting member uniformly
// per arrival.
func (c *Cohort) start() {
	c.startGossip()
	if c.nw.cfg.ClosedLoop {
		c.openWindow()
		return
	}
	mean := func() time.Duration {
		rate := c.nw.cfg.RateAt(time.Duration(c.nw.eng.Now()))
		return time.Duration(float64(time.Second) * float64(c.nw.cfg.Clients) /
			(rate * float64(c.members)))
	}
	var arrive func()
	arrive = func() {
		if c.nw.eng.Now() >= sim.Time(c.nw.cfg.Duration) {
			return // send window over
		}
		member := 0
		if c.members > 1 {
			member = c.nw.eng.Rand().Intn(c.members)
		}
		c.submitJob(member)
		c.nw.eng.After(c.nw.eng.Exponential(mean()), arrive)
	}
	c.nw.eng.After(c.nw.eng.Exponential(mean()), arrive)
}
