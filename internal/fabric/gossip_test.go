package fabric

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/netem"
	"repro/internal/sim"
)

func TestGossipDefaultsAndValidation(t *testing.T) {
	g := Gossip{}.withDefaults()
	if g.Fanout != 2 || g.Period != 500*time.Millisecond {
		t.Errorf("defaults = %+v, want f2 500ms", g)
	}
	for i, bad := range []Gossip{
		{Fanout: -1},
		{Period: -time.Second},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("case %d: %+v validated", i, bad)
		}
	}
	cfg := retryConfig(1, ImmediateRetry{MaxAttempts: 3})
	cfg.Gossip = &Gossip{Fanout: -2}
	if _, err := NewNetwork(cfg); err == nil {
		t.Error("network accepted an invalid gossip config")
	}
}

func TestHintSourceValidation(t *testing.T) {
	for _, ok := range []HintSource{"", HintOrderer, HintGossip, HintBoth} {
		if err := ok.Validate(); err != nil {
			t.Errorf("%q: %v", ok, err)
		}
	}
	if err := HintSource("fleet").Validate(); err == nil {
		t.Error("unknown hint source validated")
	}
	if !HintSource("").usesOrderer() || HintSource("").usesGossip() {
		t.Error("empty source must resolve to orderer-only")
	}
	if !HintBoth.usesOrderer() || !HintBoth.usesGossip() {
		t.Error("both must use both producers")
	}
	if HintGossip.usesOrderer() || !HintGossip.usesGossip() {
		t.Error("gossip source must not use the orderer")
	}
	// gossip/both without Config.Gossip is a config error.
	cfg := retryConfig(1, ImmediateRetry{MaxAttempts: 3})
	cfg.HintSource = HintGossip
	if _, err := NewNetwork(cfg); err == nil {
		t.Error("hint source gossip accepted without Config.Gossip")
	}
}

func TestParseGossip(t *testing.T) {
	if g, err := ParseGossip(""); err != nil || g != nil {
		t.Errorf("ParseGossip(\"\") = %+v, %v", g, err)
	}
	if g, err := ParseGossip("off"); err != nil || g != nil {
		t.Errorf("ParseGossip(off) = %+v, %v", g, err)
	}
	if g, err := ParseGossip("on"); err != nil || g == nil || *g != (Gossip{}) {
		t.Errorf("ParseGossip(on) = %+v, %v", g, err)
	}
	want := Gossip{Fanout: 3, Period: 250 * time.Millisecond}
	if g, err := ParseGossip("3:250ms"); err != nil || g == nil || *g != want {
		t.Errorf("ParseGossip(3:250ms) = %+v, %v", g, err)
	}
	for _, in := range []string{"x", "3", "a:1s", "3:zz", "3:1s:zz", "-1:1s", "3:1s:0.5:9"} {
		if _, err := ParseGossip(in); err == nil {
			t.Errorf("ParseGossip(%q) accepted", in)
		}
	}
	for _, in := range []string{"2:500ms:0.5", "x"} {
		if _, err := ParseGossip(in); err == nil || !strings.Contains(err.Error(), "want off, on or fanout:period") {
			t.Errorf("ParseGossip(%q) = %v, want an error naming the grammar", in, err)
		}
	}
	if src, err := ParseHintSource(""); err != nil || src != HintOrderer {
		t.Errorf("ParseHintSource(\"\") = %q, %v", src, err)
	}
	if src, err := ParseHintSource("BOTH"); err != nil || src != HintBoth {
		t.Errorf("ParseHintSource(BOTH) = %q, %v", src, err)
	}
	if _, err := ParseHintSource("fleet"); err == nil {
		t.Error("ParseHintSource(fleet) accepted")
	}
}

func TestDecayAndMergeMath(t *testing.T) {
	if got := DecayEstimate(0.8, 0, 0.5); got != 0.8 {
		t.Errorf("zero age decayed: %g", got)
	}
	if got := DecayEstimate(0.8, time.Second, 0); got != 0.8 {
		t.Errorf("zero rate decayed: %g", got)
	}
	want := 0.8 * math.Exp(-0.5)
	if got := DecayEstimate(0.8, time.Second, 0.5); math.Abs(got-want) > 1e-12 {
		t.Errorf("decay(0.8, 1s, 0.5) = %g, want %g", got, want)
	}
	if got := DecayEstimate(1.7, 0, 0.5); got != 1 {
		t.Errorf("over-unity estimate not clamped: %g", got)
	}
	if got := DecayEstimate(math.NaN(), time.Second, 0.5); got != 0 {
		t.Errorf("NaN estimate = %g, want 0", got)
	}
	// The decay-rate contract at the edges Gossip.Validate keeps out of
	// runs: NaN and non-positive rates (-Inf included) pass the estimate
	// through, +Inf is the formula's limit and zeroes anything aged.
	for _, c := range []struct {
		rate float64
		age  time.Duration
		want float64
	}{
		{math.NaN(), time.Second, 0.8},
		{math.Inf(-1), time.Second, 0.8},
		{-2, time.Second, 0.8},
		{math.Inf(1), time.Nanosecond, 0},
		{math.Inf(1), 0, 0.8},
		{math.Inf(1), -time.Second, 0.8},
	} {
		if got := DecayEstimate(0.8, c.age, c.rate); got != c.want {
			t.Errorf("decay(0.8, %v, %g) = %g, want %g", c.age, c.rate, got, c.want)
		}
	}
	// A zero stays zero at any age and rate.
	for _, rate := range []float64{0.5, math.MaxFloat64, math.Inf(1), math.NaN()} {
		if got := DecayEstimate(0, time.Hour, rate); got != 0 {
			t.Errorf("decay(0, 1h, %g) = %g, want 0", rate, got)
		}
	}
	if got := MergeEstimates(0.3, 0.7); got != 0.7 {
		t.Errorf("merge = %g, want 0.7", got)
	}
	if got := MergeEstimates(-3, 1.5); got != 1 {
		t.Errorf("merge of out-of-range inputs = %g, want 1", got)
	}
	// A zero incoming component (anything that clamps to zero) never
	// advances a view and never changes it: empty, live, or decayed all
	// the way to zero itself.
	now := sim.Time(time.Hour)
	for _, view := range []remoteComponent{
		{},
		{value: 0.4, at: now - sim.Time(time.Second), has: true},
		{value: 5e-324, at: 0, has: true}, // worth exactly 0 by now
	} {
		for _, zero := range []float64{0, math.Copysign(0, -1), -0.3, math.NaN()} {
			got := view
			if got.merge(zero, now, now, 0.5) || got != view {
				t.Errorf("merging %g into %+v: adopted, or view changed to %+v", zero, view, got)
			}
		}
	}
}

// conflictOnly is a gossip message under the scalar classifier: every
// failure is conflict-class, so the congestion component is 0.
func conflictOnly(v float64) SplitEstimate { return SplitEstimate{Conflict: v} }

func TestGossipStateWindowAndEstimate(t *testing.T) {
	const w = outcomeWindowSize
	g := &gossipState{}
	if est, stale := g.estimate(0); est != (SplitEstimate{}) || stale != 0 {
		t.Fatalf("fresh state estimate = %+v stale=%v", est, stale)
	}
	// One failure over the 32-outcome window reads as 1/32 even while
	// filling, in its own class only.
	g.observe(SignalConflict, false)
	if est, _ := g.estimate(0); est != conflictOnly(1.0/w) {
		t.Errorf("estimate after 1 conflict failure = %+v, want {1/32 0}", est)
	}
	for i := 0; i < w; i++ {
		g.observe(SignalNone, false) // the last one evicts the failure
	}
	if est, _ := g.estimate(0); est != (SplitEstimate{}) {
		t.Errorf("estimate after window slid clean = %+v, want zero", est)
	}
	// Congestion evidence — the class itself or the latency rule on any
	// outcome — lands in the congestion window only.
	g.observe(SignalCongestion, false)
	g.observe(SignalNone, true)
	if est, _ := g.estimate(0); est != (SplitEstimate{Congestion: 2.0 / w}) {
		t.Errorf("estimate after 2 congestion observations = %+v, want {0 2/32}", est)
	}
	// A slow conflict failure counts in both.
	g.observe(SignalConflict, true)
	if est, _ := g.estimate(0); est != (SplitEstimate{Conflict: 1.0 / w, Congestion: 3.0 / w}) {
		t.Errorf("estimate after a congested conflict = %+v, want {1/32 3/32}", est)
	}
}

func TestGossipStateMergeMaxWithDecay(t *testing.T) {
	g := &gossipState{}
	now := sim.Time(10 * time.Second)
	if !g.merge(conflictOnly(0.8), now-sim.Time(time.Second), now) {
		t.Fatal("first estimate not adopted")
	}
	// Decayed one second at 0.5/s: worth 0.8·e^−0.5 ≈ 0.485 now.
	if est, stale := g.estimate(now); math.Abs(est.Conflict-0.8*math.Exp(-0.5)) > 1e-12 || stale != time.Second {
		t.Errorf("estimate = %+v stale=%v, want 0.485 / 1s", est, stale)
	}
	// A weaker incoming estimate is not adopted.
	if g.merge(conflictOnly(0.3), now, now) {
		t.Error("weaker estimate displaced a stronger one")
	}
	// A fresher estimate that beats the decayed view is adopted even
	// though its raw value is below the stored raw value.
	if !g.merge(conflictOnly(0.5), now, now) {
		t.Error("fresher stronger-now estimate rejected")
	}
	if est, stale := g.estimate(now); est != conflictOnly(0.5) || stale != 0 {
		t.Errorf("estimate after re-merge = %+v stale=%v, want {0.5 0} / 0", est, stale)
	}
	// Local beats remote once the remote has decayed below it: the
	// staleness at use is then zero (own outcomes are live).
	g.observe(SignalConflict, false) // 1/32: below any live remote view, so use a long horizon
	far := now + sim.Time(time.Minute)
	local := g.conflict.window.failureRate()
	if est, stale := g.estimate(far); stale != 0 || est != conflictOnly(local) {
		t.Errorf("after a minute of decay estimate = %+v stale=%v, want the local rate %g",
			est, stale, local)
	}
	// Zero estimates are never "adopted" into an empty view — which is
	// what keeps the congestion view empty under conflict-only messages.
	fresh := &gossipState{}
	if fresh.merge(SplitEstimate{}, now, now) {
		t.Error("zero estimate adopted into an empty view")
	}
	if g.congestion.remote.has {
		t.Error("conflict-only messages populated the congestion view")
	}
	// Components merge independently, and the reported staleness is the
	// oldest information behind a dominating component.
	old := far - sim.Time(2*time.Second)
	if !g.merge(SplitEstimate{Conflict: 0.9, Congestion: 0.6}, old, far) {
		t.Fatal("stronger two-component estimate not adopted")
	}
	if !g.merge(SplitEstimate{Conflict: 0.1, Congestion: 0.7}, far, far) {
		t.Error("congestion component did not advance on its own")
	}
	est, stale := g.estimate(far)
	if math.Abs(est.Conflict-0.9*math.Exp(-1)) > 1e-12 || est.Congestion != 0.7 || stale != 2*time.Second {
		t.Errorf("estimate = %+v stale=%v, want {0.331 0.7} / 2s", est, stale)
	}
}

// scalarGossipRef is the pre-unification scalar gossip state, kept as
// the reference TestScalarIsDegenerateSplit compares against: one
// outcome window, one remote view merged by max-with-decay, estimate =
// max(local rate, decayed remote).
type scalarGossipRef struct {
	window    outcomeWindow
	remote    float64
	remoteAt  sim.Time
	hasRemote bool
}

func (g *scalarGossipRef) estimate(now sim.Time) (float64, time.Duration) {
	local := g.window.failureRate()
	if !g.hasRemote {
		return ClampEstimate(local), 0
	}
	age := time.Duration(now - g.remoteAt)
	rem := DecayEstimate(g.remote, age, gossipDecay)
	if rem > local {
		return rem, age
	}
	return ClampEstimate(local), 0
}

func (g *scalarGossipRef) merge(value float64, sentAt, now sim.Time) bool {
	incoming := DecayEstimate(value, time.Duration(now-sentAt), gossipDecay)
	if g.hasRemote {
		cur := DecayEstimate(g.remote, time.Duration(now-g.remoteAt), gossipDecay)
		if incoming <= cur {
			return false
		}
	} else if incoming <= 0 {
		return false
	}
	g.remote = ClampEstimate(value)
	g.remoteAt = sentAt
	g.hasRemote = true
	return true
}

// TestScalarIsDegenerateSplit drives random outcome/merge/time streams
// through the unified state the way scalar mode does — every failure
// conflict-class, never the latency rule, messages carrying what
// estimate returned — and requires the congestion component to stay
// exactly 0 and everything else to match the old scalar rule float for
// float: estimate, staleness, and which merges are adopted.
func TestScalarIsDegenerateSplit(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g, ref := &gossipState{}, &scalarGossipRef{}
		// A second unified state plays the remote peer whose messages
		// arrive: its estimates are what scalar-mode gossip carries.
		peer := &gossipState{}
		now := sim.Time(0)
		for step := 0; step < 2000; step++ {
			switch rng.Intn(4) {
			case 0:
				now += sim.Time(rng.Int63n(int64(3 * time.Second)))
			case 1:
				failed := rng.Intn(3) == 0
				g.observe(scalarClass(failed), false)
				ref.window.observe(failed)
			case 2:
				peer.observe(scalarClass(rng.Intn(2) == 0), false)
			case 3:
				sentAt := now - sim.Time(rng.Int63n(int64(5*time.Second)))
				msg, _ := peer.estimate(sentAt)
				if msg.Congestion != 0 {
					t.Fatalf("seed %d step %d: scalar message carries congestion %g", seed, step, msg.Congestion)
				}
				if got, want := g.merge(msg, sentAt, now), ref.merge(msg.Max(), sentAt, now); got != want {
					t.Fatalf("seed %d step %d: merge adopted=%v, scalar rule says %v", seed, step, got, want)
				}
			}
			est, stale := g.estimate(now)
			wantVal, wantStale := ref.estimate(now)
			if est.Congestion != 0 {
				t.Fatalf("seed %d step %d: congestion component = %g, want exactly 0", seed, step, est.Congestion)
			}
			if est.Conflict != wantVal || est.Max() != wantVal || stale != wantStale {
				t.Fatalf("seed %d step %d: estimate %+v stale=%v, scalar rule gives %v stale=%v",
					seed, step, est, stale, wantVal, wantStale)
			}
		}
	}
}

// gossipConfig is a congested run using the gossiped signal: the
// undersized orderer drives failures up, clients share their windowed
// failure views, and the pacer and hinted policy act on them.
func gossipConfig(seed int64) Config {
	cfg := retryConfig(seed, ImmediateRetry{MaxAttempts: 5})
	cfg.OrdererCosts.PerTx = 25 * time.Millisecond
	cfg.Backpressure = &Backpressure{}
	cfg.Gossip = &Gossip{}
	cfg.HintSource = HintGossip
	return cfg
}

// TestGossipRunExchangesAndPaces reads the corpus's hinted-gossip
// regime.
func TestGossipRunExchangesAndPaces(t *testing.T) {
	rep := runOf(t, "hinted-gossip").rep
	if rep.GossipMessages == 0 {
		t.Fatal("no gossip messages sent")
	}
	if rep.GossipMerges == 0 {
		t.Error("no gossip estimate ever adopted")
	}
	if rep.GossipEstimate.Max <= 0 || rep.GossipEstimate.Max > 1 {
		t.Errorf("gossip estimate max = %g, want in (0,1]", rep.GossipEstimate.Max)
	}
	if rep.GossipStaleness.N == 0 || rep.GossipStaleness.Max <= 0 {
		t.Errorf("uses=%d stale-max=%v, want consultations with non-zero staleness",
			rep.GossipStaleness.N, rep.GossipStaleness.Max)
	}
	if rep.PacedSubmissions == 0 || rep.Paced.Sum == 0 {
		t.Errorf("paced=%d time-paced=%v, want gossip-driven pacing under congestion",
			rep.PacedSubmissions, rep.Paced.Sum)
	}
	// Pure gossip source: the orderer must stay fully out of the
	// signal path.
	if rep.Hint.Avg() != 0 || rep.Hint.Max != 0 || rep.Hint.Last != 0 {
		t.Errorf("orderer hints computed under HintSource=gossip: %+v", rep)
	}
}

func TestGossipFeedsHintedPolicyWithoutBackpressure(t *testing.T) {
	// BackpressurePolicy consuming the gossip estimate with no
	// Backpressure config at all: no pacer, no orderer hints — the
	// backoff alone must stretch with the shared estimate.
	cfg := retryConfig(2, BackpressurePolicy{Floor: 100 * time.Millisecond, MaxAttempts: 5})
	cfg.OrdererCosts.PerTx = 25 * time.Millisecond
	cfg.Gossip = &Gossip{}
	cfg.HintSource = HintGossip
	_, hinted := run(t, cfg)

	floorOnly := retryConfig(2, BackpressurePolicy{Floor: 100 * time.Millisecond, MaxAttempts: 5})
	floorOnly.OrdererCosts.PerTx = 25 * time.Millisecond
	_, f := run(t, floorOnly)

	if hinted.PacedSubmissions != 0 {
		t.Errorf("no pacer configured but %d submissions paced", hinted.PacedSubmissions)
	}
	if hinted.GossipMessages == 0 {
		t.Fatal("gossip never engaged")
	}
	if hinted.RetryAmplification >= f.RetryAmplification {
		t.Errorf("gossip-hinted amplification %.3f >= floor-only %.3f: the shared estimate did not slow retries",
			hinted.RetryAmplification, f.RetryAmplification)
	}
}

// TestGossipNilIsByteIdentical: with Config.Gossip nil, HintSource ""
// and an explicit "orderer" run the same run, field for field (a
// metamorphic pin), and the run leaves no gossip trace.
func TestGossipNilIsByteIdentical(t *testing.T) {
	pinned(t, "hint-source-orderer-is-the-default")
	if r := runOf(t, "hinted-orderer").rep; r.GossipMessages != 0 || r.GossipMerges != 0 ||
		r.GossipStaleness.N != 0 || r.GossipEstimate.Max != 0 || r.GossipStaleness.Max != 0 {
		t.Errorf("nil gossip left traces: %+v", r)
	}
}

// TestGossipInertWithoutTracking: a fire-and-forget open loop has no
// outcome stream, so the gossip subsystem must be fully inert — no
// rounds, no rng, an identical run (a metamorphic pin).
func TestGossipInertWithoutTracking(t *testing.T) {
	if r := pinned(t, "gossip-inert-without-tracking"); r.rep.GossipMessages != 0 {
		t.Errorf("untracked run sent %d gossip messages", r.rep.GossipMessages)
	}
}

// TestGossipRunsDeterministic: a gossip-hinted run reproduces itself,
// and another seed gives another run (the corpus's hinted-gossip
// regime, which also runs at Seed+1).
func TestGossipRunsDeterministic(t *testing.T) {
	if r := deterministic(t, "hinted-gossip"); reflect.DeepEqual(r.rep, r.reseeded) {
		t.Error("different seeds produced identical gossip runs")
	}
}

// TestGossipBothSourceCombinesSignals reads the corpus's hinted-both
// regime.
func TestGossipBothSourceCombinesSignals(t *testing.T) {
	rep := runOf(t, "hinted-both").rep
	// Both producers must be live: the orderer samples hints at cuts
	// and the clients sample gossip estimates at rounds.
	if rep.Hint.Max <= 0 {
		t.Error("both-source run computed no orderer hints")
	}
	if rep.GossipEstimate.Max <= 0 {
		t.Error("both-source run sampled no gossip estimates")
	}
	if rep.GossipEstimate.Max > 1 || rep.Hint.Max > 1 {
		t.Errorf("hint out of range: orderer %g gossip %g",
			rep.Hint.Max, rep.GossipEstimate.Max)
	}
}

// gossipMesh builds an idle network of n gossiping drivers (nothing
// started, so the only events are the ones the caller's rounds send) and
// returns a step that runs one driver's round and delivers its messages.
func gossipMesh(tb testing.TB, n, fanout int) (nw *Network, round func(i int)) {
	tb.Helper()
	cfg := retryConfig(1, ImmediateRetry{MaxAttempts: 3})
	cfg.Clients = n
	cfg.Gossip = &Gossip{Fanout: fanout}
	nw, err := NewNetwork(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	for _, d := range nw.drivers[:n/2] {
		d.gossip.observe(SignalConflict, false) // half the mesh has something to spread
	}
	return nw, func(i int) {
		nw.drivers[i%n].gossipRound()
		nw.eng.RunUntil(nw.eng.Now() + sim.Time(time.Second))
	}
}

// TestGossipRoundAllocsIndependentOfMesh holds a steady-state round to
// no allocation at any mesh size: its messages come off the network's
// free list, and nothing grows with the driver count (the permutation
// slice did: 8 bytes per driver per round).
func TestGossipRoundAllocsIndependentOfMesh(t *testing.T) {
	allocs := func(n int) float64 {
		nw, round := gossipMesh(t, n, 3)
		i := 0
		got := testing.AllocsPerRun(200, func() { round(i); i++ })
		if rep := nw.col.Report(); rep.GossipMessages != 3*201 || rep.GossipMerges == 0 {
			t.Fatalf("%d drivers: %d messages, %d merges — rounds did not run", n, rep.GossipMessages, rep.GossipMerges)
		}
		return got
	}
	small, large := allocs(50), allocs(400)
	if small != 0 || large != 0 {
		t.Errorf("a fanout-3 round allocates %v times on 50 drivers and %v on 400, want 0", small, large)
	}
}

// TestGossipMessagesInFlightKeepTheirPayload holds recycled gossip
// messages to their own payload while many are in flight: every link
// between two drivers carries 2 s of injected delay and a round goes out
// every 10 ms, so about 200 rounds (25 per sender) are on the wire at
// once and every message is reused many times. Views are emptied before
// each delivery step, so each delivered message is adopted; each
// adoption must carry the (estimate, sentAt) its own round sent to that
// receiver, and every message must be adopted exactly once. Then a
// control-plane run with half its drivers partitioned away twice (the
// messages dropped across the cut are never recycled) must report the
// same when repeated.
func TestGossipMessagesInFlightKeepTheirPayload(t *testing.T) {
	t.Run("in-flight", func(t *testing.T) {
		const n, fanout, rounds, drain = 8, 3, 400, 210 // drain: 2.1 s of steps
		const spacing = 10 * time.Millisecond
		nw, _ := gossipMesh(t, n, fanout)
		for _, d := range nw.drivers {
			nw.net.Inject(d.name, netem.Link{Base: time.Second})
			d.gossip.observe(SignalConflict, true) // something to send from the first round on
		}
		type key struct {
			to int
			at sim.Time
		}
		want := map[key]SplitEstimate{}
		adopted, peak := 0, 0
		for r := 0; r < rounds+drain; r++ {
			for _, d := range nw.drivers {
				d.gossip.conflict.remote, d.gossip.congestion.remote = remoteComponent{}, remoteComponent{}
			}
			nw.eng.RunUntil(sim.Time(r) * sim.Time(spacing))
			for _, d := range nw.drivers {
				cf, cg := d.gossip.conflict.remote, d.gossip.congestion.remote
				if !cf.has && !cg.has {
					continue
				}
				var got SplitEstimate
				at := cf.at
				if cf.has {
					got.Conflict = cf.value
				}
				if cg.has {
					got.Congestion = cg.value
					if cf.has && cg.at != at {
						t.Fatalf("driver %d adopted components sent at %v and %v in one step", d.index, at, cg.at)
					}
					at = cg.at
				}
				k := key{d.index, at}
				if w, ok := want[k]; !ok || got != w {
					t.Fatalf("driver %d adopted %+v sent at %v, its round sent it %+v (sent: %v)", d.index, got, at, w, ok)
				}
				delete(want, k)
				adopted++
			}
			if r >= rounds {
				continue
			}
			s := nw.drivers[r%n]
			s.gossip.observe(SignalClass(r%3), r%5 == 0) // a new payload per round
			now := nw.eng.Now()
			est, _ := s.gossip.estimate(now)
			if est == (SplitEstimate{}) {
				t.Fatalf("driver %d has nothing to send at %v", s.index, now)
			}
			s.gossipRound()
			for _, p := range nw.gossipPicks {
				if p >= s.index {
					p++
				}
				want[key{p, now}] = est
			}
			peak = max(peak, len(want))
		}
		if adopted != rounds*fanout || len(want) > 0 {
			t.Errorf("%d adoptions and %d messages never adopted, want one adoption per message: %d",
				adopted, len(want), rounds*fanout)
		}
		// Every message made is back on the free list: as many as were
		// ever in flight at once, far fewer than were sent.
		if made := len(nw.gossipFree); peak < 10*n*fanout || made != peak {
			t.Errorf("%d messages in flight at most and %d made for %d sent: rounds did not overlap or messages were not reused",
				peak, made, rounds*fanout)
		}
	})
	t.Run("partition", func(t *testing.T) {
		report := func() (string, int) {
			cfg := controlPlaneConfig(34)
			cfg.Duration = 10 * time.Second
			cfg.Faults = &Faults{EndorseTimeout: time.Second, SubmitTimeout: time.Second}
			nw, err := NewNetwork(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var island []string
			for _, d := range nw.drivers[:len(nw.drivers)/2] {
				island = append(island, d.name)
			}
			for _, at := range []time.Duration{2 * time.Second, 6 * time.Second} {
				nw.eng.At(sim.Time(at), func() { nw.net.Partition(island) })
				nw.eng.At(sim.Time(at+2*time.Second), nw.net.Heal)
			}
			rep := nw.Run()
			if rep.GossipMerges == 0 {
				t.Fatal("no gossip message was merged")
			}
			return fmt.Sprintf("%s %+v", fingerprint(nw, rep), rep), nw.net.Drops()
		}
		a, drops := report()
		b, _ := report()
		if drops == 0 {
			t.Fatal("the partitions dropped nothing")
		}
		if a != b {
			t.Errorf("same seed diverged with gossip dropped:\n a: %s\n b: %s", a, b)
		}
	})
}

// BenchmarkGossipRound is one fanout-3 round on a 200-driver mesh, sent
// and delivered: the per-round host cost the repository benchmark has no
// metric for.
func BenchmarkGossipRound(b *testing.B) {
	_, round := gossipMesh(b, 200, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round(i)
	}
}

// FuzzGossipMerge drives the merge/decay algebra with adversarial
// estimates, ages and decay rates: whatever the inputs, a merged
// estimate stays in [0,1], the max-merge is monotone (never below
// either clamped input), decay never increases an estimate and is
// monotone in age, and a gossipState fed the same sequence keeps its
// own view in range at the fixed gossipDecay. The same laws are checked
// on the state's per-class views, with the inputs crossed so the
// conflict and congestion components exercise different values: each
// component follows the scalar algebra on its own inputs and never sees
// the other's.
func FuzzGossipMerge(f *testing.F) {
	f.Add(0.5, 0.25, int64(time.Second), 0.5)
	f.Add(0.0, 1.0, int64(0), 0.0)
	f.Add(1.5, -0.5, int64(-time.Second), 2.0)
	f.Add(0.9, 0.9, int64(time.Hour), math.MaxFloat64)
	f.Add(math.Inf(1), math.NaN(), int64(time.Millisecond), math.NaN())
	f.Add(5e-324, 44.0, int64(math.MaxInt64-36), 40.000000002) // age+1s wraps
	f.Fuzz(func(t *testing.T, a, b float64, ageNs int64, decay float64) {
		age := time.Duration(ageNs)

		merged := MergeEstimates(a, b)
		if merged < 0 || merged > 1 || math.IsNaN(merged) {
			t.Fatalf("merge(%g,%g) = %g out of [0,1]", a, b, merged)
		}
		if merged < ClampEstimate(a) || merged < ClampEstimate(b) {
			t.Fatalf("merge(%g,%g) = %g below an input", a, b, merged)
		}

		d := DecayEstimate(merged, age, decay)
		if d < 0 || d > 1 || math.IsNaN(d) {
			t.Fatalf("decay(%g,%v,%g) = %g out of [0,1]", merged, age, decay, d)
		}
		if d > merged {
			t.Fatalf("decay(%g,%v,%g) = %g grew the estimate", merged, age, decay, d)
		}
		if age >= 0 && age <= math.MaxInt64-time.Second { // age+1s must not wrap
			if older := DecayEstimate(merged, age+time.Second, decay); older > d+1e-15 {
				t.Fatalf("decay not monotone in age: %g at %v vs %g at %v",
					d, age, older, age+time.Second)
			}
		}

		// Collapsing a two-component estimate is the scalar merge of its
		// components.
		sa := SplitEstimate{Conflict: a, Congestion: b}
		sb := SplitEstimate{Conflict: b, Congestion: a}
		if mx := sa.Max(); mx != merged {
			t.Fatalf("SplitEstimate.Max() = %g, scalar merge = %g", mx, merged)
		}

		decayCfg := decay
		if decayCfg < 0 || math.IsNaN(decayCfg) || math.IsInf(decayCfg, 0) {
			decayCfg = gossipDecay // runs decay at a finite positive rate; clamp for the harness
		}
		now := sim.Time(2 * time.Hour)
		sent := now - sim.Time(age)
		if sent > now {
			sent = now
		}

		// An adopted remote component is worth exactly the scalar decay
		// of its clamped value, and never more than that value.
		var rc remoteComponent
		if rc.merge(merged, sent, now, decayCfg) {
			val, rage := rc.decayed(now, decayCfg)
			if want := DecayEstimate(merged, time.Duration(now-sent), decayCfg); val != want || rage != time.Duration(now-sent) {
				t.Fatalf("adopted component worth %g age %v, scalar decay gives %g age %v",
					val, rage, want, time.Duration(now-sent))
			}
			if val > merged {
				t.Fatalf("adopted component %g grew past its value %g", val, merged)
			}
		}

		// A zero component never advances a view and never changes it,
		// whatever the view holds.
		for _, zero := range []float64{0, -merged} {
			if before := rc; rc.merge(zero, now, now, decayCfg) || rc != before {
				t.Fatalf("zero component %g adopted into %+v (now %+v)", zero, before, rc)
			}
		}

		// A state fed the same raw inputs as one-class (scalar-mode)
		// messages must keep its view in range and its congestion
		// component at exactly zero.
		g := &gossipState{}
		g.merge(conflictOnly(a), sent, now)
		g.merge(conflictOnly(b), now, now)
		g.observe(SignalConflict, false)
		est, stale := g.estimate(now)
		if est.Conflict < 0 || est.Conflict > 1 || math.IsNaN(est.Conflict) || stale < 0 {
			t.Fatalf("state estimate = %+v stale=%v out of range", est, stale)
		}
		if est.Congestion != 0 {
			t.Fatalf("one-class inputs produced congestion %g", est.Congestion)
		}

		// And a state fed the crossed two-component sequence keeps both
		// components in range, each equal to what a state fed only that
		// component's inputs computes.
		gs := &gossipState{}
		gs.merge(sa, sent, now)
		gs.merge(sb, now, now)
		gs.observe(SignalConflict, true)
		se, stale := gs.estimate(now)
		if se.Conflict < 0 || se.Conflict > 1 || math.IsNaN(se.Conflict) ||
			se.Congestion < 0 || se.Congestion > 1 || math.IsNaN(se.Congestion) || stale < 0 {
			t.Fatalf("split state estimate %+v stale=%v out of range", se, stale)
		}
		if se.Conflict != est.Conflict {
			t.Fatalf("conflict component %g depends on the congestion inputs (alone: %g)", se.Conflict, est.Conflict)
		}
		gc := &gossipState{}
		gc.merge(SplitEstimate{Congestion: b}, sent, now)
		gc.merge(SplitEstimate{Congestion: a}, now, now)
		gc.observe(SignalNone, true)
		if alone, _ := gc.estimate(now); se.Congestion != alone.Congestion || alone.Conflict != 0 {
			t.Fatalf("congestion component %g depends on the conflict inputs (alone: %+v)", se.Congestion, alone)
		}
	})
}
