package fabric

import (
	"math/rand"
	"testing"
	"time"
)

// newState builds a per-client controller from a config.
func newState(t *testing.T, p AdaptivePolicy) *adaptiveState {
	t.Helper()
	s, ok := newController(p).(*adaptiveState)
	if !ok {
		t.Fatal("newController did not return an adaptiveState")
	}
	return s
}

// scalarClass is the scalar-mode classifier (ClientDriver.classify
// without Config.SplitSignal): every failure is conflict-class.
func scalarClass(failed bool) SignalClass {
	if failed {
		return SignalConflict
	}
	return SignalNone
}

func TestAdaptiveGrowsUnderFailures(t *testing.T) {
	p := AdaptivePolicy{
		Floor: 100 * time.Millisecond, Ceiling: 2 * time.Second, Decrease: 10 * time.Millisecond,
	}
	s := newState(t, p)
	if got := s.cur; got != p.Floor {
		t.Fatalf("initial backoff %v, want floor %v", got, p.Floor)
	}
	// Sustained failures: the first three stay under the 10% target of
	// the 32-outcome window, then multiplicative growth 100ms -> 200 ->
	// 400 -> 800 -> 1600 -> capped at the 2s ceiling.
	want := []time.Duration{
		100 * time.Millisecond, 100 * time.Millisecond, 100 * time.Millisecond,
		200 * time.Millisecond, 400 * time.Millisecond, 800 * time.Millisecond,
		1600 * time.Millisecond, 2 * time.Second, 2 * time.Second,
	}
	for i, w := range want {
		s.observeClass(scalarClass(true))
		if got := s.cur; got != w {
			t.Errorf("after %d failures: backoff %v, want %v", i+1, got, w)
		}
	}
	if got, want := s.conflictWin.failureRate(), 9.0/outcomeWindowSize; got != want {
		t.Errorf("failure rate %g after 9 failures, want %g", got, want)
	}
}

func TestAdaptiveWarmupFailureNotOverweighted(t *testing.T) {
	// A fresh client's very first failure is 1/32, not 100%: with
	// the default 10% target and a window of 32, a couple of isolated
	// early conflicts must not trigger the multiplicative increase.
	s := newState(t, AdaptivePolicy{Floor: 100 * time.Millisecond})
	s.observeClass(scalarClass(true))
	if got := s.conflictWin.failureRate(); got != 1.0/32 {
		t.Errorf("first-failure rate %g, want 1/32", got)
	}
	if got := s.cur; got != 100*time.Millisecond {
		t.Errorf("backoff %v grew on the warm-up failure, want floor", got)
	}
}

func TestAdaptiveShrinksToFloorOnCommits(t *testing.T) {
	p := AdaptivePolicy{
		Floor: 50 * time.Millisecond, Ceiling: time.Second, Decrease: 100 * time.Millisecond,
	}
	s := newState(t, p)
	for i := 0; i < 8; i++ {
		s.observeClass(scalarClass(true))
	}
	if got := s.cur; got != time.Second {
		t.Fatalf("backoff %v after failure burst, want ceiling 1s", got)
	}
	// All-commits: additive decrease walks it back down and clamps at
	// the floor (1s / 100ms steps = 10 commits; give it 12).
	for i := 0; i < 12; i++ {
		s.observeClass(scalarClass(false))
	}
	if got := s.cur; got != p.Floor {
		t.Errorf("backoff %v after commit streak, want floor %v", got, p.Floor)
	}
}

func TestAdaptiveTargetGatesIsolatedFailures(t *testing.T) {
	// Against the 10% target, three failures in a healthy 32-outcome
	// window must not grow the backoff; the fourth reaches the target.
	p := AdaptivePolicy{Floor: 100 * time.Millisecond, Ceiling: time.Second, Decrease: 10 * time.Millisecond}
	s := newState(t, p)
	for i := 0; i < 9; i++ {
		s.observeClass(scalarClass(false))
	}
	for i := 0; i < 3; i++ {
		s.observeClass(scalarClass(true)) // at most 3/32 failures, below 10%
	}
	if got := s.cur; got != p.Floor {
		t.Errorf("backoff %v grew on sub-target failures, want floor %v", got, p.Floor)
	}
	s.observeClass(scalarClass(true)) // 4/32 = 12.5%
	if got := s.cur; got != 2*p.Floor {
		t.Errorf("backoff %v at the target rate, want %v", got, 2*p.Floor)
	}
}

func TestAdaptiveWindowSlides(t *testing.T) {
	s := newState(t, AdaptivePolicy{})
	for i := 0; i < outcomeWindowSize; i++ {
		s.observeClass(scalarClass(true))
	}
	if got := s.conflictWin.failureRate(); got != 1 {
		t.Fatalf("rate %g, want 1", got)
	}
	// Each commit pushes one failure out; a full window of them clears it.
	s.observeClass(scalarClass(false))
	if got, want := s.conflictWin.failureRate(), float64(outcomeWindowSize-1)/outcomeWindowSize; got != want {
		t.Fatalf("rate %g after one commit, want %g", got, want)
	}
	for i := 1; i < outcomeWindowSize; i++ {
		s.observeClass(scalarClass(false))
	}
	if got := s.conflictWin.failureRate(); got != 0 {
		t.Errorf("rate %g after window slid past the failures, want 0", got)
	}
}

func TestAdaptiveNextDelayRespectsCapAndJitter(t *testing.T) {
	s := newState(t, AdaptivePolicy{MaxAttempts: 3, Jitter: 0.5})
	rng := rand.New(rand.NewSource(1))
	if _, ok := s.NextDelay(2, rng); !ok {
		t.Error("retry refused below MaxAttempts")
	}
	if _, ok := s.NextDelay(3, rng); ok {
		t.Error("retry allowed at MaxAttempts")
	}
	// Jitter draws from the rng deterministically.
	a, _ := newState(t, AdaptivePolicy{Jitter: 0.5}).NextDelay(1, rand.New(rand.NewSource(7)))
	b, _ := newState(t, AdaptivePolicy{Jitter: 0.5}).NextDelay(1, rand.New(rand.NewSource(7)))
	if a != b {
		t.Errorf("identical rng seeds gave %v and %v", a, b)
	}
}

func TestAdaptivePolicyValidation(t *testing.T) {
	bad := []AdaptivePolicy{
		{Floor: -1},
		{Ceiling: -1},
		{Floor: 2 * time.Second, Ceiling: time.Second},
		{Floor: 10 * time.Second}, // above the defaulted 8s ceiling
		{Decrease: -time.Millisecond},
		{Jitter: -0.1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: %+v validated", i, p)
		}
	}
	if err := (AdaptivePolicy{}).Validate(); err != nil {
		t.Errorf("zero value (all defaults) rejected: %v", err)
	}
	cfg := retryConfig(1, AdaptivePolicy{Floor: -time.Second})
	if _, err := NewNetwork(cfg); err == nil {
		t.Error("network accepted an invalid adaptive policy")
	}
}

func TestAdaptiveRunProducesTrajectory(t *testing.T) {
	cfg := retryConfig(5, AdaptivePolicy{
		Floor: 50 * time.Millisecond, Ceiling: 2 * time.Second,
		MaxAttempts: 5, Jitter: 0.2,
	})
	_, rep := run(t, cfg)
	if rep.Jobs == 0 {
		t.Fatal("no jobs tracked")
	}
	if rep.Backoff.Max == 0 {
		t.Fatal("no backoff trajectory recorded")
	}
	// EHR contention must push the controller above its floor.
	if rep.Backoff.Max <= 50*time.Millisecond {
		t.Errorf("max backoff %v never left the floor", rep.Backoff.Max)
	}
	if rep.Backoff.Avg() > rep.Backoff.Max {
		t.Errorf("avg %v > max %v", rep.Backoff.Avg(), rep.Backoff.Max)
	}
	if rep.Backoff.Last > rep.Backoff.Max {
		t.Errorf("final %v > max %v", rep.Backoff.Last, rep.Backoff.Max)
	}
}

// TestAdaptiveRunsDeterministic: per-client AIMD state draws only from
// the seeded rng (the corpus's adaptive regime).
func TestAdaptiveRunsDeterministic(t *testing.T) { deterministic(t, "adaptive") }

// TestAdaptiveReadsNoHint pins that the AIMD controller is client-local:
// with gossip on and no pacer, nothing consults the gossip estimate on
// its behalf, so the run records no staleness sample.
func TestAdaptiveReadsNoHint(t *testing.T) {
	cfg := retryConfig(13, AdaptivePolicy{MaxAttempts: 5})
	cfg.Gossip = &Gossip{}
	cfg.HintSource = HintGossip
	_, rep := run(t, cfg)
	if rep.GossipMessages == 0 || rep.GossipStaleness.N != 0 {
		t.Errorf("msgs=%d uses=%d, want gossip running and never consulted", rep.GossipMessages, rep.GossipStaleness.N)
	}
	if rep.Backoff.Max == 0 {
		t.Error("adaptive run recorded no trajectory")
	}
}

func TestGiveUpAfterPreservesAdaptation(t *testing.T) {
	// Wrapping the adaptive policy must not strip its per-client AIMD
	// state: the wrapper clones the inner controller per client and
	// the trajectory still reaches the report.
	wrapped := GiveUpAfter(AdaptivePolicy{
		Floor: 50 * time.Millisecond, Ceiling: 2 * time.Second, Jitter: 0.2,
	}, 5)
	a, b := newController(wrapped), newController(wrapped)
	if a.(cappedController).controller == b.(cappedController).controller {
		t.Error("newController returned a shared instance")
	}
	a.observeClass(SignalNone)
	if _, ok := a.backoffLevel(); !ok {
		t.Error("GiveUpAfter(AdaptivePolicy) lost the inner controller's hooks")
	}
	rng := rand.New(rand.NewSource(1))
	if _, ok := a.NextDelay(5, rng); ok {
		t.Error("wrapper no longer truncates at 5 attempts")
	}
	_, rep := run(t, retryConfig(12, wrapped))
	if rep.Backoff.Max == 0 {
		t.Error("wrapped adaptive policy recorded no trajectory")
	}
	if rep.Backoff.Max <= 50*time.Millisecond {
		t.Errorf("max backoff %v never left the floor: adaptation lost behind the wrapper",
			rep.Backoff.Max)
	}
}

func TestGiveUpAfterForwardsValidation(t *testing.T) {
	cfg := retryConfig(1, GiveUpAfter(AdaptivePolicy{Floor: -time.Second}, 3))
	if _, err := NewNetwork(cfg); err == nil {
		t.Error("invalid adaptive policy accepted behind GiveUpAfter")
	}
}

// TestStaticPoliciesHaveNoTrajectory reads the corpus's immediate
// regime.
func TestStaticPoliciesHaveNoTrajectory(t *testing.T) {
	rep := runOf(t, "immediate").rep
	if rep.Backoff.Max != 0 || rep.Backoff.Avg() != 0 {
		t.Errorf("static policy produced a trajectory: avg=%v max=%v",
			rep.Backoff.Avg(), rep.Backoff.Max)
	}
}
