package fabric

import (
	"testing"
	"time"

	"repro/internal/sim"
)

func TestBackpressurePause(t *testing.T) {
	if got := pacePause(0); got != 0 {
		t.Errorf("pause(0) = %v", got)
	}
	if got := pacePause(0.5); got != 500*time.Millisecond {
		t.Errorf("pause(0.5) = %v, want 500ms", got)
	}
	if got := pacePause(1); got != time.Second {
		t.Errorf("pause(1) = %v, want 1s", got)
	}
	if got := pacePause(3); got != 2*time.Second {
		t.Errorf("pause(3) = %v, want the 2s cap", got)
	}
}

func TestUpdateHintBacklogAndSmoothing(t *testing.T) {
	nw := harness(t)
	nw.ctl.Backpressure = &Backpressure{}
	os := nw.orderers[0]
	// A backlog far past the block timeout saturates the raw sample at
	// 1; the EWMA walks the smoothed hint toward it in halves.
	os.occupy(10 * nw.cfg.BlockTimeout)
	os.updateHint()
	if got := os.CongestionHint(); got != 0.5 {
		t.Fatalf("hint after one saturated sample = %g, want 0.5", got)
	}
	os.updateHint()
	if got := os.CongestionHint(); got != 0.75 {
		t.Fatalf("hint after two saturated samples = %g, want 0.75", got)
	}
	// An idle orderer decays the hint instead of resetting it.
	os.busyUntil = 0
	nw.eng.RunUntil(sim.Time(time.Second))
	os.updateHint()
	if got := os.CongestionHint(); got != 0.375 {
		t.Fatalf("hint after an idle sample = %g, want 0.375", got)
	}
}

func TestServiceRateEstimate(t *testing.T) {
	nw := harness(t)
	svc := nw.orderers[0].serviceRate()
	if svc <= 0 {
		t.Fatalf("service rate = %g, want > 0", svc)
	}
	// Larger blocks amortize the fixed per-block cost: the estimated
	// service rate must not shrink when the block size grows.
	nw.cfg.BlockSize = 1
	if small := nw.orderers[0].serviceRate(); small >= svc {
		t.Errorf("service rate at block 1 (%g) >= at block 100 (%g)", small, svc)
	}
}

func TestBackpressurePolicyDelayScalesWithHint(t *testing.T) {
	p := BackpressurePolicy{Floor: 2 * time.Second}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	s := newController(p).(*backpressureState)
	rng := sim.NewEngine(1).Rand()
	if d, ok := s.NextDelay(1, rng); !ok || d != 2*time.Second {
		t.Errorf("delay at hint 0 = %v ok=%v, want the 2s floor", d, ok)
	}
	s.observeHint(0.5)
	if d, _ := s.NextDelay(1, rng); d != 3*time.Second {
		t.Errorf("delay at hint 0.5 = %v, want the 3s midpoint", d)
	}
	s.observeHint(1)
	if d, _ := s.NextDelay(1, rng); d != 4*time.Second {
		t.Errorf("delay at hint 1 = %v, want the 4s ceiling", d)
	}
	capped := newController(BackpressurePolicy{MaxAttempts: 2})
	if _, ok := capped.NextDelay(2, rng); ok {
		t.Error("policy retried past MaxAttempts")
	}
	if (BackpressurePolicy{}).Name() != "hinted" || (BackpressurePolicy{MaxAttempts: 5}).Name() != "hinted(5)" {
		t.Error("unexpected policy names")
	}
	if err := (BackpressurePolicy{Floor: 5 * time.Second}).Validate(); err == nil {
		t.Error("floor above the ceiling validated")
	}
}

// congestedConfig deliberately undersizes the ordering service (25 ms
// of serial CPU per transaction ≈ 40 tps capacity against a 50 tps
// offered load plus retries), so the backlog — and with it the
// congestion hint — must climb.
func congestedConfig(seed int64) Config {
	cfg := retryConfig(seed, ImmediateRetry{MaxAttempts: 5})
	cfg.OrdererCosts.PerTx = 25 * time.Millisecond
	cfg.Backpressure = &Backpressure{}
	return cfg
}

// TestBackpressureHintsRiseUnderCongestion reads the corpus's
// hinted-orderer regime.
func TestBackpressureHintsRiseUnderCongestion(t *testing.T) {
	rep := runOf(t, "hinted-orderer").rep
	if rep.Hint.Max <= 0 || rep.Hint.Max > 1 {
		t.Fatalf("hint max = %g, want in (0,1]", rep.Hint.Max)
	}
	if rep.Hint.Last <= 0 {
		t.Errorf("final hint = %g, want > 0 with a saturated orderer", rep.Hint.Last)
	}
	if rep.PacedSubmissions == 0 || rep.Paced.Sum == 0 {
		t.Errorf("paced=%d time-paced=%v, want pacing under congestion",
			rep.PacedSubmissions, rep.Paced.Sum)
	}
}

func TestBackpressurePacingShedsRetryLoad(t *testing.T) {
	paced := congestedConfig(2)
	_, withBP := run(t, paced)
	unpaced := congestedConfig(2)
	unpaced.Backpressure = nil
	_, without := run(t, unpaced)
	if without.PacedSubmissions != 0 || without.Paced.Sum != 0 ||
		without.Hint.Max != 0 {
		t.Fatalf("nil backpressure left traces: %+v", without)
	}
	// Pacing spreads resubmissions out, so the paced run must issue no
	// more attempts than the unpaced one into the same congested
	// orderer.
	if withBP.Attempts > without.Attempts {
		t.Errorf("paced attempts %d > unpaced %d", withBP.Attempts, without.Attempts)
	}
}

// TestBackpressureInertWithoutTracking: on a fire-and-forget open loop
// hints are still computed at each cut (they appear in the report) but
// nothing is delivered or paced, and the run is otherwise untouched (a
// metamorphic pin that ignores the hint summary).
func TestBackpressureInertWithoutTracking(t *testing.T) {
	if r := pinned(t, "backpressure-inert-without-tracking"); r.rep.Hint.N == 0 {
		t.Error("no hint computed at any cut")
	}
}

// TestBackpressureRunsDeterministic: a hinted run behind a congested
// orderer reproduces itself, and observes the congestion (the corpus's
// hinted-orderer regime and its predicate).
func TestBackpressureRunsDeterministic(t *testing.T) {
	checked(t, "hinted-orderer")
	deterministic(t, "hinted-orderer")
}

func TestBackpressurePolicyBacksOffHarderUnderCongestion(t *testing.T) {
	// Same congested network, hinted policy vs a floor-only baseline:
	// the shared signal must stretch backoffs, reducing the duplicate
	// submissions pushed into the saturated orderer.
	hinted := congestedConfig(5)
	hinted.Retry = BackpressurePolicy{Floor: 100 * time.Millisecond, MaxAttempts: 5}
	_, h := run(t, hinted)

	floorOnly := congestedConfig(5)
	floorOnly.Backpressure = nil
	floorOnly.Retry = BackpressurePolicy{Floor: 100 * time.Millisecond, MaxAttempts: 5}
	_, f := run(t, floorOnly)

	if h.RetryAmplification >= f.RetryAmplification {
		t.Errorf("hinted amplification %.3f >= floor-only %.3f: the signal did not slow retries",
			h.RetryAmplification, f.RetryAmplification)
	}
}

// TestBudgetWaitAbsorbsPacingTime pins the pacing accounting against
// the retry budget: a token wait that dominates the paced backoff
// absorbs the whole pause (nothing is recorded as pacer-added time),
// and a shorter wait absorbs exactly the part it covers.
func TestBudgetWaitAbsorbsPacingTime(t *testing.T) {
	mkNet := func(seed int64) (*Network, *ClientDriver) {
		cfg := retryConfig(seed, ImmediateRetry{MaxAttempts: 5})
		cfg.RetryBudget = &RetryBudget{RefillPerSec: 0.1, Burst: 1}
		cfg.Backpressure = &Backpressure{}
		nw, err := NewNetwork(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c := nw.drivers[0]
		c.hints[0] = 1 // pause = pacingGain = 1s
		return nw, c
	}
	job := func(nw *Network) *pendingTx {
		return &pendingTx{inv: nw.cfg.Workload.Next(nw.eng.Rand()), attempts: 1}
	}

	// Token wait (10s at 0.1/s) dominates the paced zero-backoff (1s):
	// a deferral, with the pause fully absorbed.
	nw, c := mkNet(7)
	c.bucket = &tokenBucket{rate: 0.1, burst: 1, tokens: 0}
	c.attemptFailed(job(nw), 0)
	rep := nw.col.Report()
	if rep.DeferredRetries != 1 {
		t.Fatalf("deferred = %d, want 1", rep.DeferredRetries)
	}
	if rep.PacedSubmissions != 0 || rep.Paced.Sum != 0 {
		t.Errorf("budget-dominated deferral recorded pacing: paced=%d time=%v",
			rep.PacedSubmissions, rep.Paced.Sum)
	}

	// Token wait of 400ms against the 1s pause: the retry fires at the
	// paced delay, but only the 600ms the wait did not cover count as
	// pacer-added time.
	nw, c = mkNet(8)
	c.bucket = &tokenBucket{rate: 2.5, burst: 1, tokens: 0}
	c.attemptFailed(job(nw), 0)
	rep = nw.col.Report()
	if rep.DeferredRetries != 0 {
		t.Fatalf("partial-wait retry deferred, want immediate paced schedule")
	}
	if rep.PacedSubmissions != 1 || rep.Paced.Sum != 600*time.Millisecond {
		t.Errorf("partial absorption: paced=%d time=%v, want 1 and 600ms",
			rep.PacedSubmissions, rep.Paced.Sum)
	}
}

func TestClosedLoopPacingThrottlesNewJobs(t *testing.T) {
	// A wide in-flight window defeats the closed loop's natural
	// self-throttling, so the undersized orderer backlogs and hints
	// climb. At 10 transactions per client the backlog stays short
	// enough that a pause of up to a second idles the orderer.
	busy := closedConfig(6)
	busy.InFlightPerClient = 10
	busy.OrdererCosts.PerTx = 25 * time.Millisecond
	busy.Retry = nil
	_, unpaced := run(t, busy)

	paced := closedConfig(6)
	paced.InFlightPerClient = 10
	paced.OrdererCosts.PerTx = 25 * time.Millisecond
	paced.Retry = nil
	paced.Backpressure = &Backpressure{}
	_, withBP := run(t, paced)

	if withBP.PacedSubmissions == 0 {
		t.Fatal("closed-loop run under congestion never paced a new job")
	}
	if withBP.Jobs >= unpaced.Jobs {
		t.Errorf("paced closed loop resolved %d jobs vs %d unpaced: pacing did not throttle",
			withBP.Jobs, unpaced.Jobs)
	}
}
