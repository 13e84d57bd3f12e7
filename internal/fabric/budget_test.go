package fabric

import (
	"math"
	"testing"
	"time"

	"repro/internal/sim"
)

func sec(s float64) sim.Time { return sim.Time(time.Duration(s * float64(time.Second))) }

func TestTokenBucketRefillMath(t *testing.T) {
	tb := newTokenBucket(RetryBudget{RefillPerSec: 2, Burst: 4})
	// Starts full.
	if got := tb.level(0); got != 4 {
		t.Fatalf("initial level %g, want the burst 4", got)
	}
	// Drain it.
	for i := 0; i < 4; i++ {
		if wait, ok := tb.take(0, SignalConflict); !ok || wait != 0 {
			t.Fatalf("take %d: wait=%v ok=%v, want immediate grant", i, wait, ok)
		}
	}
	if got := tb.level(0); got != 0 {
		t.Fatalf("level after draining %g, want 0", got)
	}
	// 1.5s at 2 tokens/s refills 3 tokens.
	if got := tb.level(sec(1.5)); math.Abs(got-3) > 1e-9 {
		t.Errorf("level after 1.5s = %g, want 3", got)
	}
	// Refill never exceeds the burst cap.
	if got := tb.level(sec(100)); got != 4 {
		t.Errorf("level after 100s = %g, want capped at burst 4", got)
	}
}

func TestTokenBucketDropMode(t *testing.T) {
	tb := newTokenBucket(RetryBudget{RefillPerSec: 1, Burst: 2, DropOnEmpty: true})
	if _, ok := tb.take(0, SignalConflict); !ok {
		t.Fatal("full bucket refused a token")
	}
	if _, ok := tb.take(0, SignalConflict); !ok {
		t.Fatal("second token refused with burst 2")
	}
	// Empty: drop mode refuses instead of lending.
	if _, ok := tb.take(0, SignalConflict); ok {
		t.Fatal("empty drop-mode bucket granted a token")
	}
	// A second refusal must not consume anything: after 1s exactly one
	// token accrued and is grantable.
	if _, ok := tb.take(0, SignalConflict); ok {
		t.Fatal("repeat take on empty bucket granted")
	}
	if wait, ok := tb.take(sec(1), SignalConflict); !ok || wait != 0 {
		t.Fatalf("after 1s refill: wait=%v ok=%v, want immediate grant", wait, ok)
	}
	if _, ok := tb.take(sec(1), SignalConflict); ok {
		t.Fatal("bucket granted a second token after refilling only one")
	}
}

func TestTokenBucketDeferMode(t *testing.T) {
	tb := newTokenBucket(RetryBudget{RefillPerSec: 2, Burst: 1})
	if wait, ok := tb.take(0, SignalConflict); !ok || wait != 0 {
		t.Fatalf("initial take: wait=%v ok=%v", wait, ok)
	}
	// Empty: defer mode lends the token; at 2 tokens/s the loan is
	// repaid in 500ms.
	wait, ok := tb.take(0, SignalConflict)
	if !ok {
		t.Fatal("defer-mode bucket refused")
	}
	if want := 500 * time.Millisecond; wait != want {
		t.Errorf("first deferred wait %v, want %v", wait, want)
	}
	// Deferred retries serialize: the next loan waits its own 500ms on
	// top of the outstanding one.
	wait, ok = tb.take(0, SignalConflict)
	if !ok || wait != time.Second {
		t.Errorf("second deferred wait %v ok=%v, want 1s", wait, ok)
	}
	// After the debt is repaid the bucket grants immediately again.
	if wait, ok := tb.take(sec(2), SignalConflict); !ok || wait != 0 {
		t.Errorf("post-repayment take: wait=%v ok=%v, want immediate", wait, ok)
	}
}

func TestTokenBucketDeferModeWithoutRefillDrops(t *testing.T) {
	// Regression: a defer-mode bucket with no refill stream (rate <= 0
	// is unreachable through Config — withDefaults maps 0 to 1 — but
	// the bucket guards it defensively) must refuse outright once the
	// burst is spent. Lending would park the retry forever; the old
	// code refunded correctly but the refusal semantics are what the
	// client's exhaustion/deferral split depends on.
	tb := &tokenBucket{rate: 0, burst: 2, tokens: 2}
	for i := 0; i < 2; i++ {
		if wait, ok := tb.take(0, SignalConflict); !ok || wait != 0 {
			t.Fatalf("take %d: wait=%v ok=%v, want the burst granted immediately", i, wait, ok)
		}
	}
	for i := 0; i < 3; i++ {
		wait, ok := tb.take(sec(float64(i)), SignalConflict)
		if ok {
			t.Fatalf("take %d on an unrefillable bucket granted a loan", i)
		}
		if wait != 0 {
			t.Fatalf("take %d refused with a deferral wait %v, want a plain drop", i, wait)
		}
	}
	// Refusals must not consume or lend tokens.
	if got := tb.level(sec(10)); got != 0 {
		t.Fatalf("refusals moved the token level to %g, want 0", got)
	}
}

func TestDeferModeWithoutRefillCountsAsExhaustion(t *testing.T) {
	// Client/metrics classification for the defensive path: swap every
	// client's bucket for the unrefillable defer-mode bucket and pin
	// the counts — each over-burst retry must land in BudgetExhausted
	// (and abandon its job into GaveUp), never in DeferredRetries.
	cfg := retryConfig(5, ImmediateRetry{MaxAttempts: 5})
	cfg.RetryBudget = &RetryBudget{RefillPerSec: 1, Burst: 2}
	nw, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, cl := range nw.Drivers() {
		cl.bucket = &tokenBucket{rate: 0, burst: 2, tokens: 2}
	}
	rep := nw.Run()
	if rep.BudgetExhausted == 0 {
		t.Fatal("unrefillable defer bucket never exhausted under EHR contention")
	}
	if rep.DeferredRetries != 0 || rep.MaxDeferredDepth != 0 {
		t.Errorf("unrefillable drops classified as deferrals: deferred=%d depth=%d",
			rep.DeferredRetries, rep.MaxDeferredDepth)
	}
	if rep.GaveUp < rep.BudgetExhausted {
		t.Errorf("gave up %d < budget exhausted %d: drops must abandon their jobs",
			rep.GaveUp, rep.BudgetExhausted)
	}
}

func TestRetryBudgetDefaultsAndValidation(t *testing.T) {
	b := RetryBudget{}.withDefaults()
	if b.RefillPerSec != 1 || b.Burst != 1 {
		t.Errorf("defaults = %+v, want refill 1/s burst 1", b)
	}
	if err := (RetryBudget{RefillPerSec: -1}).Validate(); err == nil {
		t.Error("negative refill rate validated")
	}
	if err := (RetryBudget{Burst: -1}).Validate(); err == nil {
		t.Error("negative burst validated")
	}
	cfg := retryConfig(1, ImmediateRetry{MaxAttempts: 3})
	cfg.RetryBudget = &RetryBudget{RefillPerSec: -1}
	if _, err := NewNetwork(cfg); err == nil {
		t.Error("network accepted an invalid retry budget")
	}
}

// budgetConfig is a contended run whose immediate retries hammer the
// budget hard enough to exhaust it.
func budgetConfig(seed int64, b RetryBudget) Config {
	cfg := retryConfig(seed, ImmediateRetry{MaxAttempts: 5})
	cfg.RetryBudget = &b
	return cfg
}

func TestBudgetDropModeExhausts(t *testing.T) {
	_, rep := run(t, budgetConfig(1, RetryBudget{RefillPerSec: 0.5, Burst: 2, DropOnEmpty: true}))
	if rep.BudgetExhausted == 0 {
		t.Fatal("drop-mode budget never exhausted under EHR contention")
	}
	if rep.DeferredRetries != 0 || rep.MaxDeferredDepth != 0 {
		t.Errorf("drop mode deferred %d (depth %d), want none",
			rep.DeferredRetries, rep.MaxDeferredDepth)
	}
	// Every exhaustion abandons its job, so it is bounded by (and
	// counted inside) the give-up total.
	if rep.GaveUp < rep.BudgetExhausted {
		t.Errorf("gave up %d < budget exhausted %d", rep.GaveUp, rep.BudgetExhausted)
	}
	// The budget strictly bounds duplicate submissions relative to the
	// unbudgeted run.
	_, unbounded := run(t, retryConfig(1, ImmediateRetry{MaxAttempts: 5}))
	if rep.Attempts >= unbounded.Attempts {
		t.Errorf("budgeted attempts %d >= unbudgeted %d", rep.Attempts, unbounded.Attempts)
	}
}

// TestBudgetDeferModeQueues reads the corpus's budget-defer regime.
func TestBudgetDeferModeQueues(t *testing.T) {
	rep := runOf(t, "budget-defer").rep
	if rep.DeferredRetries == 0 {
		t.Fatal("defer-mode budget never deferred under EHR contention")
	}
	// Deferred counts only budget-induced delays: with an immediate
	// (zero-backoff) policy, every granted-but-lent token defers.
	if rep.DeferredRetries > rep.Attempts {
		t.Errorf("deferred %d > attempts %d", rep.DeferredRetries, rep.Attempts)
	}
	if rep.MaxDeferredDepth == 0 {
		t.Error("deferred retries recorded but max depth stayed 0")
	}
	if rep.BudgetExhausted != 0 {
		t.Errorf("defer mode dropped %d retries, want none", rep.BudgetExhausted)
	}
}

// TestBudgetRunsDeterministic: a defer-mode budget reproduces its run
// (the corpus's budget-defer regime).
func TestBudgetRunsDeterministic(t *testing.T) { deterministic(t, "budget-defer") }

// TestBudgetIgnoredWithoutRetryPolicy: a retry budget on a
// fire-and-forget run changes nothing (a metamorphic pin).
func TestBudgetIgnoredWithoutRetryPolicy(t *testing.T) {
	pinned(t, "budget-ignored-without-retry-policy")
}
