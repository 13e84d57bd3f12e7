package fabric

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/ledger"
)

func TestNoRetryPolicy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, ok := (NoRetry{}).NextDelay(1, rng); ok {
		t.Fatal("NoRetry retried")
	}
	if (NoRetry{}).Name() != "none" {
		t.Errorf("name = %q", NoRetry{}.Name())
	}
}

func TestImmediateRetryCapsAttempts(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := ImmediateRetry{MaxAttempts: 3}
	for attempts := 1; attempts <= 2; attempts++ {
		d, ok := p.NextDelay(attempts, rng)
		if !ok || d != 0 {
			t.Errorf("attempt %d: delay=%v ok=%v, want 0,true", attempts, d, ok)
		}
	}
	if _, ok := p.NextDelay(3, rng); ok {
		t.Error("4th submission allowed past MaxAttempts=3")
	}
	// Unlimited variant never gives up.
	if _, ok := (ImmediateRetry{}).NextDelay(1000, rng); !ok {
		t.Error("unlimited immediate retry gave up")
	}
}

func TestExponentialBackoffSchedule(t *testing.T) {
	p := ExponentialBackoff{Initial: 100 * time.Millisecond, Cap: 500 * time.Millisecond}
	rng := rand.New(rand.NewSource(1))
	want := []time.Duration{
		100 * time.Millisecond, // after 1 failure
		200 * time.Millisecond,
		400 * time.Millisecond,
		500 * time.Millisecond, // capped
		500 * time.Millisecond,
	}
	for i, w := range want {
		d, ok := p.NextDelay(i+1, rng)
		if !ok || d != w {
			t.Errorf("failures=%d: delay=%v ok=%v, want %v", i+1, d, ok, w)
		}
	}
	if _, ok := (ExponentialBackoff{MaxAttempts: 2}).NextDelay(2, rng); ok {
		t.Error("backoff retried past MaxAttempts")
	}
}

func TestExponentialBackoffJitterDeterministic(t *testing.T) {
	p := ExponentialBackoff{Initial: time.Second, Jitter: 0.5}
	a := rand.New(rand.NewSource(7))
	b := rand.New(rand.NewSource(7))
	for i := 1; i <= 10; i++ {
		da, _ := p.NextDelay(i, a)
		db, _ := p.NextDelay(i, b)
		if da != db {
			t.Fatalf("failures=%d: %v != %v for identical rng seeds", i, da, db)
		}
		base, _ := p.NextDelay(i, rand.New(rand.NewSource(int64(i))))
		if base < 0 {
			t.Fatalf("negative delay %v", base)
		}
	}
	// Jitter must actually vary the delay.
	d1, _ := p.NextDelay(1, rand.New(rand.NewSource(1)))
	d2, _ := p.NextDelay(1, rand.New(rand.NewSource(2)))
	if d1 == d2 {
		t.Error("jittered delays identical across different rng streams")
	}
}

func TestGiveUpAfterTruncates(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := GiveUpAfter(ImmediateRetry{}, 2)
	if _, ok := p.NextDelay(1, rng); !ok {
		t.Error("first retry refused")
	}
	if _, ok := p.NextDelay(2, rng); ok {
		t.Error("retry allowed past the give-up budget")
	}
	if p.Name() != "immediate-cap2" {
		t.Errorf("name = %q", p.Name())
	}
}

// retryConfig is testConfig with a retry policy.
func retryConfig(seed int64, p RetryPolicy) Config {
	cfg := testConfig(seed)
	cfg.Retry = p
	return cfg
}

// TestRetryAmplifiesSubmissions reads the corpus's immediate regime.
func TestRetryAmplifiesSubmissions(t *testing.T) {
	rep := runOf(t, "immediate").rep
	if rep.Jobs == 0 {
		t.Fatal("no jobs tracked with a retry policy configured")
	}
	if rep.Attempts <= rep.Jobs {
		t.Errorf("attempts %d <= jobs %d: EHR contention must trigger retries", rep.Attempts, rep.Jobs)
	}
	if rep.RetryAmplification <= 1 {
		t.Errorf("amplification %.2f, want > 1", rep.RetryAmplification)
	}
	if rep.EventualValid+rep.GaveUp != rep.Jobs {
		t.Errorf("eventual-valid %d + gave-up %d != jobs %d", rep.EventualValid, rep.GaveUp, rep.Jobs)
	}
	if rep.EventualValid < rep.FirstAttemptValid {
		t.Errorf("eventual valid %d < first-attempt valid %d", rep.EventualValid, rep.FirstAttemptValid)
	}
	// Retries recover transactions fire-and-forget would lose: the
	// eventual success count must beat the first-attempt one.
	if rep.EventualValid == rep.FirstAttemptValid {
		t.Error("no transaction ever succeeded on a resubmission")
	}
	if rep.Goodput >= rep.Throughput {
		t.Errorf("goodput %.1f >= throughput %.1f despite duplicate submissions", rep.Goodput, rep.Throughput)
	}
	// Per-attempt breakdown covers every attempt number up to the cap.
	for attempt := 1; attempt <= 3; attempt++ {
		if len(rep.AttemptBreakdown[attempt]) == 0 {
			t.Errorf("no outcomes recorded for attempt %d", attempt)
		}
	}
	if len(rep.AttemptBreakdown) > 3 {
		t.Errorf("attempts beyond MaxAttempts recorded: %v", rep.AttemptBreakdown)
	}
}

// TestNoRetryReportMatchesChainView reads the corpus's
// fire-and-forget regime.
func TestNoRetryReportMatchesChainView(t *testing.T) {
	rep := runOf(t, "fire-and-forget").rep
	if rep.Jobs != rep.Total || rep.Attempts != rep.Total {
		t.Errorf("fire-and-forget jobs=%d attempts=%d, want both == total %d", rep.Jobs, rep.Attempts, rep.Total)
	}
	if rep.RetryAmplification != 1 {
		t.Errorf("amplification %.2f, want exactly 1", rep.RetryAmplification)
	}
	if rep.EventualValid != rep.Valid || rep.FirstAttemptValid != rep.Valid {
		t.Errorf("eventual=%d first=%d, want both == valid %d", rep.EventualValid, rep.FirstAttemptValid, rep.Valid)
	}
	if rep.AvgEndToEnd != rep.AvgLatency {
		t.Errorf("end-to-end %v != chain latency %v without retries", rep.AvgEndToEnd, rep.AvgLatency)
	}
	if len(rep.AttemptBreakdown) != 0 {
		t.Errorf("attempt breakdown %v without tracking", rep.AttemptBreakdown)
	}
}

func TestClosedLoopKeepsWindow(t *testing.T) {
	cfg := testConfig(4)
	cfg.ClosedLoop = true
	cfg.InFlightPerClient = 2
	nw, rep := run(t, cfg)
	if rep.Jobs == 0 {
		t.Fatal("closed loop resolved no jobs")
	}
	// 5 clients × 2 in flight: at any instant at most 10 attempts are
	// outstanding, including at the end of the run.
	pending := 0
	for _, c := range nw.Drivers() {
		pending += c.Pending()
	}
	if max := cfg.Clients * cfg.InFlightPerClient; pending > max {
		t.Errorf("%d attempts pending, window allows %d", pending, max)
	}
	// The closed loop is latency-bound: it must finish far fewer
	// transactions than the open-loop 50 tps arrival process would
	// submit in the same window.
	if rep.Total > 500 {
		t.Errorf("closed loop committed %d txs, suspiciously open-loop-like", rep.Total)
	}
}

func TestClosedLoopStopsAtWindowEnd(t *testing.T) {
	cfg := testConfig(5)
	cfg.ClosedLoop = true
	cfg.Retry = ImmediateRetry{MaxAttempts: 2}
	nw, rep := run(t, cfg)
	if rep.Attempts <= rep.Jobs {
		t.Errorf("closed loop with retries never resubmitted: %d attempts for %d jobs", rep.Attempts, rep.Jobs)
	}
	// After Duration+Drain no client may start fresh jobs; the run
	// terminating at all (RunUntil returned) is the real assertion,
	// but also check the engine drained to the deadline.
	if got, want := nw.Engine().Now(), cfg.Duration+cfg.Drain; time.Duration(got) < want {
		t.Errorf("engine stopped at %v, want %v", got, want)
	}
}

// TestRetryRunsDeterministic: the same (config, seed) with jittered
// backoff retries reproduces the run (the corpus's backoff regime).
func TestRetryRunsDeterministic(t *testing.T) { deterministic(t, "backoff") }

// TestServedReadsResolveJobs reads the corpus's served-reads regime.
func TestServedReadsResolveJobs(t *testing.T) {
	rep := runOf(t, "served-reads").rep
	if rep.ServedReads == 0 {
		t.Fatal("EHR workload produced no served reads")
	}
	// Served reads resolve their job as successful without a chain
	// transaction, so eventual-valid must exceed chain valid.
	if rep.EventualValid <= rep.Valid {
		t.Errorf("eventual valid %d <= chain valid %d with served reads", rep.EventualValid, rep.Valid)
	}
}

func TestAbortedAttemptsNotifyClients(t *testing.T) {
	// A variant that rejects every 5th submission exercises the
	// ordering-phase abort path of the event plumbing.
	cfg := retryConfig(8, ImmediateRetry{MaxAttempts: 3})
	cfg.Variant = &rejectEveryN{n: 5}
	_, rep := run(t, cfg)
	if rep.Counts[ledger.AbortedInOrdering] == 0 {
		t.Fatal("variant aborted nothing")
	}
	breakdownAborts := 0
	for _, byCode := range rep.AttemptBreakdown {
		breakdownAborts += byCode[ledger.AbortedInOrdering]
	}
	if breakdownAborts == 0 {
		t.Error("ordering aborts never reached the per-attempt breakdown: clients were not notified")
	}
}

// rejectEveryN aborts every n'th submission in the ordering phase.
type rejectEveryN struct {
	Vanilla
	n    int
	seen int
}

func (r *rejectEveryN) Name() string { return "reject-every-n" }

func (r *rejectEveryN) OnSubmit(*ledger.Transaction) (bool, time.Duration) {
	r.seen++
	return r.seen%r.n != 0, 0
}

func TestServedReadsCountedConsistentlyAcrossModes(t *testing.T) {
	// With SkipReadOnlySubmission on, the fire-and-forget fallback and
	// the tracked path must agree on what a "job" is: switching the
	// policy from none to a retrying one must not inflate the success
	// counts when no retry ever fires on the served reads themselves.
	base := testConfig(9)
	base.SkipReadOnlySubmission = true
	_, plain := run(t, base)

	tracked := retryConfig(9, ImmediateRetry{MaxAttempts: 1})
	tracked.SkipReadOnlySubmission = true
	_, withTracking := run(t, tracked)

	// MaxAttempts 1 means the tracked run never resubmits, so both
	// runs execute the identical event sequence apart from event
	// delivery; the job accounting must match exactly.
	if plain.ServedReads == 0 {
		t.Fatal("no served reads; test needs a read-bearing workload")
	}
	if plain.Jobs != plain.Total+plain.ServedReads {
		t.Errorf("fallback jobs=%d, want total %d + served %d",
			plain.Jobs, plain.Total, plain.ServedReads)
	}
	if withTracking.EventualValid != withTracking.Valid+withTracking.ServedReads {
		t.Errorf("tracked eventual=%d, want valid %d + served %d",
			withTracking.EventualValid, withTracking.Valid, withTracking.ServedReads)
	}
}

// userPolicy is a policy the package has never seen: a user-supplied
// stateless RetryPolicy with ImmediateRetry{MaxAttempts: 4}'s schedule.
type userPolicy struct{}

func (userPolicy) Name() string { return "user" }
func (userPolicy) NextDelay(attempts int, _ *rand.Rand) (time.Duration, bool) {
	return 0, attempts < 4
}

// TestUserPolicyGetsNoopController pins what a user-supplied stateless
// policy — bare or behind GiveUpAfter — gets from the control plane:
// the no-op controller. It is not a hint consumer, reports no backoff
// level, and its run is the run of the equivalent built-in policy field
// for field, so the hooks drew no rng and moved no schedule.
func TestUserPolicyGetsNoopController(t *testing.T) {
	bare := newController(userPolicy{})
	if _, ok := bare.(statelessController); !ok {
		t.Fatalf("user policy got %T, want statelessController", bare)
	}
	capped := newController(GiveUpAfter(userPolicy{}, 3))
	if inner, ok := capped.(cappedController); !ok {
		t.Fatalf("capped user policy got %T, want cappedController", capped)
	} else if _, ok := inner.controller.(statelessController); !ok {
		t.Fatalf("cap wraps %T, want statelessController", inner.controller)
	}
	rng := rand.New(rand.NewSource(1))
	for _, ctl := range []controller{bare, capped} {
		ctl.observeClass(SignalConflict)
		ctl.observeHint(1)
		if ctl.consumesHint() {
			t.Errorf("%T consumes hints", ctl)
		}
		if _, ok := ctl.backoffLevel(); ok {
			t.Errorf("%T reports a backoff level", ctl)
		}
		if d, ok := ctl.NextDelay(1, rng); !ok || d != 0 {
			t.Errorf("%T: hint moved the delay to %v ok=%v", ctl, d, ok)
		}
	}
	if _, ok := capped.NextDelay(3, rng); ok {
		t.Error("cap lost: a third failure was retried")
	}

	// Every signal producer on, so each hook is reachable.
	signalled := func(p RetryPolicy) Config {
		cfg := gossipConfig(8)
		cfg.Retry = p
		cfg.HintSource = HintBoth
		return cfg
	}
	_, user := run(t, signalled(userPolicy{}))
	_, builtin := run(t, signalled(ImmediateRetry{MaxAttempts: 4}))
	if !reflect.DeepEqual(user, builtin) {
		t.Errorf("user policy run diverged from the equivalent built-in:\n%+v\n%+v", user, builtin)
	}
	if user.Backoff.Max != 0 || user.Backoff.Avg() != 0 || user.Backoff.Last != 0 {
		t.Errorf("stateless policy recorded backoff samples: %+v", user)
	}
	// With no pacer either, nothing consults the gossip estimate.
	cfg := signalled(GiveUpAfter(userPolicy{}, 3))
	cfg.Backpressure = nil
	cfg.HintSource = HintGossip
	_, rep := run(t, cfg)
	if rep.GossipMessages == 0 || rep.GossipStaleness.N != 0 {
		t.Errorf("msgs=%d uses=%d, want gossip running and never consulted", rep.GossipMessages, rep.GossipStaleness.N)
	}
}
