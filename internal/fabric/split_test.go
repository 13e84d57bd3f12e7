package fabric

import (
	"strings"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/ledger"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/statedb"
)

// TestClassifyOutcome pins the class of every validation code the
// ledger defines: the regression the split exists to enforce is that
// CLIENT_TIMEOUT — and only CLIENT_TIMEOUT — reads as congestion
// wherever an outcome feeds an estimator, while every contention-born
// failure reads as conflict. An unknown future code must land in
// conflict, the conservative direction.
func TestClassifyOutcome(t *testing.T) {
	cases := []struct {
		code ledger.ValidationCode
		want SignalClass
	}{
		{ledger.Valid, SignalNone},
		{ledger.MVCCConflictInterBlock, SignalConflict},
		{ledger.MVCCConflictIntraBlock, SignalConflict},
		{ledger.PhantomReadConflict, SignalConflict},
		{ledger.EndorsementPolicyFailure, SignalConflict},
		{ledger.AbortedInOrdering, SignalConflict},
		{ledger.ClientTimeout, SignalCongestion},
		{ledger.ValidationCode(999), SignalConflict}, // unknown: conservative
	}
	for _, c := range cases {
		if got := ClassifyOutcome(c.code); got != c.want {
			t.Errorf("ClassifyOutcome(%v) = %v, want %v", c.code, got, c.want)
		}
	}
	if SignalNone.String() != "none" || SignalConflict.String() != "conflict" ||
		SignalCongestion.String() != "congestion" {
		t.Error("SignalClass names drifted")
	}
}

func TestSplitSignalValidateAndParse(t *testing.T) {
	for _, off := range []string{"", "off"} {
		if sp, err := ParseSplitSignal(off); err != nil || sp != nil {
			t.Errorf("ParseSplitSignal(%q) = %v, %v, want nil, nil", off, sp, err)
		}
	}
	if sp, err := ParseSplitSignal("on"); err != nil || sp == nil {
		t.Errorf("ParseSplitSignal(on) = %v, %v", sp, err)
	}
	for _, in := range []string{"wat", "3s"} {
		if sp, err := ParseSplitSignal(in); err == nil || sp != nil || !strings.Contains(err.Error(), "want off or on") {
			t.Errorf("ParseSplitSignal(%q) = %v, %v, want an error naming off|on", in, sp, err)
		}
	}
	cfg := testConfig(1)
	cfg.SplitSignal = &SplitSignal{}
	if err := cfg.Validate(); err != nil {
		t.Errorf("split signal rejected: %v", err)
	}
}

// TestSplitLatencyRule pins the congestion threshold at twice the block
// timeout: under the split classifier an attempt that resolved that
// late is congestion evidence whatever its code, one nanosecond earlier
// it is not, and the scalar classifier never applies the rule.
func TestSplitLatencyRule(t *testing.T) {
	cfg := retryConfig(1, ImmediateRetry{MaxAttempts: 3})
	cfg.BlockTimeout = 3 * time.Second
	cfg.SplitSignal = &SplitSignal{}
	nw, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := nw.drivers[0]
	nw.eng.RunUntil(sim.Time(10 * time.Second))
	for _, tc := range []struct {
		age       time.Duration
		code      ledger.ValidationCode
		class     SignalClass
		congested bool
	}{
		{6 * time.Second, ledger.Valid, SignalNone, true},
		{6*time.Second - 1, ledger.Valid, SignalNone, false},
		{7 * time.Second, ledger.MVCCConflictInterBlock, SignalConflict, true},
		{time.Second, ledger.ClientTimeout, SignalCongestion, false},
	} {
		j := &pendingTx{lastSubmit: nw.eng.Now() - sim.Time(tc.age)}
		if class, congested := c.classify(tc.code, j); class != tc.class || congested != tc.congested {
			t.Errorf("%v after %v: classified %v congested=%v, want %v %v", tc.code, tc.age, class, congested, tc.class, tc.congested)
		}
	}
	nw.ctl.SplitSignal = nil
	if class, congested := c.classify(ledger.ClientTimeout, &pendingTx{}); class != SignalConflict || congested {
		t.Errorf("scalar classifier: %v congested=%v, want conflict without the latency rule", class, congested)
	}
}

// TestAdaptiveSplitGatesOnConflictOnly unit-tests the split AIMD
// controller: congestion-class failures (CLIENT_TIMEOUT) must leave
// the backoff level at the floor no matter how many arrive — pacing,
// not backoff, is their remedy — while the same volume of
// conflict-class failures multiplies the level up as before.
func TestAdaptiveSplitGatesOnConflictOnly(t *testing.T) {
	mk := func() *adaptiveState {
		p := AdaptivePolicy{Floor: 100 * time.Millisecond, Ceiling: 4 * time.Second, Decrease: 50 * time.Millisecond}
		return newController(p).(*adaptiveState)
	}

	s := mk()
	for i := 0; i < 16; i++ {
		s.observeClass(SignalCongestion)
	}
	if s.cur != 100*time.Millisecond {
		t.Errorf("congestion-class failures moved the backoff to %v, want floor", s.cur)
	}
	if got := s.conflictWin.failureRate(); got != 0 {
		t.Errorf("conflict window rate = %g, want 0", got)
	}

	s = mk()
	for i := 0; i < 16; i++ {
		s.observeClass(SignalConflict)
	}
	if s.cur != 4*time.Second {
		t.Errorf("conflict-class failures left the backoff at %v, want the ceiling", s.cur)
	}
	if got := s.conflictWin.failureRate(); got != 0.5 {
		t.Errorf("conflict window rate = %g, want 16/32", got)
	}

	// Commits decrease additively in split mode exactly as in scalar.
	s.observeClass(SignalNone)
	if want := 4*time.Second - 50*time.Millisecond; s.cur != want {
		t.Errorf("commit decreased to %v, want %v", s.cur, want)
	}
}

// TestAdaptiveBucketClassRule unit-tests the calibration rule: only
// conflict-class demand on an empty bucket raises the refill rate;
// congestion-class demand never does; and a full bucket relaxes the
// rate back toward the configured base.
func TestAdaptiveBucketClassRule(t *testing.T) {
	tb := newTokenBucket(RetryBudget{RefillPerSec: 1, Burst: 1, DropOnEmpty: true, Adaptive: true})
	if _, ok := tb.take(0, SignalConflict); !ok {
		t.Fatal("full bucket refused")
	}
	// Empty + congestion: the rate must not move.
	if _, ok := tb.take(0, SignalCongestion); ok || tb.rate != 1 {
		t.Fatalf("congestion-class demand moved the rate to %g (ok=%v), want 1", tb.rate, ok)
	}
	// Empty + conflict: doubles per demand, capped at 64 × base.
	for i, want := range []float64{2, 4, 8, 16, 32, 64, 64} {
		if _, ok := tb.take(0, SignalConflict); ok {
			t.Fatalf("take %d on empty drop bucket granted", i)
		}
		if tb.rate != want {
			t.Fatalf("take %d: rate %g, want %g", i, tb.rate, want)
		}
	}
	// Refill at the raised rate: a token arrives well inside 1/4 s
	// (the decay over 250ms erodes the rate only marginally).
	if wait, ok := tb.take(sec(0.25), SignalConflict); !ok || wait != 0 {
		t.Fatalf("raised-rate refill did not grant: wait=%v ok=%v", wait, ok)
	}
	if tb.rate > 64 || tb.rate < 62.5 {
		t.Fatalf("rate after 250ms of decay = %g, want just under 64", tb.rate)
	}
	// Once the storm stops the raised rate relaxes toward base on the
	// 10s half-life: base 1 + excess ~62 halves each 10 idle seconds.
	tb.refill(sec(0.25 + 10))
	if tb.rate < 31.5 || tb.rate > 32.5 {
		t.Fatalf("rate one half-life after the storm = %g, want ~32", tb.rate)
	}
	tb.refill(sec(0.25 + 200))
	if tb.rate < 1 || tb.rate > 1.01 {
		t.Fatalf("rate twenty half-lives after the storm = %g, want ~base 1", tb.rate)
	}
}

// TestRetryBudgetAdaptiveValidation pins that Adaptive is a switch with
// no knob behind it: any valid budget stays valid with it on, and the
// rate cap follows the resolved base rate (64 × it).
func TestRetryBudgetAdaptiveValidation(t *testing.T) {
	for _, b := range []RetryBudget{{Adaptive: true}, {RefillPerSec: 2, Burst: 3, DropOnEmpty: true, Adaptive: true}} {
		if err := b.Validate(); err != nil {
			t.Errorf("%+v: %v", b, err)
		}
		tb := newTokenBucket(b)
		tb.tokens = 0
		for i := 0; i < 10; i++ {
			tb.take(0, SignalConflict)
		}
		if want := 64 * b.withDefaults().RefillPerSec; tb.rate != want {
			t.Errorf("%+v: a storm raised the rate to %g, want the cap %g", b, tb.rate, want)
		}
	}
	if err := (RetryBudget{RefillPerSec: -1, Adaptive: true}).Validate(); err == nil {
		t.Error("negative refill rate validated with Adaptive on")
	}
}

// splitStackConfig is the contention-bound coordination stack on an
// idle orderer: EHR's MVCC conflicts supply a steady conflict-class
// failure stream while the default orderer costs leave no backlog for
// the congestion component to see.
func splitStackConfig(seed int64, src HintSource) Config {
	cfg := retryConfig(seed, BackpressurePolicy{MaxAttempts: 5, Jitter: 0.2})
	cfg.Backpressure = &Backpressure{}
	cfg.Gossip = &Gossip{}
	cfg.HintSource = src
	cfg.SplitSignal = &SplitSignal{}
	return cfg
}

// insertOnlyCongestedConfig is the opposite corner: a conflict-free
// insert-only workload pushed through an orderer that cannot keep up
// (25ms per transaction against 50 tps), so every commit wades through
// a growing backlog. The congestion estimate must rise on commit
// latency alone — there are no failures to classify.
func insertOnlyCongestedConfig(seed int64, src HintSource) Config {
	cfg := splitStackConfig(seed, src)
	spec := gen.GenChainSpec()
	spec.Keys = 2000
	cfg.Chaincode = gen.MustChaincode(spec)
	cfg.Workload = gen.NewWorkload(spec, gen.Mix{Insert: 100}, 0)
	cfg.DBKind = statedb.LevelDB
	cfg.OrdererCosts.PerTx = 25 * time.Millisecond
	return cfg
}

// TestSplitSeparatesConflictFromCongestion is the satellite property
// test: on a contention-bound run with an idle orderer the congestion
// component stays (near) zero while the conflict component alarms; on
// a conflict-free congested run the roles swap. Both directions hold
// under every hint source.
func TestSplitSeparatesConflictFromCongestion(t *testing.T) {
	for _, src := range []HintSource{HintOrderer, HintGossip, HintBoth} {
		src := src
		t.Run("contention/"+string(src), func(t *testing.T) {
			cfg := splitStackConfig(31, src)
			_, rep := run(t, cfg)
			if rep.ConflictEst.Max < 0.2 {
				t.Errorf("conflict estimate max %g under EHR contention, want alarmed", rep.ConflictEst.Max)
			}
			if rep.CongestEst.Max > 0.05 {
				t.Errorf("congestion estimate max %g with an idle orderer, want ~0", rep.CongestEst.Max)
			}
		})
		t.Run("congestion/"+string(src), func(t *testing.T) {
			cfg := insertOnlyCongestedConfig(32, src)
			_, rep := run(t, cfg)
			if rep.CongestEst.Max < 0.2 {
				t.Errorf("congestion estimate max %g behind a 25ms/tx orderer, want alarmed", rep.CongestEst.Max)
			}
			if rep.ConflictEst.Max > 0.05 {
				t.Errorf("conflict estimate max %g on an insert-only workload, want ~0", rep.ConflictEst.Max)
			}
			if rep.FailurePct > 1 {
				t.Errorf("failure rate %g%% on insert-only: the workload is supposed to be conflict-free", rep.FailurePct)
			}
		})
	}
}

// TestSplitGossipFixesMisPacing pins the tentpole bugfix end-to-end:
// with the scalar signal, a gossip-paced contention-bound run pours
// conflict failures into the pacer and stalls fresh load even though
// the orderer is idle; the split signal routes conflicts to backoff
// and keeps the pacer quiet.
func TestSplitGossipFixesMisPacing(t *testing.T) {
	scalar := splitStackConfig(33, HintGossip)
	scalar.SplitSignal = nil
	_, scalarRep := run(t, scalar)
	if scalarRep.Paced.Sum < 10*time.Second {
		t.Fatalf("scalar gossip pacing spent only %v paced: the mis-pacing this PR fixes should dwarf that", scalarRep.Paced.Sum)
	}

	_, splitRep := run(t, splitStackConfig(33, HintGossip))
	if splitRep.Paced.Sum > scalarRep.Paced.Sum/100 {
		t.Errorf("split gossip still paced %v (scalar %v): conflicts are driving the pacer",
			splitRep.Paced.Sum, scalarRep.Paced.Sum)
	}
	if splitRep.AvgEndToEnd >= scalarRep.AvgEndToEnd {
		t.Errorf("split end-to-end %v did not improve on scalar %v",
			splitRep.AvgEndToEnd, scalarRep.AvgEndToEnd)
	}
}

// TestSplitRunsDeterministic repeats a split-signal run and requires
// identical reports: the split path must draw only from the seeded rng
// like every other subsystem (the corpus's split-both regime).
func TestSplitRunsDeterministic(t *testing.T) { deterministic(t, "split-both") }

// TestSplitNilIsByteIdentical asserts the zero-config guarantee: every
// regime of the corpus whose control stack runs no split signal —
// scalar coordination runs among them — leaves the split trajectories
// at exactly zero.
func TestSplitNilIsByteIdentical(t *testing.T) {
	fillCorpus()
	scalar := 0
	for _, g := range regimes {
		r := runOf(t, g.name)
		if r.ctl.SplitSignal != nil {
			continue
		}
		scalar++
		if r.rep.ConflictEst != (metrics.Series[float64]{}) || r.rep.CongestEst != (metrics.Series[float64]{}) {
			t.Errorf("%s: scalar run left split trajectories non-zero: conflict %+v, congestion %+v",
				g.name, r.rep.ConflictEst, r.rep.CongestEst)
		}
	}
	if scalar == 0 {
		t.Error("no scalar regime in the corpus")
	}
}
