package fabric

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chaincode"
	"repro/internal/chaincodes/drm"
	"repro/internal/chaincodes/dv"
	"repro/internal/chaincodes/ehr"
	"repro/internal/chaincodes/scm"
	"repro/internal/gen"
	"repro/internal/ledger"
	"repro/internal/metrics"
	"repro/internal/netem"
	"repro/internal/statedb"
	"repro/internal/workload"
)

// The regime corpus is the set of whole-network runs every run oracle
// holds over. Each regime is a named Config, simulated once per test
// binary with StripAfterCommit off and held to checkRun and to its
// engagement predicate, then simulated again at the same seed with
// stripping on: the rerun must equal the first run, report and chain
// tips alike, which pins determinism and shows that stripping changes
// nothing. Regimes are filled lazily, each the first time a test asks
// for it; the tests that used to build these networks read them here.

// regime is one named configuration of the corpus.
type regime struct {
	name string
	// cfg builds the configuration afresh for every run: chaincodes,
	// workloads and variants carry state.
	cfg func() Config
	// engaged reads off the report that the run exercised what the
	// regime is for, so a regime that silently does nothing fails.
	engaged predicate
	// reseed adds one run at Seed+1, for the tests that pin that the
	// seed matters.
	reseed bool

	once sync.Once
	run  *regimeRun
}

// predicate is an engagement check and the words for it.
type predicate struct {
	what  string
	holds func(metrics.Report) bool
}

// regimeRun is what the corpus keeps of a regime: the first run's
// report and what the views read off its network, which is not kept.
type regimeRun struct {
	rep  metrics.Report
	tips []tip
	ctl  resolvedControl
	// fingerprint is fingerprint of the first run (cohort_test.go).
	fingerprint string
	// build is NewNetwork's error: nothing ran.
	build error
	// check is checkRun's first violation or the unmet predicate.
	check error
	// rerun says how the StripAfterCommit rerun differs from the first run.
	rerun error
	// reseeded is the report of the run at Seed+1 (reseed regimes only).
	reseeded metrics.Report
}

var (
	contended = predicate{"MVCC conflicts > 0", func(r metrics.Report) bool {
		return r.Counts[ledger.MVCCConflictInterBlock]+r.Counts[ledger.MVCCConflictIntraBlock] > 0
	}}
	amplified = predicate{"retry amplification > 1", func(r metrics.Report) bool { return r.RetryAmplification > 1 }}
	gossips   = predicate{"gossip messages > 0", func(r metrics.Report) bool { return r.GossipMessages > 0 }}
	adapts    = predicate{"an adaptive backoff trajectory", func(r metrics.Report) bool { return r.Backoff.Max > 0 }}
	hinted    = predicate{"orderer hint max > 0", func(r metrics.Report) bool { return r.Hint.Max > 0 }}
	consulted = predicate{"gossip estimate consulted (staleness samples > 0)", func(r metrics.Report) bool { return r.GossipStaleness.N > 0 }}
	splits    = predicate{"conflict-estimate samples > 0", func(r metrics.Report) bool { return r.ConflictEst.N > 0 }}
)

// windows is the predicate of a fault regime: n windows opened.
func windows(n int) predicate {
	return predicate{fmt.Sprintf("%d fault windows", n), func(r metrics.Report) bool { return r.FaultWindows == n }}
}

// hintModes are the regimes of every retry/coordination mode the lab
// supports — client-local, budgeted, orderer-hinted, gossip-hinted,
// combined, and closed-loop pacing — at seed 21; the hinted ones run
// behind a congested orderer (25 ms of CPU per transaction).
func hintModes() []*regime {
	congest := func(cfg Config) Config {
		cfg.OrdererCosts.PerTx = 25 * time.Millisecond
		return cfg
	}
	hintedCfg := func(p RetryPolicy, src HintSource, split bool) Config {
		cfg := congest(retryConfig(21, p))
		cfg.Backpressure = &Backpressure{}
		if src != "" && src != HintOrderer {
			cfg.Gossip = &Gossip{}
		}
		cfg.HintSource = src
		if split {
			cfg.SplitSignal = &SplitSignal{}
		}
		return cfg
	}
	bp := BackpressurePolicy{MaxAttempts: 5, Jitter: 0.2}
	both := predicate{"orderer hint and gossip estimate max > 0", func(r metrics.Report) bool {
		return r.Hint.Max > 0 && r.GossipEstimate.Max > 0
	}}
	return []*regime{
		{name: "fire-and-forget", cfg: func() Config { return testConfig(21) }, engaged: contended, reseed: true},
		{name: "immediate", cfg: func() Config { return retryConfig(21, ImmediateRetry{MaxAttempts: 3}) }, engaged: amplified},
		{name: "backoff", cfg: func() Config {
			return retryConfig(21, ExponentialBackoff{Initial: 100 * time.Millisecond, Cap: time.Second, MaxAttempts: 4, Jitter: 0.2})
		}, engaged: amplified},
		{name: "adaptive", cfg: func() Config { return retryConfig(21, AdaptivePolicy{MaxAttempts: 5, Jitter: 0.2}) }, engaged: adapts},
		{name: "budgeted", cfg: func() Config {
			cfg := retryConfig(21, ImmediateRetry{MaxAttempts: 5})
			cfg.RetryBudget = &RetryBudget{RefillPerSec: 1, Burst: 3, DropOnEmpty: true}
			return cfg
		}, engaged: predicate{"budget exhausted > 0", func(r metrics.Report) bool { return r.BudgetExhausted > 0 }}},
		{name: "hinted-orderer", cfg: func() Config { return hintedCfg(bp, "", false) }, engaged: hinted},
		{name: "hinted-gossip", cfg: func() Config { return hintedCfg(bp, HintGossip, false) }, engaged: consulted, reseed: true},
		{name: "hinted-both", cfg: func() Config { return hintedCfg(bp, HintBoth, false) }, engaged: both},
		{name: "closedloop-paced-gossip", cfg: func() Config {
			cfg := congest(testConfig(21))
			cfg.ClosedLoop = true
			cfg.InFlightPerClient = 8
			cfg.Backpressure = &Backpressure{}
			cfg.Gossip = &Gossip{}
			cfg.HintSource = HintGossip
			return cfg
		}, engaged: predicate{"paced submissions > 0", func(r metrics.Report) bool { return r.PacedSubmissions > 0 }}},
		{name: "split-gossip", cfg: func() Config { return hintedCfg(bp, HintGossip, true) }, engaged: splits},
		{name: "split-both", cfg: func() Config { return hintedCfg(bp, HintBoth, true) }, engaged: splits},
		{name: "split-adaptive-orderer", cfg: func() Config {
			cfg := hintedCfg(AdaptivePolicy{MaxAttempts: 5}, HintOrderer, true)
			cfg.Gossip = &Gossip{}
			return cfg
		}, engaged: splits},
	}
}

// corpusRegimes is the corpus this package defines. The fork variants
// import this package, so their regimes are added by the external
// tests (see AddRegime).
func corpusRegimes() []*regime {
	rs := hintModes()
	rs = append(rs,
		&regime{name: "leveldb", cfg: func() Config {
			cfg := testConfig(13)
			cfg.DBKind = statedb.LevelDB
			return cfg
		}, engaged: contended},
		&regime{name: "closedloop-lognormal", cfg: func() Config {
			cfg := closedConfig(10)
			cfg.ThinkTime = ThinkTime{Kind: ThinkLogNormal, Mean: 300 * time.Millisecond}
			return cfg
		}, engaged: predicate{"a closed loop: 0 < jobs < 500", func(r metrics.Report) bool { return r.Jobs > 0 && r.Jobs < 500 }}},
		&regime{name: "budget-defer", cfg: func() Config {
			return budgetConfig(3, RetryBudget{RefillPerSec: 1, Burst: 3})
		}, engaged: predicate{"deferred retries > 0", func(r metrics.Report) bool { return r.DeferredRetries > 0 }}},
		&regime{name: "budget-adaptive", cfg: func() Config {
			return budgetConfig(3, RetryBudget{RefillPerSec: 0.5, Burst: 2, DropOnEmpty: true, Adaptive: true})
		}, engaged: predicate{"budget exhausted > 0", func(r metrics.Report) bool { return r.BudgetExhausted > 0 }}},
		&regime{name: "served-reads", cfg: func() Config {
			cfg := retryConfig(7, ImmediateRetry{MaxAttempts: 2})
			cfg.SkipReadOnlySubmission = true
			return cfg
		}, engaged: predicate{"served reads > 0", func(r metrics.Report) bool { return r.ServedReads > 0 }}},
		&regime{name: "channels3-cross-cohort2", cfg: func() Config {
			cfg := retryConfig(6, ExponentialBackoff{Initial: 100 * time.Millisecond, Cap: time.Second, MaxAttempts: 3, Jitter: 0.2})
			cfg.Channels = 3
			cfg.CrossChannel = 0.2
			cfg.CohortSize = 2
			return cfg
		}, engaged: predicate{"more chain legs than attempts (cross-channel)", func(r metrics.Report) bool { return r.Total > r.Attempts }}},
		&regime{name: "channels4-cross-gossip", cfg: func() Config {
			cfg := retryConfig(11, BackpressurePolicy{MaxAttempts: 5, Jitter: 0.2})
			cfg.Channels = 4
			cfg.CrossChannel = 0.2
			cfg.Gossip = &Gossip{}
			cfg.HintSource = HintGossip
			return cfg
		}, engaged: predicate{"gossip messages and merges > 0", func(r metrics.Report) bool {
			return r.GossipMessages > 0 && r.GossipMerges > 0
		}}},
		&regime{name: "million-sharded", cfg: func() Config {
			cfg := DefaultConfig()
			cfg.Seed = 15
			cfg.Duration = 10 * time.Second
			cfg.Chaincode = ehr.New()
			cfg.Workload = ehr.NewWorkload(2)
			cfg.Rate = 200
			cfg.Clients = 1_000_000
			cfg.CohortSize = 10_000
			cfg.Channels = 4
			cfg.CrossChannel = 0.1
			return cfg
		}, engaged: predicate{"committed >= 1,500 (200 tps for 10 s)", func(r metrics.Report) bool { return r.Committed >= 1500 }}},
		&regime{name: "controlplane", cfg: func() Config { return controlPlaneConfig(33) },
			engaged: predicate{"gossip messages > 0 and retry amplification > 1", func(r metrics.Report) bool {
				return r.GossipMessages > 0 && r.RetryAmplification > 1
			}}},
	)
	for _, fanout := range []int{1, 2, 4} {
		fanout := fanout
		rs = append(rs, &regime{name: fmt.Sprintf("gossip-fanout%d", fanout), cfg: func() Config {
			cfg := retryConfig(14, ImmediateRetry{MaxAttempts: 3})
			cfg.OrdererCosts.PerTx = 25 * time.Millisecond // congest so the signal matters
			cfg.Backpressure = &Backpressure{}
			cfg.Gossip = &Gossip{Fanout: fanout}
			cfg.HintSource = HintGossip
			return cfg
		}, engaged: gossips})
	}
	for _, c := range []struct {
		name string
		mix  gen.Mix
		p    predicate
	}{
		{"genchain-update", gen.UpdateHeavy, contended},
		{"genchain-insert", gen.InsertHeavy, predicate{"valid > 0 and no MVCC conflict (inserts add fresh keys)", func(r metrics.Report) bool {
			return r.Valid > 0 && !contended.holds(r)
		}}},
		{"genchain-range", gen.RangeHeavy, predicate{"phantom conflicts > 0", func(r metrics.Report) bool {
			return r.Counts[ledger.PhantomReadConflict] > 0
		}}},
	} {
		c := c
		rs = append(rs, &regime{name: c.name, cfg: func() Config { return genChainConfig(31, c.mix) }, engaged: c.p})
	}
	rs = append(rs, &regime{name: "faults-none", cfg: func() Config { return faultConfig(3, nil) }, engaged: amplified})
	for _, sc := range []struct {
		name string
		n    int
	}{{"crash", 2}, {"partition", 1}, {"flaky", 1}, {"straggler", 1}, {"slowdb", 1}, {"chaos", 4}} {
		sc := sc
		rs = append(rs, &regime{name: "faults-" + sc.name, cfg: func() Config {
			return faultConfig(3, &Faults{Scenario: sc.name})
		}, engaged: windows(sc.n)})
	}
	rs = append(rs, &regime{name: "peer-crash", cfg: func() Config {
		return faultConfig(4, &Faults{
			Events:         []FaultEvent{{Kind: FaultCrashPeer, At: 5 * time.Second, For: 5 * time.Second, Target: 3}},
			EndorseTimeout: time.Second,
		})
	}, engaged: predicate{"one recovery", func(r metrics.Report) bool { return r.Recovery.N == 1 }}})
	// The metrics peer appends each block when it commits it: crashed, it
	// appends the blocks it missed as its restart replays them.
	rs = append(rs, &regime{name: "metrics-peer-crash", cfg: func() Config {
		return faultConfig(4, &Faults{
			Events:         []FaultEvent{{Kind: FaultCrashPeer, At: 5 * time.Second, For: 5 * time.Second, Target: 0}},
			EndorseTimeout: time.Second,
		})
	}, engaged: predicate{"one recovery", func(r metrics.Report) bool { return r.Recovery.N == 1 }}})
	for _, c := range []struct {
		name string
		cc   func() chaincode.Chaincode
		wl   func() workload.Generator
	}{
		{"ehr", func() chaincode.Chaincode { return ehr.New() }, func() workload.Generator { return ehr.NewWorkload(1) }},
		{"drm", func() chaincode.Chaincode { return drm.New() }, func() workload.Generator { return drm.NewWorkload(1) }},
		{"scm", func() chaincode.Chaincode { return scm.New() }, func() workload.Generator { return scm.NewWorkload(1) }},
		{"dv", func() chaincode.Chaincode { return dv.New() }, func() workload.Generator { return dv.NewWorkload(1) }},
	} {
		c := c
		rs = append(rs, &regime{name: "cohort-" + c.name, cfg: func() Config {
			cfg := cohortEquivConfig(11, 0)
			cfg.Chaincode, cfg.Workload = c.cc(), c.wl()
			return cfg
		}, engaged: predicate{"resubmissions (attempts > jobs)", func(r metrics.Report) bool { return r.Attempts > r.Jobs }}})
	}
	return rs
}

var regimes = corpusRegimes()

// get simulates the regime on first use.
func (g *regime) get() *regimeRun {
	g.once.Do(func() { g.run = g.simulate() })
	return g.run
}

// simulate runs the regime with StripAfterCommit off and checks the
// run (checkRun, then cutRecorder's check of the blocks the chains
// kept), then reruns it with stripping on (and at Seed+1 for a reseed
// regime). Only the first build can fail: the others differ from it in
// fields Validate does not read.
func (g *regime) simulate() *regimeRun {
	r := &regimeRun{}
	cfg := g.cfg()
	cfg.StripAfterCommit = false
	cuts := recordCuts(cfg.Variant)
	cfg.Variant = cuts
	nw, err := NewNetwork(cfg)
	if err != nil {
		r.build = err
		return r
	}
	genesis := snapshotGenesis(nw)
	r.rep = nw.Run()
	r.tips, r.ctl, r.fingerprint = tipsOf(nw), nw.ctl, fingerprint(nw, r.rep)
	r.check = checkRun(nw, r.rep, genesis)
	if r.check == nil {
		r.check = cuts.check(nw)
	}
	if r.check == nil && !g.engaged.holds(r.rep) {
		r.check = fmt.Errorf("the run did not engage: want %s", g.engaged.what)
	}
	cfg = g.cfg()
	cfg.StripAfterCommit = true
	again, _ := NewNetwork(cfg)
	if err := sameRun(r.rep, r.tips, again.Run(), tipsOf(again)); err != nil {
		r.rerun = fmt.Errorf("the rerun with StripAfterCommit on differs: %v", err)
	}
	if g.reseed {
		cfg = g.cfg()
		cfg.Seed++
		other, _ := NewNetwork(cfg)
		r.reseeded = other.Run()
	}
	return r
}

// findRegime returns the named regime of the corpus, or nil.
func findRegime(name string) *regime {
	for _, g := range regimes {
		if g.name == name {
			return g
		}
	}
	return nil
}

// runOf fills the named regime and returns its runs.
func runOf(t testing.TB, name string) *regimeRun {
	t.Helper()
	g := findRegime(name)
	if g == nil {
		t.Fatalf("no regime %q in the corpus", name)
	}
	r := g.get()
	if r.build != nil {
		t.Fatalf("%s: %v", name, r.build)
	}
	return r
}

// checked fails t unless the named regime's first run passed checkRun
// and its engagement predicate.
func checked(t testing.TB, name string) *regimeRun {
	t.Helper()
	r := runOf(t, name)
	if r.check != nil {
		t.Errorf("%s: %v", name, r.check)
	}
	return r
}

// deterministic fails t unless the named regime's rerun equals its
// first run.
func deterministic(t testing.TB, name string) *regimeRun {
	t.Helper()
	r := runOf(t, name)
	if r.rerun != nil {
		t.Errorf("%s: %v", name, r.rerun)
	}
	return r
}

// tip is the last block of one channel's chain.
type tip struct {
	number uint64
	hash   [32]byte
}

// tipsOf returns every channel's tip.
func tipsOf(nw *Network) []tip {
	tips := make([]tip, len(nw.chains))
	for ch, chain := range nw.chains {
		b := chain.Block(chain.Height() - 1)
		tips[ch] = tip{b.Number, b.Hash}
	}
	return tips
}

// sameRun says how run b differs from run a: the reports, compared with
// reflect.DeepEqual and named field by field (values cut to 60
// characters), then every channel's tip hash. It returns nil for
// identical runs.
func sameRun(ra metrics.Report, ta []tip, rb metrics.Report, tb []tip) error {
	if !reflect.DeepEqual(ra, rb) {
		va, vb := reflect.ValueOf(ra), reflect.ValueOf(rb)
		var diff []string
		for i := 0; i < va.NumField(); i++ {
			if x, y := va.Field(i).Interface(), vb.Field(i).Interface(); !reflect.DeepEqual(x, y) {
				diff = append(diff, fmt.Sprintf("%s %s vs %s", va.Type().Field(i).Name, clip(x), clip(y)))
			}
		}
		return fmt.Errorf("reports differ: %s", strings.Join(diff, "; "))
	}
	if len(ta) != len(tb) {
		return fmt.Errorf("%d channels vs %d", len(ta), len(tb))
	}
	for ch, x := range ta {
		if y := tb[ch]; x != y {
			return fmt.Errorf("channel %d: tip %x at block %d vs %x at block %d", ch, x.hash[:8], x.number, y.hash[:8], y.number)
		}
	}
	return nil
}

// clip prints v in at most 60 characters.
func clip(v any) string {
	s := fmt.Sprint(v)
	if len(s) > 60 {
		s = s[:57] + "..."
	}
	return s
}

// forEach runs f on every item, at most GOMAXPROCS at a time.
func forEach[T any](items []T, f func(T)) {
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for _, it := range items {
		wg.Add(1)
		sem <- struct{}{}
		go func(it T) {
			defer wg.Done()
			f(it)
			<-sem
		}(it)
	}
	wg.Wait()
}

// fillCorpus fills every regime.
func fillCorpus() { forEach(regimes, func(g *regime) { g.get() }) }

// TestRegimeCorpus holds every regime to checkRun, to its engagement
// predicate and to its rerun.
func TestRegimeCorpus(t *testing.T) {
	fillCorpus()
	for _, g := range regimes {
		g := g
		t.Run(g.name, func(t *testing.T) {
			checked(t, g.name)
			deterministic(t, g.name)
		})
	}
}

// pin is a metamorphic pin: a change to a regime's configuration that
// must not change the run. The varied run (StripAfterCommit on) must
// equal the regime's first run, report and chain tips alike.
type pin struct {
	name, base string
	vary       func(*Config)
	// ignore clears, on both reports, what the change may move.
	ignore func(*metrics.Report)

	once sync.Once
	run  *pinRun
}

// pinRun is the varied run and how it differs from the base.
type pinRun struct {
	rep metrics.Report
	// members is each client driver's member count.
	members []int
	// build is the error that kept either run from being built.
	build error
	diff  error
}

// lateFaults schedules one window of every fault kind, all opening a
// second after the run ends, with or without client deadlines.
func lateFaults(deadlines bool) func(*Config) {
	return func(cfg *Config) {
		late := cfg.Duration + cfg.Drain + time.Second
		f := &Faults{Events: []FaultEvent{
			{Kind: FaultCrashPeer, At: late, For: time.Second, Target: 1},
			{Kind: FaultCrashOrderer, At: late, For: time.Second},
			{Kind: FaultPartition, At: late, For: time.Second, Target: 1},
			{Kind: FaultStraggler, At: late, For: time.Second, Extra: netem.Link{Base: 100 * time.Millisecond}},
			{Kind: FaultLoss, At: late, For: time.Second, Factor: 0.5},
			{Kind: FaultSlowDB, At: late, For: time.Second, Factor: 4},
		}}
		if deadlines {
			f.EndorseTimeout, f.SubmitTimeout = time.Second, 4*time.Second
		}
		cfg.Faults = f
	}
}

var pins = []*pin{
	// Without outcome tracking the client-side subsystems resolve away:
	// no rounds, no rng draws, no events.
	{name: "gossip-inert-without-tracking", base: "fire-and-forget", vary: func(c *Config) { c.Gossip = &Gossip{} }},
	{name: "budget-ignored-without-retry-policy", base: "fire-and-forget", vary: func(c *Config) {
		c.RetryBudget = &RetryBudget{RefillPerSec: 1, Burst: 1, DropOnEmpty: true}
	}},
	{name: "think-time-ignored-in-open-loop", base: "fire-and-forget", vary: func(c *Config) {
		c.ThinkTime = ThinkTime{Kind: ThinkFixed, Mean: 10 * time.Second}
	}},
	// The orderer still computes its hint at every cut, so the hint
	// summary is the one thing allowed to move.
	{name: "backpressure-inert-without-tracking", base: "fire-and-forget", vary: func(c *Config) { c.Backpressure = &Backpressure{} },
		ignore: func(r *metrics.Report) { r.Hint = metrics.Series[float64]{} }},
	{name: "hint-source-orderer-is-the-default", base: "hinted-orderer", vary: func(c *Config) { c.HintSource = HintOrderer }},
	// Cohort drivers make exactly the exact simulation's decisions in
	// the locked regime (cohortEquivConfig), on every chaincode.
	{name: "cohort-equals-exact/ehr", base: "cohort-ehr", vary: func(c *Config) { c.CohortSize = 3 }},
	{name: "cohort-equals-exact/drm", base: "cohort-drm", vary: func(c *Config) { c.CohortSize = 3 }},
	{name: "cohort-equals-exact/scm", base: "cohort-scm", vary: func(c *Config) { c.CohortSize = 3 }},
	{name: "cohort-equals-exact/dv", base: "cohort-dv", vary: func(c *Config) { c.CohortSize = 3 }},
	{name: "one-channel-equals-unsharded", base: "backoff", vary: func(c *Config) { c.Channels, c.CrossChannel = 1, 0 }},
	{name: "faults-after-the-run-equal-none", base: "backoff", vary: lateFaults(false)},
	{name: "faults-after-the-run-equal-none/deadlines", base: "backoff", vary: lateFaults(true)},
}

// get runs the varied configuration on first use.
func (p *pin) get() *pinRun {
	p.once.Do(func() {
		g := findRegime(p.base)
		if g == nil {
			p.run = &pinRun{build: fmt.Errorf("no regime %q in the corpus", p.base)}
			return
		}
		base := g.get()
		cfg := g.cfg()
		p.vary(&cfg)
		nw, err := NewNetwork(cfg)
		if base.build != nil || err != nil {
			p.run = &pinRun{build: fmt.Errorf("base: %v; varied: %v", base.build, err)}
			return
		}
		p.run = &pinRun{rep: nw.Run()}
		for _, d := range nw.drivers {
			p.run.members = append(p.run.members, d.members)
		}
		a, b := base.rep, p.run.rep
		if p.ignore != nil {
			p.ignore(&a)
			p.ignore(&b)
		}
		p.run.diff = sameRun(a, base.tips, b, tipsOf(nw))
	})
	return p.run
}

// pinned fails t unless the named pin holds, and returns its varied run.
func pinned(t testing.TB, name string) *pinRun {
	t.Helper()
	for _, p := range pins {
		if p.name == name {
			r := p.get()
			if r.build != nil {
				t.Fatalf("%s: %v", name, r.build)
			}
			if r.diff != nil {
				t.Errorf("%s: the varied run differs from %s: %v", name, p.base, r.diff)
			}
			return r
		}
	}
	t.Fatalf("no pin %q", name)
	return nil
}

// TestMetamorphicPins holds every pin.
func TestMetamorphicPins(t *testing.T) {
	forEach(pins, func(p *pin) { p.get() })
	for _, p := range pins {
		p := p
		t.Run(p.name, func(t *testing.T) { pinned(t, p.name) })
	}
}
