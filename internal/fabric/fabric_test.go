package fabric

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/chaincodes/dv"
	"repro/internal/chaincodes/ehr"
	"repro/internal/gen"
	"repro/internal/ledger"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/statedb"
)

// testConfig is a short C1-style run with the EHR chaincode.
func testConfig(seed int64) Config {
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.Duration = 20 * time.Second
	cfg.Drain = 20 * time.Second
	cfg.Rate = 50
	cfg.BlockSize = 50
	cfg.Chaincode = ehr.New()
	cfg.Workload = ehr.NewWorkload(1)
	return cfg
}

func run(t *testing.T, cfg Config) (*Network, metrics.Report) {
	t.Helper()
	nw, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return nw, nw.Run()
}

// TestVanillaRunProducesTraffic reads the corpus's fire-and-forget
// regime; checkRun verified its chain.
func TestVanillaRunProducesTraffic(t *testing.T) {
	rep := checked(t, "fire-and-forget").rep
	if rep.Total < 500 {
		t.Fatalf("only %d transactions in 20s at 50tps", rep.Total)
	}
	if rep.Valid == 0 {
		t.Fatal("no valid transactions")
	}
	if rep.Counts[ledger.MVCCConflictInterBlock]+rep.Counts[ledger.MVCCConflictIntraBlock] == 0 {
		t.Error("EHR at 50tps over 200 hot keys should produce MVCC conflicts")
	}
	if rep.Blocks == 0 {
		t.Fatal("no blocks committed")
	}
	if rep.AvgLatency <= 0 || rep.Throughput <= 0 {
		t.Errorf("latency %v throughput %v", rep.AvgLatency, rep.Throughput)
	}
}

// TestDeterministicAcrossRuns: the same seed reproduces a
// fire-and-forget run and another seed does not (the corpus's
// fire-and-forget regime, which also runs at Seed+1).
func TestDeterministicAcrossRuns(t *testing.T) {
	a := deterministic(t, "fire-and-forget")
	if c := a.reseeded; a.rep.Total == c.Total && a.rep.Valid == c.Valid && a.rep.AvgLatency == c.AvgLatency {
		t.Error("different seeds produced identical runs")
	}
}

func TestInsertOnlyWorkloadHasNoMVCCConflicts(t *testing.T) {
	cfg := testConfig(3)
	spec := gen.GenChainSpec()
	spec.Keys = 2000
	cfg.Chaincode = gen.MustChaincode(spec)
	cfg.Workload = gen.NewWorkload(spec, gen.Mix{Insert: 100}, 0)
	cfg.DBKind = statedb.LevelDB
	_, rep := run(t, cfg)
	if rep.Counts[ledger.MVCCConflictInterBlock]+rep.Counts[ledger.MVCCConflictIntraBlock] != 0 {
		t.Errorf("insert-only workload hit MVCC conflicts: %v", rep)
	}
	if rep.Counts[ledger.PhantomReadConflict] != 0 {
		t.Errorf("insert-only workload hit phantoms: %v", rep)
	}
	if rep.Valid < rep.Total*9/10 {
		t.Errorf("insert-only workload mostly failing: %v", rep)
	}
}

func TestReadOnlyWorkloadAllValid(t *testing.T) {
	cfg := testConfig(4)
	spec := gen.GenChainSpec()
	spec.Keys = 2000
	cfg.Chaincode = gen.MustChaincode(spec)
	cfg.Workload = gen.NewWorkload(spec, gen.Mix{Read: 100}, 1)
	cfg.DBKind = statedb.LevelDB
	_, rep := run(t, cfg)
	if rep.FailurePct > 1 {
		t.Errorf("read-only workload failed %.2f%%", rep.FailurePct)
	}
}

func TestPolicyP3CollectsQuorum(t *testing.T) {
	cfg := testConfig(6)
	cfg.Orgs = 4
	cfg.PeersPerOrg = 2
	cfg.Policy = policy.P3
	nw, rep := run(t, cfg)
	if rep.Valid == 0 {
		t.Fatal("no valid transactions under P3")
	}
	// Every committed tx should carry quorum endorsements (3 of 4)
	// unless stripped; check via the chain's validation codes only.
	if err := nw.Chain().Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestStrippedRangeChainIsNotReportedTampered is the regression for the
// false tamper report: on a range-reading (DV) run at the default
// config, StripAfterCommit frees observations the block hashes cover,
// and Verify on that healthy chain used to answer "hash mismatch". It
// must name the stripping instead; the same run with stripping off
// verifies. The marker must not cost the transaction its size class.
func TestStrippedRangeChainIsNotReportedTampered(t *testing.T) {
	dvConfig := func() Config {
		cfg := testConfig(11)
		cfg.Duration, cfg.Drain = 5*time.Second, 10*time.Second
		cfg.Chaincode = dv.New()
		cfg.Workload = dv.NewWorkload(1)
		return cfg
	}
	cfg := dvConfig()
	if !cfg.StripAfterCommit {
		t.Fatal("StripAfterCommit is no longer the default: this test pins the default config")
	}
	nw, rep := run(t, cfg)
	if rep.Committed == 0 {
		t.Fatal("no transactions committed")
	}
	err := nw.Chain().Verify()
	if !errors.Is(err, ledger.ErrStripped) {
		t.Errorf("Verify on a healthy stripped DV chain = %v, want ledger.ErrStripped", err)
	}
	kept := dvConfig()
	kept.StripAfterCommit = false
	nw, _ = run(t, kept)
	if err := nw.Chain().Verify(); err != nil {
		t.Errorf("unstripped DV chain does not verify: %v", err)
	}
	if size := unsafe.Sizeof(ledger.Transaction{}); size > 128 {
		t.Errorf("ledger.Transaction is %d bytes, outgrew its 128-byte size class", size)
	}
}

func TestConfigValidation(t *testing.T) {
	// want is a fragment of the expected message: each names the unit
	// and the offending value.
	bad := []struct {
		want   string
		mutate func(*Config)
	}{
		{"need >=2 orgs, got 1", func(c *Config) { c.Orgs = 1 }},
		{"need >=1 peer per org, got 0 peers", func(c *Config) { c.PeersPerOrg = 0 }},
		{"need >=1 orderer, got 0 orderers", func(c *Config) { c.Orderers = 0 }},
		{"need >=1 client, got -1 clients", func(c *Config) { c.Clients = -1 }},
		{"block size must be >= 1 transaction, got 0 transactions", func(c *Config) { c.BlockSize = 0 }},
		{"block timeout must be > 0 of virtual time, got 0s", func(c *Config) { c.BlockTimeout = 0 }},
		{"arrival rate must be a finite rate > 0 tps, got 0", func(c *Config) { c.Rate = 0 }},
		{"duration must be > 0 of virtual time, got -1s", func(c *Config) { c.Duration = -time.Second }},
		{"chaincode not set", func(c *Config) { c.Chaincode = nil }},
		{"workload not set", func(c *Config) { c.Workload = nil }},
		{"speed factor must be a finite factor > 0 (1 = unscaled), got 0", func(c *Config) { c.SpeedFactor = 0 }},
		{"in-flight window must be >= 0 transactions per client (0 = 1), got -2", func(c *Config) { c.InFlightPerClient = -2 }},
		{"channel count must be >= 0", func(c *Config) { c.Channels = -1 }},
		{"cohort size must be >= 0 clients per cohort", func(c *Config) { c.CohortSize = -1 }},
		{"cross-channel fraction must be in [0,1), got 1", func(c *Config) { c.Channels, c.CrossChannel = 2, 1 }},
		{"cross-channel fraction 0.1 needs >= 2 channels, got 1", func(c *Config) { c.Channels, c.CrossChannel = 1, 0.1 }},
		{"supports only the vanilla fabric-1.4 variant", func(c *Config) { c.Channels, c.Variant = 2, namedVariant{name: "fabric++"} }},
		{"think time needs a positive mean, got 0s", func(c *Config) { c.ThinkTime = ThinkTime{Kind: ThinkFixed} }},
		// Each of these used to be accepted: the first nil-dereferenced
		// mid-run, the last ended the run before its send window.
		{"give-up-after wraps no retry policy", func(c *Config) { c.Retry = GiveUpAfter(nil, 3) }},
		{"retry cap must be >= 1 submission, got 0", func(c *Config) { c.Retry = GiveUpAfter(NoRetry{}, 0) }},
		{"delayed org index 7 out of range for 2 orgs; -1 = none", func(c *Config) { c.DelayOrg = 7 }},
		{"delayed org index -2 out of range", func(c *Config) { c.DelayOrg = -2 }},
		{"drain must be >= 0 of virtual time, got -2s", func(c *Config) { c.Drain = -2 * time.Second }},
	}
	for i, c := range bad {
		cfg := testConfig(1)
		c.mutate(&cfg)
		if _, err := NewNetwork(cfg); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("case %d: NewNetwork = %v, want an error containing %q", i, err, c.want)
		}
	}
}

// namedVariant is the vanilla variant under another name.
type namedVariant struct {
	Vanilla
	name string
}

func (v namedVariant) Name() string { return v.name }

// TestControlValidate has one row per control rule. Every row must fail
// the same way through Config.Validate, and the zero Control and a full
// valid stack must pass both.
func TestControlValidate(t *testing.T) {
	for _, ok := range []Control{
		{},
		{Retry: GiveUpAfter(ExponentialBackoff{}, 1), RetryBudget: &RetryBudget{}, Backpressure: &Backpressure{},
			Gossip: &Gossip{}, HintSource: HintBoth, SplitSignal: &SplitSignal{}},
		// Inert on a fire-and-forget run, not invalid (see Control).
		{Gossip: &Gossip{}, HintSource: HintGossip, SplitSignal: &SplitSignal{}, RetryBudget: &RetryBudget{}},
	} {
		cfg := testConfig(1)
		cfg.Control = ok
		if err := ok.Validate(); err != nil {
			t.Errorf("%+v: Control.Validate = %v, want nil", ok, err)
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("%+v: Config.Validate = %v, want nil", ok, err)
		}
	}
	for _, c := range []struct {
		name, want string
		ctl        Control
	}{
		{"policy", "backoff jitter must be a finite fraction >= 0, got -1", Control{Retry: ExponentialBackoff{Jitter: -1}}},
		{"cap without policy", "give-up-after wraps no retry policy", Control{Retry: GiveUpAfter(nil, 3)}},
		{"nested cap without policy", "give-up-after wraps no retry policy", Control{Retry: GiveUpAfter(GiveUpAfter(nil, 3), 2)}},
		{"zero cap", "retry cap must be >= 1 submission, got 0", Control{Retry: GiveUpAfter(ImmediateRetry{}, 0)}},
		{"capped policy", "decrease step", Control{Retry: GiveUpAfter(AdaptivePolicy{Decrease: -2}, 3)}},
		{"budget", "refill rate must be a finite rate >= 0 tokens/s, got -1", Control{RetryBudget: &RetryBudget{RefillPerSec: -1}}},
		{"gossip", "gossip period must be >= 0, got -1s", Control{Gossip: &Gossip{Period: -time.Second}}},
		{"hint source", `hint source "fleet": want orderer, gossip or both`, Control{HintSource: "fleet"}},
		{"hint source without mesh", `hint source "gossip" needs Config.Gossip`, Control{HintSource: HintGossip}},
		{"both without mesh", `hint source "both" needs Config.Gossip`, Control{HintSource: HintBoth, Backpressure: &Backpressure{}}},
	} {
		cfg := testConfig(1)
		cfg.Control = c.ctl
		for via, err := range map[string]error{"Control": c.ctl.Validate(), "Config": cfg.Validate()} {
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s: %s.Validate = %v, want an error containing %q", c.name, via, err, c.want)
			}
		}
	}
}

// TestResolveDropsInertSubsystems pins the outcome-tracking rule in the
// one place it is implemented: without a retry policy or closed loop the
// client-side subsystems resolve to nil, the orderer's hint survives,
// and with tracking every configured subsystem comes back defaulted.
func TestResolveDropsInertSubsystems(t *testing.T) {
	full := Control{RetryBudget: &RetryBudget{}, Backpressure: &Backpressure{}, Gossip: &Gossip{},
		HintSource: HintBoth, SplitSignal: &SplitSignal{}}
	r := full.resolve(false)
	if _, none := r.Retry.(NoRetry); !none || r.tracking {
		t.Errorf("fire-and-forget resolved to retry %v, tracking %v", r.Retry, r.tracking)
	}
	if r.RetryBudget != nil || r.Gossip != nil || r.SplitSignal != nil {
		t.Errorf("inert subsystems survived: %+v", r.Control)
	}
	if !r.ordererFeeds || r.gossipFeeds {
		t.Errorf("orderer hint must survive alone: orderer=%v gossip=%v", r.ordererFeeds, r.gossipFeeds)
	}
	for _, r := range []resolvedControl{
		full.resolve(true),
		func() resolvedControl { c := full; c.Retry = ImmediateRetry{}; return c.resolve(false) }(),
	} {
		if !r.tracking || r.RetryBudget == nil || r.Gossip.Fanout != 2 || r.SplitSignal == nil {
			t.Errorf("tracked stack not defaulted: %+v", r)
		}
	}
	if full.Gossip.Fanout != 0 {
		t.Error("resolve wrote through the caller's pointers")
	}
}

func TestPeersConvergeAfterDrain(t *testing.T) {
	nw, _ := run(t, testConfig(9))
	want := nw.metricsPeer().CommittedBlocks()
	if want == 0 {
		t.Fatal("metrics peer committed nothing")
	}
	for _, p := range nw.Peers() {
		if p.CommittedBlocks() != want {
			t.Errorf("peer %s committed %d blocks, metrics peer %d",
				p.Name(), p.CommittedBlocks(), want)
		}
	}
}

func TestEndorsementFailuresAppear(t *testing.T) {
	// Over a long enough window with hot keys, replica skew produces
	// endorsement policy failures (18 of 1998 on this seed). Endorsers
	// share simulations while their replicas agree (see proposal), so
	// their absence would mean the sharing hides replica skew.
	cfg := testConfig(10)
	cfg.Duration = 40 * time.Second
	cfg.Drain = 20 * time.Second
	_, rep := run(t, cfg)
	if rep.Counts[ledger.EndorsementPolicyFailure] == 0 {
		t.Error("no endorsement policy failures in this window")
	}
	t.Logf("report: %v", rep)
}

// Transaction ids feed the block hash: the hand-built form may not
// differ from the Sprintf it replaced by one byte, on either side of
// both pad widths.
func TestTxIDMatchesSprintf(t *testing.T) {
	for _, seq := range []uint64{1, 9, 10, 99_999_999, 100_000_000, 1<<64 - 1} {
		for _, client := range []int{0, 9, 10, 99, 100, 999_999} {
			if got, want := txID(seq, client), fmt.Sprintf("tx%08d-c%02d", seq, client); got != want {
				t.Errorf("txID(%d, %d) = %q, want %q", seq, client, got, want)
			}
		}
	}
	if n := testing.AllocsPerRun(100, func() { txID(12345, 7) }); n != 1 {
		t.Errorf("txID allocates %.0f objects, want 1", n)
	}
}
