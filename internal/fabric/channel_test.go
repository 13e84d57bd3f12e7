package fabric

import (
	"math"
	"strings"
	"testing"
)

// TestMultiChannelShardsTraffic runs a 4-channel deployment and
// checks the structural invariants of sharding: every channel's chain
// verifies independently, the per-channel commits add up to the
// collector's view, and the keyspace hash actually spreads load over
// more than one channel.
func TestMultiChannelShardsTraffic(t *testing.T) {
	cfg := testConfig(1)
	cfg.Channels = 4
	nw, rep := run(t, cfg)

	chains := nw.Chains()
	if len(chains) != 4 {
		t.Fatalf("chains = %d, want 4", len(chains))
	}
	committed, active := 0, 0
	for ch, chain := range chains {
		if err := chain.Verify(); err != nil {
			t.Errorf("channel %d chain verification: %v", ch, err)
		}
		n := 0
		for _, b := range chain.Blocks() {
			if b.Channel != ch {
				t.Errorf("channel %d chain holds a block stamped channel %d", ch, b.Channel)
			}
			n += len(b.Transactions)
		}
		committed += n
		if n > 0 {
			active++
		}
	}
	if committed != rep.Committed {
		t.Errorf("per-channel commits %d != collector committed %d", committed, rep.Committed)
	}
	if active < 2 {
		t.Errorf("only %d of 4 channels saw traffic: the keyspace hash is not spreading", active)
	}
	if len(nw.Orderers()) != 4 {
		t.Errorf("orderers = %d, want one service per channel", len(nw.Orderers()))
	}
}

// TestMultiChannelDeterminism pins the sharded deployment to the
// repo's core guarantee: the same seed reproduces the same run,
// cross-channel legs and cohort drivers included (the corpus's
// channels3-cross-cohort2 regime).
func TestMultiChannelDeterminism(t *testing.T) { deterministic(t, "channels3-cross-cohort2") }

// TestCrossChannelLegsResolve checks the two-leg transaction pattern:
// with a large cross-channel fraction every job still resolves to
// exactly one outcome (both legs valid = success, any failed leg =
// one failed attempt), so the job accounting stays conserved.
func TestCrossChannelLegsResolve(t *testing.T) {
	cfg := retryConfig(8, ImmediateRetry{MaxAttempts: 3})
	cfg.Channels = 2
	cfg.CrossChannel = 0.5
	_, rep := run(t, cfg)

	if rep.Jobs == 0 {
		t.Fatal("no jobs resolved")
	}
	if rep.EventualValid+rep.GaveUp != rep.Jobs {
		t.Errorf("job conservation broken: eventual %d + gave-up %d != jobs %d",
			rep.EventualValid, rep.GaveUp, rep.Jobs)
	}
	// Two-leg transactions commit on two chains, so chain-side totals
	// exceed the logical attempt count — but the client-side job view
	// must stay one outcome per job.
	if rep.RetryAmplification < 1 {
		t.Errorf("amplification %.2f < 1", rep.RetryAmplification)
	}
}

// TestChannelRouting pins the routing function: deterministic per
// invocation, in range, constant for single-channel runs, and spread
// across channels for realistic workloads.
func TestChannelRouting(t *testing.T) {
	cfg := testConfig(2)
	cfg.Channels = 4
	nw, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	rng := nw.Engine().Rand()
	for i := 0; i < 200; i++ {
		inv := cfg.Workload.Next(rng)
		ch := nw.channelOf(inv)
		if ch < 0 || ch >= 4 {
			t.Fatalf("channelOf out of range: %d", ch)
		}
		if again := nw.channelOf(inv); again != ch {
			t.Fatalf("channelOf not deterministic: %d then %d", ch, again)
		}
		seen[ch] = true
	}
	if len(seen) < 2 {
		t.Errorf("200 draws landed on %d channel(s), want a spread", len(seen))
	}

	single := testConfig(2)
	nw1, err := NewNetwork(single)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if ch := nw1.channelOf(single.Workload.Next(nw1.Engine().Rand())); ch != 0 {
			t.Fatalf("single-channel run routed to channel %d", ch)
		}
	}
}

// TestCrossChannelGossipInteraction crosses the two decentralized
// subsystems: a 4-channel sharded deployment with 20% two-leg
// transactions, paced by the gossiped congestion signal
// (hinted-gossip). It reads the corpus's channels4-cross-gossip regime:
// the gossip rounds must run and merge (its predicate), every chain
// must verify and every channel commit (checkRun), the combination must
// stay deterministic (its rerun), and the job accounting must hold.
func TestCrossChannelGossipInteraction(t *testing.T) {
	checked(t, "channels4-cross-gossip")
	rep := deterministic(t, "channels4-cross-gossip").rep
	if rep.Jobs == 0 || rep.EventualValid+rep.GaveUp != rep.Jobs {
		t.Errorf("job conservation broken across channels: eventual %d + gave-up %d != jobs %d",
			rep.EventualValid, rep.GaveUp, rep.Jobs)
	}
}

// testVariant is a minimal non-vanilla Variant for validation tests.
type testVariant struct{ Vanilla }

func (testVariant) Name() string { return "test-variant" }

// TestValidateScaleKnobs table-tests Config.Validate over the scale
// knobs added with cohorts and sharding: channel count, cohort size
// and cross-channel fraction, including the unit-bearing messages and
// the single-channel-only restriction on stateful variants.
func TestValidateScaleKnobs(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Config)
		wantErr string // substring; "" = must validate
	}{
		{"defaults", func(c *Config) {}, ""},
		{"sharded cohorts", func(c *Config) {
			c.Channels = 16
			c.CrossChannel = 0.3
			c.CohortSize = 10
		}, ""},
		{"one channel explicit", func(c *Config) { c.Channels = 1 }, ""},
		{"negative channels", func(c *Config) { c.Channels = -1 },
			"channel count must be >= 0"},
		{"negative cohort size", func(c *Config) { c.CohortSize = -2 },
			"cohort size must be >= 0 clients per cohort"},
		{"cross-channel NaN", func(c *Config) {
			c.Channels = 2
			c.CrossChannel = math.NaN()
		}, "cross-channel fraction must be in [0,1)"},
		{"cross-channel negative", func(c *Config) {
			c.Channels = 2
			c.CrossChannel = -0.1
		}, "cross-channel fraction must be in [0,1)"},
		{"cross-channel at one", func(c *Config) {
			c.Channels = 2
			c.CrossChannel = 1
		}, "cross-channel fraction must be in [0,1)"},
		{"cross-channel without channels", func(c *Config) { c.CrossChannel = 0.5 },
			"needs >= 2 channels"},
		{"stateful variant sharded", func(c *Config) {
			c.Channels = 4
			c.Variant = testVariant{}
		}, "supports only the vanilla fabric-1.4 variant"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(1)
			tc.mutate(&cfg)
			err := cfg.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected validation error: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("validation accepted %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}
