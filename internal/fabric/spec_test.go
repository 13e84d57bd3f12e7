package fabric

import (
	"math"
	"strings"
	"testing"
	"time"
)

// TestNonFiniteAndNegativeRejected is the regression table for the
// numbers that used to reach the simulator: NaN compares false with
// everything, so `x < 0` and `x <= 0` guards waved it through, and +Inf
// passed every lower bound. Each case must now fail with an error that
// names the field or the grammar.
func TestNonFiniteAndNegativeRejected(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)

	if _, err := ParseThinkTime("lognormal:1s:NaN"); err == nil || !strings.Contains(err.Error(), "want a mean") {
		t.Errorf("-think lognormal:1s:NaN: err = %v, want one naming the grammar", err)
	}

	for _, c := range []struct {
		name, want string
		mutate     func(*Config)
	}{
		{"rate NaN", "arrival rate", func(c *Config) { c.Rate = nan }},
		{"rate Inf", "arrival rate", func(c *Config) { c.Rate = inf }},
		{"rate negative", "arrival rate", func(c *Config) { c.Rate = -5 }},
		{"budget refill NaN", "refill rate", func(c *Config) { c.RetryBudget = &RetryBudget{RefillPerSec: nan} }},
		{"budget refill Inf", "refill rate", func(c *Config) { c.RetryBudget = &RetryBudget{RefillPerSec: inf} }},
		{"budget burst NaN", "burst", func(c *Config) { c.RetryBudget = &RetryBudget{Burst: nan} }},
		{"budget burst Inf", "burst", func(c *Config) { c.RetryBudget = &RetryBudget{Burst: inf} }},
		{"backoff jitter NaN", "jitter", func(c *Config) { c.Retry = ExponentialBackoff{Jitter: nan} }},
		{"backoff jitter negative", "jitter", func(c *Config) { c.Retry = ExponentialBackoff{Jitter: -0.1} }},
		{"capped backoff jitter NaN", "jitter", func(c *Config) { c.Retry = GiveUpAfter(ExponentialBackoff{Jitter: nan}, 3) }},
		{"hinted jitter Inf", "jitter", func(c *Config) { c.Retry = BackpressurePolicy{Jitter: inf} }},
		{"adaptive jitter NaN", "jitter", func(c *Config) { c.Retry = AdaptivePolicy{Jitter: nan} }},
		{"speed factor NaN", "speed factor", func(c *Config) { c.SpeedFactor = nan }},
		{"speed factor Inf", "speed factor", func(c *Config) { c.SpeedFactor = inf }},
		{"loss probability NaN", "loss probability", func(c *Config) {
			c.Faults = &Faults{Events: []FaultEvent{{Kind: FaultLoss, For: time.Second, Factor: nan}}}
		}},
		{"slowdb multiplier Inf", "slowdb cost multiplier", func(c *Config) {
			c.Faults = &Faults{Events: []FaultEvent{{Kind: FaultSlowDB, For: time.Second, Factor: inf}}}
		}},
	} {
		cfg := testConfig(1)
		c.mutate(&cfg)
		if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Validate = %v, want an error naming %q", c.name, err, c.want)
		}
	}
}

// FuzzSpecs feeds one string to the CLI's spec parser, ParseThinkTime
// (every other ad-hoc flag names a value from a table). It must not
// panic, must not return both a value and an error, and whatever it
// accepts must pass Validate — the contract that lets the CLI hand a
// parsed spec straight to NewNetwork. The seeds keep the specs of the
// retired control and fault grammars as hostile inputs.
func FuzzSpecs(f *testing.F) {
	for _, seed := range []string{
		"", "off", "on", "default", "ON",
		"0.5:1s:2s", "0.3:500ms", "2:500ms:0.5", "3:250ms", "3s",
		"orderer", "gossip", "both", "fleet",
		"none", "fixed:500ms", "exp:2s", "lognormal:1s:0.8", "lognormal:1s",
		"1:3", "2:5:drop", "1:3:drop:adaptive",
		"crash", "loss:0@1s+4s:0.2", "straggler:2@1s+2s:100ms~10ms", "crash-peer:1@5s+10s,etimeout=2s",
		// The hostile inputs that used to get through.
		"NaN:3", "1:NaN", "1:Inf", "NaN:1s", "Inf:1s:2s", "2:1s:NaN", "lognormal:1s:NaN",
		"lognormal:1s:-Inf", "loss@1s+2s:NaN", "slowdb@1s+2s:Inf", "-1", "1e999:1", ":", "::", "a:b:c:d:e",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, err := ParseThinkTime(s)
		if err != nil {
			if got != (ThinkTime{}) {
				t.Errorf("think %q returned both %+v and %v", s, got, err)
			}
			return
		}
		if verr := got.Validate(); verr != nil {
			t.Errorf("think %q accepted a value that fails Validate: %v", s, verr)
		}
	})
}
