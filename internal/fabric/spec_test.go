package fabric

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestParseRetryBudget(t *testing.T) {
	accept := []struct {
		in   string
		want *RetryBudget
	}{
		{"", nil},
		{"1:3", &RetryBudget{RefillPerSec: 1, Burst: 3}},
		{"0.5:2:defer", &RetryBudget{RefillPerSec: 0.5, Burst: 2}},
		{"2:5:drop", &RetryBudget{RefillPerSec: 2, Burst: 5, DropOnEmpty: true}},
		{"1:3:adaptive", &RetryBudget{RefillPerSec: 1, Burst: 3, Adaptive: true}},
		{"1:3:drop:adaptive", &RetryBudget{RefillPerSec: 1, Burst: 3, DropOnEmpty: true, Adaptive: true}},
		{"1:3:adaptive:drop", &RetryBudget{RefillPerSec: 1, Burst: 3, DropOnEmpty: true, Adaptive: true}},
	}
	for _, c := range accept {
		got, err := ParseRetryBudget(c.in)
		if err != nil || !reflect.DeepEqual(got, c.want) {
			t.Errorf("ParseRetryBudget(%q) = %+v, %v; want %+v", c.in, got, err, c.want)
		}
	}
	for _, in := range []string{
		"1", "1:", ":3", "1:3:drop:adaptive:defer", "x:3", "1:y", "1:3:sometimes",
		"0:3", "-1:3", "1:0", "1:-2", "NaN:3", "1:NaN", "1:Inf", "-Inf:3", "off",
	} {
		if got, err := ParseRetryBudget(in); err == nil || got != nil {
			t.Errorf("ParseRetryBudget(%q) = %+v, %v; want nil and an error", in, got, err)
		}
	}
}

// TestNonFiniteAndNegativeRejected is the regression table for the
// numbers that used to reach the simulator: NaN compares false with
// everything, so `x < 0` and `x <= 0` guards waved it through, and +Inf
// passed every lower bound. Each case must now fail with an error that
// names the field.
func TestNonFiniteAndNegativeRejected(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)

	for _, c := range []struct {
		name, want string
		parse      func() error
	}{
		{"-budget NaN:3", "retry budget rate", func() error { _, err := ParseRetryBudget("NaN:3"); return err }},
		{"-budget 1:NaN", "retry budget burst", func() error { _, err := ParseRetryBudget("1:NaN"); return err }},
		{"-budget 1:Inf", "retry budget burst", func() error { _, err := ParseRetryBudget("1:Inf"); return err }},
		{"-backpressure NaN:1s", "want off or on", func() error { _, err := ParseBackpressure("NaN:1s"); return err }},
		{"-think lognormal:1s:NaN", "want a mean", func() error { _, err := ParseThinkTime("lognormal:1s:NaN"); return err }},
		{"-gossip 2:1s:Inf", "want off, on or fanout:period", func() error { _, err := ParseGossip("2:1s:Inf"); return err }},
		{"-faults loss@1s+2s:NaN", "loss probability", func() error { _, err := ParseFaults("loss@1s+2s:NaN"); return err }},
		{"-faults slowdb@1s+2s:Inf", "slowdb multiplier", func() error { _, err := ParseFaults("slowdb@1s+2s:Inf"); return err }},
	} {
		if err := c.parse(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one naming %q", c.name, err, c.want)
		}
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
	} {
		cfg := testConfig(1)
		c.mutate(&cfg)
		if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Validate = %v, want an error naming %q", c.name, err, c.want)
		}
	}
}

// floatsFinite walks v and reports the path of the first float that is
// NaN or ±Inf ("" = all finite).
func floatsFinite(v reflect.Value, path string) string {
	switch v.Kind() {
	case reflect.Float64:
		if f := v.Float(); math.IsNaN(f) || math.IsInf(f, 0) {
			return path
		}
	case reflect.Pointer:
		if !v.IsNil() {
			return floatsFinite(v.Elem(), path)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if bad := floatsFinite(v.Field(i), path+"."+v.Type().Field(i).Name); bad != "" {
				return bad
			}
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			if bad := floatsFinite(v.Index(i), path); bad != "" {
				return bad
			}
		}
	}
	return ""
}

// FuzzSpecs feeds one string to every CLI spec parser. None may panic,
// none may return both a value and an error, and whatever one accepts
// must pass its own Validate, if it has one, with every float finite — the contract
// that lets the CLI hand a parsed spec straight to NewNetwork. The
// accepted control values are also assembled into one Control, whose
// Validate may reject the combination but must not panic on it.
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
	type validator interface{ Validate() error }
	parsers := map[string]func(string) (any, error){
		"backpressure": func(s string) (any, error) { return ParseBackpressure(s) },
		"gossip":       func(s string) (any, error) { return ParseGossip(s) },
		"hintsource":   func(s string) (any, error) { return ParseHintSource(s) },
		"split":        func(s string) (any, error) { return ParseSplitSignal(s) },
		"think":        func(s string) (any, error) { return ParseThinkTime(s) },
		"budget":       func(s string) (any, error) { return ParseRetryBudget(s) },
		"faults":       func(s string) (any, error) { return ParseFaults(s) },
	}
	f.Fuzz(func(t *testing.T, s string) {
		var ctl Control
		ctl.RetryBudget, _ = ParseRetryBudget(s)
		ctl.Backpressure, _ = ParseBackpressure(s)
		ctl.Gossip, _ = ParseGossip(s)
		ctl.HintSource, _ = ParseHintSource(s)
		ctl.SplitSignal, _ = ParseSplitSignal(s)
		_ = ctl.Validate() // error or nil, never a panic

		for name, parse := range parsers {
			got, err := parse(s)
			v := reflect.ValueOf(got)
			empty := v.IsZero() // nil pointer, "" or ThinkTime{}
			if err != nil {
				if !empty {
					t.Errorf("%s %q returned both %+v and %v", name, s, got, err)
				}
				continue
			}
			if empty {
				continue // disabled
			}
			if val, ok := got.(validator); ok {
				if verr := val.Validate(); verr != nil {
					t.Errorf("%s %q accepted a value that fails Validate: %v", name, s, verr)
				}
			}
			if bad := floatsFinite(v, name); bad != "" {
				t.Errorf("%s %q accepted a non-finite %s: %+v", name, s, bad, got)
			}
		}
	})
}
