package fabric

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/sim"
)

// ThinkTimeKind selects the think-time distribution of closed-loop
// clients.
type ThinkTimeKind int

const (
	// ThinkNone is the zero value: no think time, the next job starts
	// the instant the previous one resolves (the historical closed-loop
	// behaviour). It draws nothing from the rng.
	ThinkNone ThinkTimeKind = iota
	// ThinkFixed waits exactly Mean between jobs.
	ThinkFixed
	// ThinkExponential draws an exponentially distributed wait with
	// the given Mean — the classic interactive-client model.
	ThinkExponential
	// ThinkLogNormal draws a log-normally distributed wait with the
	// given Mean and shape Sigma: a heavy-tailed human think time.
	ThinkLogNormal
)

// String names the distribution as the CLI spells it.
func (k ThinkTimeKind) String() string {
	switch k {
	case ThinkFixed:
		return "fixed"
	case ThinkExponential:
		return "exp"
	case ThinkLogNormal:
		return "lognormal"
	default:
		return "none"
	}
}

// ThinkTime configures how long a closed-loop client "thinks" between
// resolving one logical transaction and submitting the next
// (Config.ThinkTime). The zero value means no think time, which
// reproduces the original closed-loop behaviour exactly — no extra
// events, no extra rng draws. Open-loop runs ignore it.
type ThinkTime struct {
	// Kind selects the distribution. Default ThinkNone (no think
	// time).
	Kind ThinkTimeKind
	// Mean is the mean think time for every distribution kind.
	// Must be > 0 for any kind other than ThinkNone.
	Mean time.Duration
	// Sigma is the log-normal shape parameter σ (dimensionless;
	// ThinkLogNormal only). 0 defaults to 1. Larger values fatten the
	// tail while the mean stays at Mean.
	Sigma float64
}

// Validate reports configuration errors.
func (t ThinkTime) Validate() error {
	switch t.Kind {
	case ThinkNone:
		return nil
	case ThinkFixed, ThinkExponential, ThinkLogNormal:
		if t.Mean <= 0 {
			return fmt.Errorf("fabric: %s think time needs a positive mean, got %v", t.Kind, t.Mean)
		}
		if !finiteNonNeg(t.Sigma) {
			return fmt.Errorf("fabric: think time sigma must be a finite shape >= 0, got %g", t.Sigma)
		}
		return nil
	default:
		return fmt.Errorf("fabric: unknown think time kind %d", int(t.Kind))
	}
}

// sample draws one think time from the simulation engine. ThinkNone
// returns 0 without touching the rng.
func (t ThinkTime) sample(eng *sim.Engine) time.Duration {
	switch t.Kind {
	case ThinkFixed:
		return t.Mean
	case ThinkExponential:
		return eng.Exponential(t.Mean)
	case ThinkLogNormal:
		sigma := t.Sigma
		if sigma == 0 {
			sigma = 1
		}
		return eng.LogNormal(t.Mean, sigma)
	default:
		return 0
	}
}

// ParseThinkTime parses the CLI syntax for a think-time spec:
// "none", "fixed:500ms", "exp:2s" or "lognormal:1s:0.8" (the third
// field is the optional sigma, default 1).
func ParseThinkTime(s string) (ThinkTime, error) {
	parts := strings.Split(s, ":")
	var t ThinkTime
	fields := []specField{req("mean", &t.Mean)}
	switch strings.ToLower(parts[0]) {
	case "", "none":
		if len(parts) > 1 {
			return ThinkTime{}, fmt.Errorf("fabric: think time %q: none takes no arguments", s)
		}
		return ThinkTime{}, nil
	case "fixed":
		t.Kind = ThinkFixed
	case "exp", "exponential":
		t.Kind = ThinkExponential
	case "lognormal":
		t.Kind = ThinkLogNormal
		fields = append(fields, opt("sigma", &t.Sigma))
	default:
		return ThinkTime{}, fmt.Errorf("fabric: unknown think time distribution %q", parts[0])
	}
	err := parseFields(parts[0]+" think time", "a mean, e.g. "+parts[0]+":500ms (lognormal takes an optional :sigma)", parts[1:], fields...)
	if err == nil {
		err = t.Validate()
	}
	if err != nil {
		return ThinkTime{}, err
	}
	return t, nil
}
