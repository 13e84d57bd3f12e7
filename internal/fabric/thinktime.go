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
	// given Mean and shape lognormalSigma: a heavy-tailed human think
	// time.
	ThinkLogNormal
)

// lognormalSigma is the log-normal think time's shape parameter σ
// (dimensionless); the mean stays at ThinkTime.Mean.
const lognormalSigma = 1

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
		return eng.LogNormal(t.Mean, lognormalSigma)
	default:
		return 0
	}
}

// ParseThinkTime parses the CLI syntax for a think-time spec:
// "none", "fixed:500ms", "exp:2s" or "lognormal:1s".
func ParseThinkTime(s string) (ThinkTime, error) {
	name, mean, hasMean := strings.Cut(s, ":")
	var t ThinkTime
	switch strings.ToLower(name) {
	case "", "none":
		if hasMean {
			return t, fmt.Errorf("fabric: think time %q: none takes no arguments", s)
		}
		return t, nil
	case "fixed":
		t.Kind = ThinkFixed
	case "exp", "exponential":
		t.Kind = ThinkExponential
	case "lognormal":
		t.Kind = ThinkLogNormal
	default:
		return t, fmt.Errorf("fabric: unknown think time distribution %q", name)
	}
	var err error
	if t.Mean, err = time.ParseDuration(mean); err != nil {
		return ThinkTime{}, fmt.Errorf("fabric: think time %q: want a mean, e.g. %s:500ms", s, name)
	}
	if err := t.Validate(); err != nil {
		return ThinkTime{}, err
	}
	return t, nil
}
