package fabric

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

func TestThinkTimeValidation(t *testing.T) {
	if err := (ThinkTime{}).Validate(); err != nil {
		t.Errorf("zero value rejected: %v", err)
	}
	bad := []ThinkTime{
		{Kind: ThinkFixed},                           // no mean
		{Kind: ThinkExponential, Mean: -time.Second}, // negative mean
		{Kind: ThinkLogNormal},
		{Kind: ThinkTimeKind(99), Mean: time.Second},
	}
	for i, tt := range bad {
		if err := tt.Validate(); err == nil {
			t.Errorf("case %d: %+v validated", i, tt)
		}
	}
	cfg := testConfig(1)
	cfg.ClosedLoop = true
	cfg.ThinkTime = ThinkTime{Kind: ThinkFixed}
	if _, err := NewNetwork(cfg); err == nil {
		t.Error("network accepted a mean-less think time")
	}
}

func TestParseThinkTime(t *testing.T) {
	cases := []struct {
		in   string
		want ThinkTime
	}{
		{"none", ThinkTime{}},
		{"", ThinkTime{}},
		{"fixed:500ms", ThinkTime{Kind: ThinkFixed, Mean: 500 * time.Millisecond}},
		{"exp:2s", ThinkTime{Kind: ThinkExponential, Mean: 2 * time.Second}},
		{"exponential:1s", ThinkTime{Kind: ThinkExponential, Mean: time.Second}},
		{"lognormal:1s", ThinkTime{Kind: ThinkLogNormal, Mean: time.Second}},
	}
	for _, c := range cases {
		got, err := ParseThinkTime(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseThinkTime(%q) = %+v, %v; want %+v", c.in, got, err, c.want)
		}
	}
	for _, in := range []string{"bogus", "fixed", "fixed:xyz", "fixed:1s:2", "lognormal:1s:x", "lognormal:1s:0.8x", "none:1s"} {
		if _, err := ParseThinkTime(in); err == nil {
			t.Errorf("ParseThinkTime(%q) accepted", in)
		}
	}
	if _, err := ParseThinkTime("lognormal:1s:0.8"); err == nil || !strings.Contains(err.Error(), "want a mean, e.g. lognormal:500ms") {
		t.Errorf("ParseThinkTime(lognormal:1s:0.8) = %v, want an error naming the grammar", err)
	}
}

func TestThinkTimeSampling(t *testing.T) {
	eng := sim.NewEngine(1)
	if got := (ThinkTime{}).sample(eng); got != 0 {
		t.Errorf("none sampled %v, want 0", got)
	}
	fixed := ThinkTime{Kind: ThinkFixed, Mean: 250 * time.Millisecond}
	if got := fixed.sample(eng); got != 250*time.Millisecond {
		t.Errorf("fixed sampled %v", got)
	}
	// Exponential and log-normal means converge near the target.
	for _, tt := range []ThinkTime{
		{Kind: ThinkExponential, Mean: time.Second},
		{Kind: ThinkLogNormal, Mean: time.Second},
	} {
		var sum time.Duration
		const n = 20000
		for i := 0; i < n; i++ {
			d := tt.sample(eng)
			if d < 0 {
				t.Fatalf("%s sampled negative %v", tt.Kind, d)
			}
			sum += d
		}
		mean := float64(sum) / n
		if math.Abs(mean-float64(time.Second)) > 0.05*float64(time.Second) {
			t.Errorf("%s mean %v, want ~1s", tt.Kind, time.Duration(mean))
		}
	}
}

func TestLogNormalDeterministic(t *testing.T) {
	a, b := sim.NewEngine(3), sim.NewEngine(3)
	for i := 0; i < 100; i++ {
		if da, db := a.LogNormal(time.Second, 1), b.LogNormal(time.Second, 1); da != db {
			t.Fatalf("draw %d: %v != %v for identical seeds", i, da, db)
		}
	}
}

// closedConfig is a closed-loop EHR run.
func closedConfig(seed int64) Config {
	cfg := testConfig(seed)
	cfg.ClosedLoop = true
	cfg.InFlightPerClient = 2
	return cfg
}

func TestClosedLoopReadsThinkTime(t *testing.T) {
	// The bugfix under test: closed-loop clients must honour
	// Config.ThinkTime instead of hardcoding zero. A think time about
	// as long as the whole send window throttles each client slot to a
	// couple of jobs.
	busy := closedConfig(8)
	_, noThink := run(t, busy)

	slow := closedConfig(8)
	slow.ThinkTime = ThinkTime{Kind: ThinkFixed, Mean: 10 * time.Second}
	_, withThink := run(t, slow)

	if noThink.Jobs == 0 || withThink.Jobs == 0 {
		t.Fatalf("runs resolved no jobs: %d / %d", noThink.Jobs, withThink.Jobs)
	}
	if withThink.Jobs*2 >= noThink.Jobs {
		t.Errorf("10s think time left %d jobs vs %d without: think time not applied",
			withThink.Jobs, noThink.Jobs)
	}
}

func TestUnsetThinkTimePreservesOldBehaviour(t *testing.T) {
	// Kind ThinkNone must be byte-identical to the pre-think-time
	// closed loop: no extra events, no extra rng draws.
	_, implicit := run(t, closedConfig(9))
	explicit := closedConfig(9)
	explicit.ThinkTime = ThinkTime{Kind: ThinkNone}
	_, withExplicit := run(t, explicit)
	if !reflect.DeepEqual(implicit, withExplicit) {
		t.Error("explicit ThinkNone diverged from the zero value")
	}
}

func TestThinkTimeRunsDeterministic(t *testing.T) {
	cfg := closedConfig(10)
	cfg.ThinkTime = ThinkTime{Kind: ThinkLogNormal, Mean: 300 * time.Millisecond}
	_, a := run(t, cfg)
	cfg2 := closedConfig(10)
	cfg2.ThinkTime = ThinkTime{Kind: ThinkLogNormal, Mean: 300 * time.Millisecond}
	_, b := run(t, cfg2)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("identical think-time runs diverged:\n%+v\n%+v", a, b)
	}
}

func TestThinkTimeIgnoredInOpenLoop(t *testing.T) {
	cfg := testConfig(11)
	cfg.ThinkTime = ThinkTime{Kind: ThinkFixed, Mean: 10 * time.Second}
	_, withThink := run(t, cfg)
	_, plain := run(t, testConfig(11))
	if !reflect.DeepEqual(withThink, plain) {
		t.Error("think time changed an open-loop run")
	}
}
