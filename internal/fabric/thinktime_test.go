package fabric

import (
	"math"
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

// TestUnsetThinkTimePreservesOldBehaviour: an unset ThinkTime is Kind
// ThinkNone, and ThinkNone keeps the pre-think-time closed loop: it
// samples no pause and draws nothing from the engine's stream.
func TestUnsetThinkTimePreservesOldBehaviour(t *testing.T) {
	if (ThinkTime{}) != (ThinkTime{Kind: ThinkNone}) {
		t.Fatal("the zero ThinkTime is not ThinkNone")
	}
	eng, fresh := sim.NewEngine(9), sim.NewEngine(9)
	if d := (ThinkTime{}).sample(eng); d != 0 {
		t.Errorf("ThinkNone sampled a %v pause", d)
	}
	if a, b := eng.Rand().Int63(), fresh.Rand().Int63(); a != b {
		t.Error("ThinkNone drew from the engine's stream")
	}
}

// TestThinkTimeRunsDeterministic: log-normal think time draws only
// from the seeded rng (the corpus's closedloop-lognormal regime).
func TestThinkTimeRunsDeterministic(t *testing.T) { deterministic(t, "closedloop-lognormal") }

// TestThinkTimeIgnoredInOpenLoop: think time changes nothing on an
// open-loop run (a metamorphic pin).
func TestThinkTimeIgnoredInOpenLoop(t *testing.T) { pinned(t, "think-time-ignored-in-open-loop") }
