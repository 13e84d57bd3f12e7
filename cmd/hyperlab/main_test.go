package main

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
)

// config parses one command line the way main does and resolves it.
func config(t *testing.T, line string) error {
	t.Helper()
	fs := flag.NewFlagSet("hyperlab", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	c, err := parseFlags(fs, strings.Fields(line))
	if err != nil {
		return err
	}
	_, err = adhocConfig(c)
	return err
}

// TestAdhocConfigSmokeLines resolves the ad-hoc command lines CI
// smoke-runs (.github/workflows/ci.yml) and the usage examples: each
// must build a config that validates.
func TestAdhocConfigSmokeLines(t *testing.T) {
	for _, line := range []string{
		"-adhoc",
		"-adhoc -faults chaos -retry backoff -duration 5s",
		"-adhoc -retry hinted -backpressure on -gossip 2:500ms -hintsource gossip -duration 5s",
		"-adhoc -retry hinted -backpressure on -gossip on -hintsource gossip -split on -budget 1:3:drop:adaptive -duration 5s",
		"-adhoc -clients 100000 -cohort 1000 -channels 4 -crosschannel 0.1 -retry backoff -duration 5s",
		"-adhoc -chaincode ehr -rate 100 -block 50 -db leveldb -system fabric++",
		"-adhoc -retry adaptive -budget 1:3:drop -closedloop -think exp:500ms",
		"-adhoc -chaincode genchain -cluster C2 -skew 0 -system streamchain",
		"-adhoc -faults partition:1@5s+10s,etimeout=2s",
	} {
		if err := config(t, line); err != nil {
			t.Errorf("%s: %v", line, err)
		}
	}
}

// TestAdhocConfigRejectsHostileLines pins the robustness list: each of
// these used to hang the simulator, panic in the Zipfian sampler, run
// with NaN in a control loop, or silently ignore -adhoc. Each must now
// be an error naming the offending field.
func TestAdhocConfigRejectsHostileLines(t *testing.T) {
	for _, c := range []struct{ line, want string }{
		{"-adhoc -rate NaN", "arrival rate"},
		{"-adhoc -rate Inf", "arrival rate"},
		{"-adhoc -rate -3", "arrival rate"},
		{"-adhoc -skew -1", "skew"},
		{"-adhoc -skew NaN", "skew"},
		{"-adhoc -skew Inf", "skew"},
		{"-adhoc -budget NaN:3", "retry budget rate"},
		{"-adhoc -budget 1:NaN", "retry budget burst"},
		{"-adhoc -budget 1:Inf", "retry budget burst"},
		// The spec forms of the knobs that became constants; each names
		// the grammar that is left.
		{"-adhoc -backpressure NaN:1s", "want off or on"},
		{"-adhoc -backpressure 0.5:1s:2s", "want off or on"},
		{"-adhoc -gossip 2:500ms:0.5", "want off, on or fanout:period"},
		{"-adhoc -split 3s", "want off or on"},
		{"-adhoc -closedloop -think lognormal:1s:0.8", "want a mean, e.g. lognormal:500ms"},
		{"-adhoc -think lognormal:1s:NaN -closedloop", "want a mean, e.g. lognormal:500ms"},
		{"-adhoc -exp fig7", "cannot be combined with -exp"},
		{"-adhoc -run scale", "flag provided but not defined: -run"},
		// One -regime flag replaced -full, -quick and -smoke.
		{"-exp fig7 -regime paper", `unknown regime "paper", want quick, full or smoke`},
		{"-exp fig7 -full", "flag provided but not defined: -full"},
		{"-exp fig7 -quick", "flag provided but not defined: -quick"},
		{"-exp fig7 -smoke", "flag provided but not defined: -smoke"},
		{"-adhoc -chaincode nope", "unknown chaincode"},
		{"-adhoc -system fabric3", "unknown system"},
		// -clients -5 used to fall back to the cluster default and
		// -dump -1 to wrap through uint64 and dump every block.
		{"-adhoc -clients -5", "-clients must be >= 0 clients"},
		{"-adhoc -dump -1", "-dump must be >= 0 blocks"},
	} {
		err := config(t, c.line)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one naming %q", c.line, err, c.want)
		}
	}
}

// TestRegimeFlag resolves every -regime name to its options and checks
// that quick is the default.
func TestRegimeFlag(t *testing.T) {
	for _, c := range []struct {
		line, want string
		opts       core.Options
	}{
		{"-exp fig7", "quick", core.QuickOptions()},
		{"-exp fig7 -regime quick", "quick", core.QuickOptions()},
		{"-exp fig7 -regime full", "full", core.FullOptions()},
		{"-exp fig7 -regime smoke", "smoke", core.SmokeOptions()},
	} {
		fs := flag.NewFlagSet("hyperlab", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		cl, err := parseFlags(fs, strings.Fields(c.line))
		if err != nil {
			t.Fatalf("%s: %v", c.line, err)
		}
		if got := cl.regime.opts(); cl.regime.name != c.want || !reflect.DeepEqual(got, c.opts) {
			t.Errorf("%s: regime %s with %+v, want %s with %+v", c.line, cl.regime.name, got, c.want, c.opts)
		}
	}
}
