package main

import (
	"flag"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fabric"
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
// smoke-runs, read from .github/workflows/ci.yml so the two cannot
// drift: each must build a config that validates. A command ends at a
// pipe into the step's check of its output.
func TestAdhocConfigSmokeLines(t *testing.T) {
	ci, err := os.ReadFile("../../.github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	const cmd = "go run ./cmd/hyperlab "
	var lines int
	for _, line := range strings.Split(string(ci), "\n") {
		_, args, ok := strings.Cut(line, cmd)
		if !ok || !strings.Contains(args, "-adhoc") {
			continue
		}
		args, _, _ = strings.Cut(args, "|")
		lines++
		if err := config(t, args); err != nil {
			t.Errorf("%s: %v", args, err)
		}
	}
	if lines < 5 {
		t.Errorf("found %d ad-hoc smoke lines in ci.yml, want >= 5", lines)
	}
}

// TestTableFlags resolves every name -cluster, -db and -system take;
// TestAdhocConfigRejectsHostileLines holds the spellings they refuse.
func TestTableFlags(t *testing.T) {
	for _, line := range []string{
		"-adhoc -cluster C2 -db LevelDB -system streamchain",
		"-adhoc -cluster C1 -db CouchDB -system fabric-1.4",
		"-adhoc -system fabric++",
		"-adhoc -system fabricsharp",
	} {
		if err := config(t, line); err != nil {
			t.Errorf("%s: %v", line, err)
		}
	}
}

// TestControlFlagResolvesRungs: every rung the studies run is one
// -control label away, with the very control its ladder runs.
func TestControlFlagResolvesRungs(t *testing.T) {
	for _, r := range core.Rungs() {
		fs := flag.NewFlagSet("hyperlab", flag.ContinueOnError)
		c, err := parseFlags(fs, []string{"-adhoc", "-control", r.Label})
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := adhocConfig(c)
		if err != nil || !reflect.DeepEqual(cfg.Control, r.Control) {
			t.Errorf("-control %s: %+v, %v; want %+v", r.Label, cfg.Control, err, r.Control)
		}
	}
}

// TestSummaryFollowsTheHintSource: the backpressure line prints the
// orderer's hint only when the orderer feeds it, so a gossip-paced run
// shows its pacing beside the gossip line and no all-zero hint.
func TestSummaryFollowsTheHintSource(t *testing.T) {
	for _, c := range []struct {
		control, backpressure string
		gossip                bool
	}{
		{"hinted-gossip", "backpressure: paced=", true},
		{"hinted-orderer", "backpressure: hint avg=", false},
	} {
		fs := flag.NewFlagSet("hyperlab", flag.ContinueOnError)
		cl, err := parseFlags(fs, []string{"-adhoc", "-control", c.control, "-duration", "2s"})
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := adhocConfig(cl)
		if err != nil {
			t.Fatal(err)
		}
		nw, err := fabric.NewNetwork(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		summarize(&out, cfg, nw.Run())
		got := out.String()
		if !strings.Contains(got, "\n"+c.backpressure) || strings.Contains(got, "gossip via gossip:") != c.gossip {
			t.Errorf("-control %s: summary\n%s\nwant a line starting %q and a gossip line: %v", c.control, got, c.backpressure, c.gossip)
		}
	}
}

// TestAdhocConfigRejectsHostileLines pins the robustness list: each of
// these used to hang the simulator, panic in the Zipfian sampler, run
// with NaN in a control loop, or silently ignore -adhoc. Each must now
// be an error naming the offending field or the values it takes.
func TestAdhocConfigRejectsHostileLines(t *testing.T) {
	for _, c := range []struct{ line, want string }{
		{"-adhoc -rate NaN", "arrival rate"},
		{"-adhoc -rate Inf", "arrival rate"},
		{"-adhoc -rate -3", "arrival rate"},
		{"-adhoc -skew -1", "skew"},
		{"-adhoc -skew NaN", "skew"},
		{"-adhoc -skew Inf", "skew"},
		// The control plane and fault schedule are named, not spelled
		// out: an unknown name lists the known ones, and the spec flags
		// are gone.
		{"-adhoc -control nope", `unknown control "nope", want one of none, immediate(3), backoff(5), backoff-cap2, static,`},
		{"-adhoc -faults crash-peer:1@5s+10s", "want off, crash, partition, flaky, straggler, slowdb or chaos"},
		{"-adhoc -budget 1:3", "flag provided but not defined: -budget"},
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
		// -cluster, -db and -system take one spelling per value.
		{"-adhoc -cluster c2", `unknown cluster "c2", want C1 or C2`},
		{"-adhoc -db leveldb", `unknown db "leveldb", want CouchDB or LevelDB`},
		{"-adhoc -system fabric", `unknown system "fabric", want fabric-1.4, fabric++, streamchain or fabricsharp`},
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
