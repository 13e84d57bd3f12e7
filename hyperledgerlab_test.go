package hyperledgerlab

import (
	"os"
	"strings"
	"testing"
	"time"
)

func quickCfg(seed int64) Config {
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.Duration = 10 * time.Second
	cfg.Drain = 15 * time.Second
	cfg.Rate = 50
	cfg.Chaincode = EHRChaincode()
	cfg.Workload = EHRWorkload(1)
	return cfg
}

func TestQuickstartFlow(t *testing.T) {
	nw, err := NewNetwork(quickCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	rep := nw.Run()
	if rep.Total == 0 || rep.Valid == 0 {
		t.Fatalf("empty run: %v", rep)
	}
	if rep.Counts[Valid] != rep.Valid {
		t.Error("code constants not wired to the report")
	}
}

func TestAllChaincodeFactories(t *testing.T) {
	ccs := []struct {
		cc Chaincode
		wl WorkloadGenerator
	}{
		{EHRChaincode(), EHRWorkload(1)},
		{DVChaincode(), DVWorkload(1)},
		{SCMChaincode(), SCMWorkload(1)},
		{DRMChaincode(), DRMWorkload(1)},
	}
	for _, c := range ccs {
		cfg := quickCfg(2)
		cfg.Duration = 5 * time.Second
		cfg.Rate = 20
		cfg.Chaincode = c.cc
		cfg.Workload = c.wl
		nw, err := NewNetwork(cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.cc.Name(), err)
		}
		rep := nw.Run()
		if rep.Valid == 0 {
			t.Errorf("%s: no valid transactions (%v)", c.cc.Name(), rep)
		}
	}
}

func TestGeneratedChaincodeRoundTrip(t *testing.T) {
	spec := GenChainSpec()
	spec.Keys = 2000
	cc, err := GenerateChaincode(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickCfg(3)
	cfg.DBKind = LevelDB
	cfg.Chaincode = cc
	cfg.Workload = GenWorkload(spec, UpdateHeavy, 1)
	nw, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep := nw.Run(); rep.Valid == 0 {
		t.Fatalf("generated chaincode run failed: %v", rep)
	}
	src, err := RenderChaincode(spec, false)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(src, "package genChain") {
		t.Error("rendered source lacks package clause")
	}
}

func TestVariantsViaFacade(t *testing.T) {
	for _, sys := range []System{Fabric14, FabricPP, Streamchain, FabricSharp} {
		cfg := quickCfg(4)
		cfg.Duration = 5 * time.Second
		cfg.Rate = 20
		cfg.Variant = sys.Variant()
		nw, err := NewNetwork(cfg)
		if err != nil {
			t.Fatalf("%v: %v", sys, err)
		}
		if rep := nw.Run(); rep.Valid == 0 {
			t.Errorf("%v: no valid transactions", sys)
		}
	}
}

func TestExperimentRegistryComplete(t *testing.T) {
	if len(Experiments()) != 30 {
		t.Errorf("%d experiments exposed, want 30 (25 paper + retry-policies + retry-cotune + retry-coordination + scale + faults)", len(Experiments()))
	}
	if _, err := LookupExperiment("fig26"); err != nil {
		t.Error(err)
	}
	if _, err := LookupExperiment("retry-policies"); err != nil {
		t.Error(err)
	}
	if _, err := LookupExperiment("retry-cotune"); err != nil {
		t.Error(err)
	}
	if _, err := LookupExperiment("retry-coordination"); err != nil {
		t.Error(err)
	}
	if _, err := LookupExperiment("scale"); err != nil {
		t.Error(err)
	}
	if _, err := LookupExperiment("faults"); err != nil {
		t.Error(err)
	}
	raw, err := os.ReadFile("docs/EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	for _, e := range Experiments() {
		if !strings.Contains(doc, "`"+e.ID+"`") {
			t.Errorf("experiment %q is registered but docs/EXPERIMENTS.md never names it as `%s`", e.ID, e.ID)
		}
	}
	if FullOptions().Duration != 3*time.Minute {
		t.Error("full options should use the paper's 3-minute window")
	}
	if QuickOptions().Duration >= FullOptions().Duration {
		t.Error("quick options should be shorter than full")
	}
}

func TestRetryFacade(t *testing.T) {
	var _ RetryPolicy = NoRetry{}
	var _ RetryPolicy = ImmediateRetry{MaxAttempts: 2}
	var _ RetryPolicy = ExponentialBackoff{}
	var _ RetryPolicy = GiveUpAfter(NoRetry{}, 1)

	// A short closed-loop run with retries through the facade: the
	// effective metrics must be populated and self-consistent.
	cfg := quickCfg(21)
	cfg.Retry = ImmediateRetry{MaxAttempts: 3}
	cfg.ClosedLoop = true
	cfg.InFlightPerClient = 3
	nw, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := nw.Run()
	if rep.Jobs == 0 || rep.Attempts < rep.Jobs {
		t.Fatalf("effective metrics missing: %+v", rep)
	}
	if rep.EventualValid+rep.GaveUp != rep.Jobs {
		t.Errorf("jobs %d != eventual %d + gave-up %d", rep.Jobs, rep.EventualValid, rep.GaveUp)
	}
	if rep.Goodput > rep.Throughput {
		t.Errorf("goodput %.2f above throughput %.2f", rep.Goodput, rep.Throughput)
	}
}
