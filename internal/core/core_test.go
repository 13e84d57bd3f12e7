package core

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/gen"
)

// tinyOptions keeps harness tests fast.
func tinyOptions() Options {
	return Options{
		Duration: 8 * time.Second,
		Drain:    12 * time.Second,
		Seeds:    []int64{1},
		GenKeys:  3000,
	}
}

func TestClusterPresets(t *testing.T) {
	cfg := fabric.DefaultConfig()
	C1.Apply(&cfg)
	if cfg.Orgs != 2 || cfg.PeersPerOrg != 2 || cfg.Clients != 5 {
		t.Errorf("C1 = %+v", cfg)
	}
	C2.Apply(&cfg)
	if cfg.Orgs != 8 || cfg.PeersPerOrg != 4 || cfg.Clients != 25 {
		t.Errorf("C2 = %+v", cfg)
	}
	if C1.String() != "C1" || C2.String() != "C2" {
		t.Error("cluster names wrong")
	}
}

func TestSystemVariants(t *testing.T) {
	names := map[System]string{
		Fabric14:         "fabric-1.4",
		FabricPP:         "fabric++",
		Streamchain:      "streamchain",
		StreamchainNoRAM: "streamchain-noramdisk",
		FabricSharp:      "fabricsharp",
	}
	for sys, want := range names {
		if got := sys.Variant().Name(); got != want {
			t.Errorf("%v variant = %q, want %q", sys, got, want)
		}
	}
	if len(AllSystems()) != 4 {
		t.Error("AllSystems should list the four compared systems")
	}
}

func TestUseCaseFactories(t *testing.T) {
	for _, name := range []string{"ehr", "dv", "scm", "drm"} {
		f, err := UseCase(name)
		if err != nil {
			t.Fatal(err)
		}
		if f.New().Name() != name {
			t.Errorf("factory %q built %q", name, f.New().Name())
		}
		if f.Workload(1) == nil {
			t.Errorf("factory %q has no workload", name)
		}
	}
	if _, err := UseCase("nope"); err == nil {
		t.Error("unknown chaincode accepted")
	}
}

// TestGeneratorValidatesSkew pins the outside-input path: a skew the
// Zipfian sampler would panic on (or silently accept as NaN) is an
// error, for the use-case and the generated chaincodes alike.
func TestGeneratorValidatesSkew(t *testing.T) {
	for _, f := range append([]CCFactory{GenChain(gen.UniformRU, 500)}, useCases...) {
		for _, skew := range []float64{-1, math.NaN(), math.Inf(1)} {
			if g, err := f.Generator(skew); err == nil || g != nil {
				t.Errorf("%s: Generator(%v) = %v, %v; want an error", f.Name, skew, g, err)
			}
		}
		if g, err := f.Generator(0); err != nil || g == nil {
			t.Errorf("%s: Generator(0) = %v, %v", f.Name, g, err)
		}
	}
}

func TestGenChainFactory(t *testing.T) {
	f := GenChain(gen.UpdateHeavy, 500)
	if f.New().Name() != "genChain" {
		t.Errorf("genChain factory name = %q", f.New().Name())
	}
}

func TestRunAveragesSeeds(t *testing.T) {
	o := tinyOptions()
	o.Seeds = []int64{1, 2}
	res, err := o.Run(func(seed int64) fabric.Config {
		cfg := baseConfig(C1, EHR, 1, Fabric14)(seed)
		cfg.Rate = 30
		return cfg
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total < 100 {
		t.Errorf("averaged total %.0f too small", res.Total)
	}
	if res.FailurePct <= 0 || res.LatencySec <= 0 {
		t.Errorf("suspicious result %+v", res)
	}
}

func TestRunRequiresSeeds(t *testing.T) {
	o := tinyOptions()
	o.Seeds = nil
	if _, err := o.Run(nil); err == nil {
		t.Fatal("no-seed options accepted")
	}
}

func TestBestWorst(t *testing.T) {
	row := map[int]Result{
		10:  {FailurePct: 30},
		50:  {FailurePct: 10},
		100: {FailurePct: 50},
		150: {FailurePct: 20},
		200: {FailurePct: 40},
	}
	best, worst, least, most := bestWorst(row)
	if best != 50 || worst != 100 || least != 10 || most != 50 {
		t.Errorf("bestWorst = %d %d %.0f %.0f", best, worst, least, most)
	}
}

func TestTable2IsStatic(t *testing.T) {
	out, err := Table2(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"addEhr", "vote", "queryASN", "calcRevenue", "*"} {
		if !strings.Contains(out, want) {
			t.Errorf("table2 missing %q", want)
		}
	}
}

func TestLookup(t *testing.T) {
	if _, err := Lookup("fig7"); err != nil {
		t.Fatal(err)
	}
	if _, err := Lookup("fig99"); err == nil {
		t.Fatal("unknown experiment found")
	}
	seen := map[string]bool{}
	for _, e := range Experiments() {
		if seen[e.ID] {
			t.Errorf("duplicate experiment id %s", e.ID)
		}
		seen[e.ID] = true
		if e.Run == nil || e.Title == "" {
			t.Errorf("experiment %s incomplete", e.ID)
		}
	}
	if len(seen) != 30 {
		t.Errorf("%d experiments, want 30 (2 tables + 23 figures + retry-policies + retry-cotune + retry-coordination + scale + faults)", len(seen))
	}
}

// TestFig7ShapeQuick checks the inverse relation of inter vs
// intra-block conflicts with block size on a reduced sweep.
func TestFig7ShapeQuick(t *testing.T) {
	o := tinyOptions()
	o.Duration = 15 * time.Second
	runBS := func(bs int) Result {
		res, err := o.Run(func(seed int64) fabric.Config {
			cfg := baseConfig(C1, EHR, 1, Fabric14)(seed)
			cfg.Rate = 100
			cfg.BlockSize = bs
			return cfg
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	// Compare block sizes that actually fill before the batch timeout
	// at 100 tps, so the classification shift (not the timeout wait)
	// drives the difference.
	small, large := runBS(10), runBS(100)
	if large.IntraPct <= small.IntraPct {
		t.Errorf("intra-block: bs10=%.2f%% bs200=%.2f%%, want increase with block size",
			small.IntraPct, large.IntraPct)
	}
	if large.InterPct >= small.InterPct {
		t.Errorf("inter-block: bs10=%.2f%% bs200=%.2f%%, want decrease with block size",
			small.InterPct, large.InterPct)
	}
}

// TestFig15ShapeQuick checks failures grow with skew.
func TestFig15ShapeQuick(t *testing.T) {
	o := tinyOptions()
	runSkew := func(skew float64) Result {
		cc := GenChain(gen.UniformRU, o.GenKeys)
		res, err := o.Run(func(seed int64) fabric.Config {
			cfg := baseConfig(C1, cc, skew, Fabric14)(seed)
			cfg.Rate = 50
			return cfg
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	s0, s2 := runSkew(0), runSkew(2)
	if s2.FailurePct <= s0.FailurePct {
		t.Errorf("failures: skew0=%.2f%% skew2=%.2f%%, want growth with skew",
			s0.FailurePct, s2.FailurePct)
	}
}

func TestRetryPoliciesExperimentRegistered(t *testing.T) {
	e, err := Lookup("retry-policies")
	if err != nil {
		t.Fatal(err)
	}
	if e.Run == nil || !strings.Contains(e.Title, "retry") {
		t.Errorf("experiment = %+v", e)
	}
}

func TestRetryGridShape(t *testing.T) {
	cells := retryGrid(false)
	if len(retryLadder) < 3 || len(RetrySkews) < 3 {
		t.Fatalf("acceptance needs >= 3 policies x 3 skews, got %d x %d",
			len(retryLadder), len(RetrySkews))
	}
	// Policy names must be distinct (they are table keys) and label
	// their rungs.
	names := map[string]bool{}
	for _, r := range retryLadder {
		if names[r.Label] || r.Label != r.Retry.Name() {
			t.Errorf("rung %q: duplicate, or not its policy's name %q", r.Label, r.Retry.Name())
		}
		names[r.Label] = true
	}
	// Every chaincode covers the full policy x skew plane.
	type pair struct {
		cc, pol string
		skew    float64
	}
	seen := map[pair]bool{}
	for _, c := range cells {
		seen[pair{c.cc.Name, c.ctl.Retry.Name(), c.skew}] = true
	}
	for _, cc := range []string{"ehr", "dv", "scm", "drm"} {
		for _, r := range retryLadder {
			for _, skew := range RetrySkews {
				if !seen[pair{cc, r.Label, skew}] {
					t.Errorf("grid misses cell %s/%s/skew=%v", cc, r.Label, skew)
				}
			}
		}
	}
	// The block-size axis is exercised on the cheap chaincodes.
	bs := map[int]bool{}
	for _, c := range cells {
		if c.cc.Name == "ehr" {
			bs[c.bs] = true
		}
	}
	if len(bs) < 2 {
		t.Errorf("EHR sweeps %d block sizes, want >= 2", len(bs))
	}
	// Grid enumeration is deterministic (it feeds a golden table).
	again := retryGrid(false)
	if len(again) != len(cells) {
		t.Fatalf("grid size unstable: %d vs %d", len(again), len(cells))
	}
	for i := range cells {
		if cells[i].cc.Name != again[i].cc.Name || cells[i].ctl.Retry.Name() != again[i].ctl.Retry.Name() ||
			cells[i].skew != again[i].skew || cells[i].bs != again[i].bs {
			t.Fatalf("grid order unstable at %d: %+v vs %+v", i, cells[i], again[i])
		}
	}
}

// TestControlApplyReplacesWholeStack: applying a rung replaces the
// config's whole control plane, so a rung that leaves a subsystem out
// switches it off whatever rung was applied before — on every ladder,
// and for whatever field fabric.Control grows next.
func TestControlApplyReplacesWholeStack(t *testing.T) {
	var both Rung
	for _, r := range coordinationLadder {
		if r.Label == "hinted-both" {
			both = r
		}
	}
	if both.Backpressure == nil || both.Gossip == nil || both.HintSource != fabric.HintBoth {
		t.Fatalf("hinted-both rung not found or not a full stack: %+v", both)
	}
	cfg := fabric.DefaultConfig()
	both.Apply(&cfg)
	cfg.SplitSignal = &fabric.SplitSignal{}
	cfg.RetryBudget = &fabric.RetryBudget{}

	rungAIMD.Apply(&cfg)
	if cfg.Backpressure != nil || cfg.Gossip != nil || cfg.HintSource != "" || cfg.SplitSignal != nil || cfg.RetryBudget != nil {
		t.Errorf("aimd after hinted-both left a subsystem behind: %+v", cfg.Control)
	}
	for _, ladder := range [][]Rung{cotuneLadder, coordinationLadder, faultLadder} {
		for _, r := range ladder {
			both.Apply(&cfg)
			r.Apply(&cfg)
			if !reflect.DeepEqual(cfg.Control, r.Control) {
				t.Errorf("%s: config control %+v, want the rung's %+v", r.Label, cfg.Control, r.Control)
			}
		}
	}
	if d := fabric.DefaultConfig(); cfg.BlockSize != d.BlockSize || cfg.Rate != d.Rate {
		t.Error("Apply touched a non-control field")
	}
}

// TestLookupRung: every rung of every ladder the studies run is found
// by its label, with the very control that ladder runs, so no two
// ladders give one label two controls; an unknown label is an error
// that lists them all.
func TestLookupRung(t *testing.T) {
	labels := map[string]bool{}
	for _, ladder := range [][]Rung{retryLadder, cotuneLadder, coordinationLadder, faultLadder} {
		for _, r := range ladder {
			got, err := LookupRung(r.Label)
			if err != nil || !reflect.DeepEqual(got, r) {
				t.Errorf("LookupRung(%q) = %+v, %v; want the ladder's %+v", r.Label, got, err, r)
			}
			labels[r.Label] = true
		}
	}
	if len(Rungs()) != len(labels) {
		t.Errorf("Rungs lists %d rungs, the ladders %d labels", len(Rungs()), len(labels))
	}
	_, err := LookupRung("nope")
	for label := range labels {
		if err == nil || !strings.Contains(err.Error(), label) {
			t.Errorf("LookupRung(nope) = %v, want an error listing %q", err, label)
		}
	}
}

// TestResultIsAllFloat64 guards the assumption behind Result.add and
// Result.scale: they loop over the fields as float64, so a field of
// any other type must be aggregated some other way first.
func TestResultIsAllFloat64(t *testing.T) {
	rt := reflect.TypeOf(Result{})
	for i := 0; i < rt.NumField(); i++ {
		if f := rt.Field(i); f.Type.Kind() != reflect.Float64 {
			t.Errorf("Result.%s is %v: add/scale only aggregate float64 fields", f.Name, f.Type)
		}
	}
}

// TestResultLayoutIsPinnedByBench: the frozen benchmark module hashes
// fmt's %+v of a []Result for its sweep-systems digest, and Result has
// no String method, so its field names and their order are part of
// bench/expected.json. (metrics.Report is not: it prints through its
// String method.)
func TestResultLayoutIsPinnedByBench(t *testing.T) {
	const want = "{Total:0 Committed:0 FailurePct:0 EndorsementPct:0 IntraPct:0 InterPct:0 MVCCPct:0 " +
		"PhantomPct:0 AbortedPct:0 LatencySec:0 Throughput:0 Goodput:0 RetryAmp:0 EndToEndSec:0 GaveUpPct:0 " +
		"BudgetExhausted:0 DeferredRetries:0 MaxDeferred:0 AdaptiveBackSec:0 HintAvg:0 HintFinal:0 Paced:0 " +
		"PacedSec:0 GossipMsgs:0 GossipMerges:0 GossipEstAvg:0 GossipEstFinal:0 GossipStaleSec:0 " +
		"ConflictEstAvg:0 ConflictEstFinal:0 CongestEstAvg:0 CongestEstFinal:0 FaultWindows:0 DowntimeSec:0 " +
		"EndorseTOs:0 SubmitTOs:0 Orphans:0 RecoverySec:0}"
	if got := fmt.Sprintf("%+v", Result{}); got != want {
		t.Errorf("Result's %%+v layout changed:\n got %s\nwant %s\n"+
			"adding, renaming or reordering a Result field moves bench/expected.json's sweep-systems digests: "+
			"re-pin them in a benchmark-only PR first", got, want)
	}
}

// TestResultAddScaleTouchEveryField catches the "forgot the new metric"
// bug: with a distinct value in every field, add and scale must change
// every one of them.
func TestResultAddScaleTouchEveryField(t *testing.T) {
	var a, b Result
	av, bv := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := 0; i < av.NumField(); i++ {
		av.Field(i).SetFloat(float64(i + 1))
		bv.Field(i).SetFloat(float64(100 * (i + 1)))
	}
	sum, half := reflect.ValueOf(a.add(b)), reflect.ValueOf(a.scale(0.5))
	for i := 0; i < av.NumField(); i++ {
		name := av.Type().Field(i).Name
		if got, want := sum.Field(i).Float(), float64(101*(i+1)); got != want {
			t.Errorf("add: %s = %g, want %g", name, got, want)
		}
		if got, want := half.Field(i).Float(), float64(i+1)/2; got != want {
			t.Errorf("scale: %s = %g, want %g", name, got, want)
		}
	}
	if a.Total != 1 || b.Total != 100 {
		t.Error("add/scale mutated their receiver or argument")
	}
}
