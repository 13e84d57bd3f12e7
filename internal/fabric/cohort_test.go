package fabric

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/ledger"
	"repro/internal/metrics"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata goldens from the current implementation")

// allCodes enumerates every validation code in declaration order, for
// stable fingerprints.
var allCodes = []ledger.ValidationCode{
	ledger.Valid, ledger.MVCCConflictInterBlock, ledger.MVCCConflictIntraBlock,
	ledger.PhantomReadConflict, ledger.EndorsementPolicyFailure, ledger.AbortedInOrdering,
}

// fingerprint renders everything behaviour-relevant about a finished
// run — counts, latencies at nanosecond precision, effective metrics,
// and each channel's chain height and final hash — so two runs are
// byte-identical iff their fingerprints match.
func fingerprint(nw *Network, rep metrics.Report) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "total=%d committed=%d valid=%d", rep.Total, rep.Committed, rep.Valid)
	for _, code := range allCodes {
		fmt.Fprintf(&sb, " %s=%d", code, rep.Counts[code])
	}
	fmt.Fprintf(&sb, " jobs=%d attempts=%d eventual=%d firstvalid=%d gaveup=%d",
		rep.Jobs, rep.Attempts, rep.EventualValid, rep.FirstAttemptValid, rep.GaveUp)
	fmt.Fprintf(&sb, " avglat=%d maxlat=%d p50=%d p95=%d e2e=%d",
		int64(rep.AvgLatency), int64(rep.MaxLatency),
		int64(rep.P50Latency), int64(rep.P95Latency), int64(rep.AvgEndToEnd))
	fmt.Fprintf(&sb, " tput=%.6f goodput=%.6f amp=%.6f blocks=%d",
		rep.Throughput, rep.Goodput, rep.RetryAmplification, rep.Blocks)
	for ch, chain := range nw.Chains() {
		last := chain.Block(chain.Height() - 1)
		fmt.Fprintf(&sb, " ch%d=%d/%x", ch, chain.Height(), last.Hash[:8])
	}
	return sb.String()
}

// cohortEquivConfig is the locked equivalence regime: a closed-loop
// EHR run with a stateless backoff policy and none of the shared-state
// subsystems (budget, gossip, backpressure, adaptive policy), the
// conditions under which cohort drivers make exactly the decisions the
// exact simulation makes.
func cohortEquivConfig(seed int64, cohortSize int) Config {
	cfg := testConfig(seed)
	cfg.Clients = 6
	cfg.ClosedLoop = true
	cfg.InFlightPerClient = 2
	cfg.Duration = 10 * time.Second
	cfg.Drain = 10 * time.Second
	cfg.Retry = ExponentialBackoff{
		Initial:     200 * time.Millisecond,
		Cap:         2 * time.Second,
		MaxAttempts: 4,
		Jitter:      0.2,
	}
	cfg.CohortSize = cohortSize
	return cfg
}

// TestCohortExactEquivalence locks the cohort driver against the exact
// simulation at small N: with a stateless retry policy and no shared
// budget/gossip/pacer state, a 6-client run split into two 3-member
// cohorts must be byte-identical — same rng draw order, same
// transaction ids, same chain — to the same run with six exact
// clients. The exact run's fingerprint is additionally locked in
// testdata/golden_cohort.txt so both modes are pinned to history, not
// merely to each other; regenerate intended changes with
//
//	go test ./internal/fabric -run TestCohortExactEquivalence -update-golden
//
// The two runs are the corpus's cohort-ehr regime and the varied run of
// its cohort-equals-exact pin; the pins table holds the other three
// chaincodes to the same equivalence.
func TestCohortExactEquivalence(t *testing.T) {
	if m := pinned(t, "cohort-equals-exact/ehr").members; len(m) != 2 || m[0] != 3 {
		t.Fatalf("expected 2 cohorts of 3 members, got drivers of %v", m)
	}
	exact := runOf(t, "cohort-ehr").fingerprint

	got := exact + "\n"
	path := filepath.Join("testdata", "golden_cohort.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("equivalence golden drift:\n got: %s\nwant: %s",
			strings.TrimRight(got, "\n"), strings.TrimRight(string(want), "\n"))
	}
}

// TestCohortUnevenSplit pins the remainder handling: a client count
// that does not divide by the cohort size still drives every client
// exactly once (the last cohort takes the remainder).
func TestCohortUnevenSplit(t *testing.T) {
	cfg := cohortEquivConfig(3, 4) // 6 clients in cohorts of 4 -> 4 + 2
	nw, _ := run(t, cfg)
	drivers := nw.Drivers()
	if len(drivers) != 2 {
		t.Fatalf("drivers = %d, want 2", len(drivers))
	}
	if drivers[0].Members() != 4 || drivers[1].Members() != 2 {
		t.Errorf("cohort sizes = %d,%d, want 4,2", drivers[0].Members(), drivers[1].Members())
	}
}

// TestCohortOpenLoopAggregate checks the open-loop approximation: one
// aggregate Poisson process per cohort must carry the same offered
// load as the members' independent processes (superposition), so the
// totals of a cohort run track the exact run within sampling noise.
func TestCohortOpenLoopAggregate(t *testing.T) {
	base := testConfig(5)
	base.Clients = 20
	_, exact := run(t, base)

	cohorted := base
	cohorted.CohortSize = 5
	_, approx := run(t, cohorted)

	if exact.Total == 0 || approx.Total == 0 {
		t.Fatalf("no traffic: exact=%d cohort=%d", exact.Total, approx.Total)
	}
	ratio := float64(approx.Total) / float64(exact.Total)
	if ratio < 0.85 || ratio > 1.15 {
		t.Errorf("cohort offered load off by %0.f%%: exact=%d cohort=%d",
			100*(ratio-1), exact.Total, approx.Total)
	}
	if diff := approx.FailurePct - exact.FailurePct; diff < -15 || diff > 15 {
		t.Errorf("failure mix drifted: exact=%.2f%% cohort=%.2f%%",
			exact.FailurePct, approx.FailurePct)
	}
}

// liveHeapAfterRun builds and runs cfg, then reports the live heap
// with the network still reachable — the steady-state footprint of
// that population size.
func liveHeapAfterRun(t *testing.T, cfg Config) uint64 {
	t.Helper()
	nw, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	nw.Run()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(nw)
	return ms.HeapAlloc
}

// TestCohortMemoryFlatness is the scale regression: growing the
// simulated population 100× (10^3 to 10^5 clients) under cohort
// drivers must grow the live heap by only a few bytes per added
// client, because per-member state is one rotation counter —
// everything else is amortized across the cohort. An accidental
// per-member allocation (map entry, slice, driver object) blows the
// bound immediately. The bound is on the growth, not on a ratio to the
// 10^3 heap, so it does not move when the fixed world-state footprint
// does.
func TestCohortMemoryFlatness(t *testing.T) {
	mk := func(clients int) Config {
		cfg := testConfig(9)
		cfg.Clients = clients
		cfg.CohortSize = clients / 100
		cfg.Duration = 2 * time.Second
		cfg.Drain = 2 * time.Second
		return cfg
	}
	h3 := liveHeapAfterRun(t, mk(1_000))
	h5 := liveHeapAfterRun(t, mk(100_000))
	const maxBytesPerClient = 16.0
	if perClient := (float64(h5) - float64(h3)) / 99_000; perClient > maxBytesPerClient {
		t.Errorf("heap grew %.1f B per added client from 10^3 to 10^5 clients (%.1f MiB -> %.1f MiB), pinned max %.0f B",
			perClient, float64(h3)/(1<<20), float64(h5)/(1<<20), maxBytesPerClient)
	}
}
