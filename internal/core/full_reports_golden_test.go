package core

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/ledger"
	"repro/internal/metrics"
)

// fullReportValues names every numeric value a metrics.Report carries.
// The names are spelled here, not derived from field names, so a
// reshape of Report changes only the getters: the golden file must not
// move. A sampled stream appears as the summary values Report had
// fields for when the file was first written, before the streams were
// Series values (mean, peak and last sample; count and sum for some):
// the file was generated from that shape and held under the reshape.
var fullReportValues = []struct {
	name string
	get  func(r *metrics.Report) interface{}
}{
	{"total", func(r *metrics.Report) interface{} { return r.Total }},
	{"committed", func(r *metrics.Report) interface{} { return r.Committed }},
	{"valid", func(r *metrics.Report) interface{} { return r.Valid }},
	{"failure_pct", func(r *metrics.Report) interface{} { return r.FailurePct }},
	{"endorsement_pct", func(r *metrics.Report) interface{} { return r.EndorsementPct }},
	{"mvcc_pct", func(r *metrics.Report) interface{} { return r.MVCCPct }},
	{"intra_block_pct", func(r *metrics.Report) interface{} { return r.IntraBlockPct }},
	{"inter_block_pct", func(r *metrics.Report) interface{} { return r.InterBlockPct }},
	{"phantom_pct", func(r *metrics.Report) interface{} { return r.PhantomPct }},
	{"aborted_pct", func(r *metrics.Report) interface{} { return r.AbortedPct }},
	{"served_reads", func(r *metrics.Report) interface{} { return r.ServedReads }},
	{"latency.avg", func(r *metrics.Report) interface{} { return r.AvgLatency }},
	{"latency.max", func(r *metrics.Report) interface{} { return r.MaxLatency }},
	{"latency.p50", func(r *metrics.Report) interface{} { return r.P50Latency }},
	{"latency.p95", func(r *metrics.Report) interface{} { return r.P95Latency }},
	{"throughput_tps", func(r *metrics.Report) interface{} { return r.Throughput }},
	{"duration", func(r *metrics.Report) interface{} { return r.Duration }},
	{"blocks", func(r *metrics.Report) interface{} { return r.Blocks }},
	{"jobs", func(r *metrics.Report) interface{} { return r.Jobs }},
	{"jobs.eventual_valid", func(r *metrics.Report) interface{} { return r.EventualValid }},
	{"jobs.gave_up", func(r *metrics.Report) interface{} { return r.GaveUp }},
	{"jobs.attempts", func(r *metrics.Report) interface{} { return r.Attempts }},
	{"jobs.first_attempt_valid", func(r *metrics.Report) interface{} { return r.FirstAttemptValid }},
	{"goodput_tps", func(r *metrics.Report) interface{} { return r.Goodput }},
	{"retry_amplification", func(r *metrics.Report) interface{} { return r.RetryAmplification }},
	{"end_to_end.avg", func(r *metrics.Report) interface{} { return r.AvgEndToEnd }},
	{"budget.exhausted", func(r *metrics.Report) interface{} { return r.BudgetExhausted }},
	{"budget.deferred", func(r *metrics.Report) interface{} { return r.DeferredRetries }},
	{"budget.max_deferred_depth", func(r *metrics.Report) interface{} { return r.MaxDeferredDepth }},
	{"backoff.avg", func(r *metrics.Report) interface{} { return r.Backoff.Avg() }},
	{"backoff.max", func(r *metrics.Report) interface{} { return r.Backoff.Max }},
	{"backoff.last", func(r *metrics.Report) interface{} { return r.Backoff.Last }},
	{"hint.avg", func(r *metrics.Report) interface{} { return r.Hint.Avg() }},
	{"hint.max", func(r *metrics.Report) interface{} { return r.Hint.Max }},
	{"hint.last", func(r *metrics.Report) interface{} { return r.Hint.Last }},
	{"paced_submissions", func(r *metrics.Report) interface{} { return r.PacedSubmissions }},
	{"paced.sum", func(r *metrics.Report) interface{} { return r.Paced.Sum }},
	{"paced.max", func(r *metrics.Report) interface{} { return r.Paced.Max }},
	{"gossip.messages", func(r *metrics.Report) interface{} { return r.GossipMessages }},
	{"gossip.merges", func(r *metrics.Report) interface{} { return r.GossipMerges }},
	{"gossip_estimate.avg", func(r *metrics.Report) interface{} { return r.GossipEstimate.Avg() }},
	{"gossip_estimate.max", func(r *metrics.Report) interface{} { return r.GossipEstimate.Max }},
	{"gossip_estimate.last", func(r *metrics.Report) interface{} { return r.GossipEstimate.Last }},
	{"gossip_staleness.n", func(r *metrics.Report) interface{} { return r.GossipStaleness.N }},
	{"gossip_staleness.avg", func(r *metrics.Report) interface{} { return r.GossipStaleness.Avg() }},
	{"gossip_staleness.max", func(r *metrics.Report) interface{} { return r.GossipStaleness.Max }},
	{"conflict_estimate.avg", func(r *metrics.Report) interface{} { return r.ConflictEst.Avg() }},
	{"conflict_estimate.max", func(r *metrics.Report) interface{} { return r.ConflictEst.Max }},
	{"conflict_estimate.last", func(r *metrics.Report) interface{} { return r.ConflictEst.Last }},
	{"congestion_estimate.avg", func(r *metrics.Report) interface{} { return r.CongestEst.Avg() }},
	{"congestion_estimate.max", func(r *metrics.Report) interface{} { return r.CongestEst.Max }},
	{"congestion_estimate.last", func(r *metrics.Report) interface{} { return r.CongestEst.Last }},
	{"faults.windows", func(r *metrics.Report) interface{} { return r.FaultWindows }},
	{"faults.node_crashes", func(r *metrics.Report) interface{} { return r.NodeCrashes }},
	{"faults.node_downtime", func(r *metrics.Report) interface{} { return r.NodeDowntime }},
	{"faults.endorse_timeouts", func(r *metrics.Report) interface{} { return r.EndorseTimeouts }},
	{"faults.submit_timeouts", func(r *metrics.Report) interface{} { return r.SubmitTimeouts }},
	{"faults.orphaned_txs", func(r *metrics.Report) interface{} { return r.OrphanedTxs }},
	{"recovery.n", func(r *metrics.Report) interface{} { return r.Recovery.N }},
	{"recovery.avg", func(r *metrics.Report) interface{} { return r.Recovery.Avg() }},
	{"recovery.max", func(r *metrics.Report) interface{} { return r.Recovery.Max }},
}

// sortedCounts renders one outcome-count map as "prefix.CODE=n" lines
// in validation-code order.
func sortedCounts(prefix string, counts map[ledger.ValidationCode]int) []string {
	codes := make([]int, 0, len(counts))
	for code := range counts {
		codes = append(codes, int(code))
	}
	sort.Ints(codes)
	lines := make([]string, len(codes))
	for i, code := range codes {
		lines[i] = fmt.Sprintf("%s.%v=%d", prefix, ledger.ValidationCode(code), counts[ledger.ValidationCode(code)])
	}
	return lines
}

// fullReportLines is the canonical name=value form of one report:
// every value of fullReportValues in declaration order (%v is exact
// for ints, shortest-round-trip floats and durations), then both maps
// sorted. exercised collects the names whose value is non-zero.
func fullReportLines(rep metrics.Report, exercised map[string]bool) []string {
	var lines []string
	for _, v := range fullReportValues {
		val := v.get(&rep)
		if !reflect.ValueOf(val).IsZero() {
			exercised[v.name] = true
		}
		lines = append(lines, fmt.Sprintf("%s=%v", v.name, val))
	}
	lines = append(lines, sortedCounts("count", rep.Counts)...)
	attempts := make([]int, 0, len(rep.AttemptBreakdown))
	for attempt := range rep.AttemptBreakdown {
		attempts = append(attempts, attempt)
	}
	sort.Ints(attempts)
	for _, attempt := range attempts {
		lines = append(lines, sortedCounts(fmt.Sprintf("attempt.%d", attempt), rep.AttemptBreakdown[attempt])...)
	}
	return lines
}

// TestGoldenFullReports pins every value of whole reports — the table
// golden sees only what a table prints and the benchmark digest sees
// twelve values, so neither can show that a change to internal/metrics
// left the rest alone. Three 10-virtual-second EHR runs between them
// drive every Record* method: the whole client control plane (AIMD
// backoff, adaptive drop budget, backpressure, gossip, HintBoth, split
// signal, served reads) on a wide closed loop over an undersized
// orderer, so hints and pacing climb; the chaos fault scenario under
// the static backoff with a defer-mode budget and a 1 s submit
// deadline, so commits outlive their clients; and the paper's
// fire-and-forget CouchDB default. The quick corpus follows, one
// report per locked QuickOptions cell (quickCells), so any drift in a
// failure percentage, latency, throughput or effective metric of the
// paper's base grid, a control ladder, a fault scenario or the scale
// sweep moves a line. Regenerate intentional changes with
//
//	go test ./internal/core -run TestGoldenFullReports -update-golden
//
// and justify the diff in the commit.
func TestGoldenFullReports(t *testing.T) {
	runs := []namedRun{
		{"controls", on(C1, EHR).with(func(cfg *fabric.Config) {
			cfg.Control = fabric.Control{Retry: aimdPolicy, RetryBudget: adaptiveBucket,
				Backpressure: defaultSignal, Gossip: defaultMesh,
				HintSource: fabric.HintBoth, SplitSignal: defaultSplit}
			cfg.ClosedLoop = true
			cfg.InFlightPerClient = 40
			cfg.OrdererCosts.PerTx = 25 * time.Millisecond
			cfg.SkipReadOnlySubmission = true
		})},
		{"chaos", on(C1, EHR).with(func(cfg *fabric.Config) {
			cfg.Control = fabric.Control{Retry: StaticBackoff, RetryBudget: deferBucket}
			cfg.Faults = &fabric.Faults{Scenario: "chaos", SubmitTimeout: time.Second}
		})},
		{"fireforget", on(C1, EHR).build()},
	}
	reports, err := runNamed(Options{Duration: 10 * time.Second, Drain: 10 * time.Second,
		Seeds: []int64{1}}, runs)
	if err != nil {
		t.Fatal(err)
	}
	cells, quickReports := quickCorpus(t)
	runs, reports = append(runs, cells...), append(reports, quickReports...)

	exercised := map[string]bool{}
	seen := map[string]bool{}
	var lines []string
	for i, run := range runs {
		if seen[run.name] {
			t.Errorf("two runs are named %q", run.name)
		}
		seen[run.name] = true
		for _, line := range fullReportLines(reports[i], exercised) {
			lines = append(lines, run.name+": "+line)
		}
	}
	// A value that is zero in every run is written but not pinned.
	// Every run is Fabric 1.4, which aborts nothing early; the
	// percentage comes out of the same fillPercentages as the rest.
	for _, v := range fullReportValues {
		if !exercised[v.name] && v.name != "aborted_pct" {
			t.Errorf("%s is zero in every run: no run exercises it", v.name)
		}
	}
	checkGolden(t, "golden_full_reports.txt", strings.Join(lines, "\n")+"\n")
}
