package metrics

import (
	"strings"
	"testing"
	"time"

	"repro/internal/ledger"
	"repro/internal/sim"
)

func sec(s int) sim.Time { return sim.Time(time.Duration(s) * time.Second) }

func TestCollectorCountsAndPercentages(t *testing.T) {
	c := NewCollector()
	c.RecordTx(ledger.Valid, sec(0), sec(1))
	c.RecordTx(ledger.Valid, sec(0), sec(2))
	c.RecordTx(ledger.MVCCConflictIntraBlock, sec(1), sec(2))
	c.RecordTx(ledger.MVCCConflictInterBlock, sec(1), sec(3))
	c.RecordTx(ledger.EndorsementPolicyFailure, sec(2), sec(3))
	c.RecordAbort(sec(2), sec(3))

	r := c.Report()
	if r.Total != 6 || r.Committed != 5 || r.Valid != 2 {
		t.Fatalf("totals: %+v", r)
	}
	if r.FailurePct != 100*4.0/6 {
		t.Errorf("FailurePct = %v", r.FailurePct)
	}
	if r.MVCCPct != 100*2.0/6 || r.IntraBlockPct != 100*1.0/6 {
		t.Errorf("MVCC percentages wrong: %+v", r)
	}
	if r.AbortedPct != 100*1.0/6 {
		t.Errorf("AbortedPct = %v", r.AbortedPct)
	}
}

func TestLatencyStats(t *testing.T) {
	c := NewCollector()
	for i := 1; i <= 10; i++ {
		c.RecordTx(ledger.Valid, sec(0), sec(i))
	}
	r := c.Report()
	if r.AvgLatency != 5500*time.Millisecond {
		t.Errorf("AvgLatency = %v", r.AvgLatency)
	}
	// Percentiles are histogram estimates: at least the exact order
	// statistic, at most one bucket width (6.25%) above it.
	if p, exact := r.P50Latency, 6*time.Second; p < exact || p > exact+exact/16 {
		t.Errorf("P50 = %v, want within [%v, %v]", p, exact, exact+exact/16)
	}
	// The top percentile is capped at the exact observed maximum.
	if r.P95Latency != 10*time.Second {
		t.Errorf("P95 = %v", r.P95Latency)
	}
	if r.MaxLatency != 10*time.Second {
		t.Errorf("MaxLatency = %v", r.MaxLatency)
	}
	// Duration spans first submit to last commit; throughput follows.
	if r.Duration != 10*time.Second {
		t.Errorf("Duration = %v", r.Duration)
	}
	if r.Throughput != 1.0 {
		t.Errorf("Throughput = %v", r.Throughput)
	}
}

func TestLatencyHistogramGeometry(t *testing.T) {
	// Sub-16ns values get exact unit buckets.
	for d := time.Duration(0); d < histSubCount; d++ {
		if got := bucketUpper(latBucket(d)); got != d {
			t.Errorf("bucketUpper(latBucket(%d)) = %v, want exact", d, got)
		}
	}
	// Larger values land in a bucket whose upper bound is within 6.25%
	// of the value, and never below it.
	for _, d := range []time.Duration{
		16, 17, 255, 1023, time.Microsecond, 37 * time.Millisecond,
		time.Second, 6 * time.Second, 90 * time.Minute, 400 * time.Hour,
	} {
		up := bucketUpper(latBucket(d))
		if up < d {
			t.Errorf("bucket upper %v below recorded value %v", up, d)
		}
		if up > d+d/histSubCount {
			t.Errorf("bucket upper %v more than 1/%d above %v", up, histSubCount, d)
		}
	}
	// Bucket indices are monotone in the value and stay in range.
	prev := -1
	for _, d := range []time.Duration{0, 1, 15, 16, 31, 32, 1000,
		time.Millisecond, time.Second, time.Hour, 1<<62 - 1} {
		b := latBucket(d)
		if b <= prev {
			t.Errorf("latBucket(%v) = %d not monotone after %d", d, b, prev)
		}
		if b < 0 || b >= histBuckets {
			t.Fatalf("latBucket(%v) = %d out of range [0,%d)", d, b, histBuckets)
		}
		prev = b
	}
}

func TestServedReadsExcludedFromChainCounts(t *testing.T) {
	c := NewCollector()
	c.RecordTx(ledger.Valid, sec(0), sec(1))
	c.RecordServedRead(sec(0), sec(1))
	r := c.Report()
	if r.Total != 1 || r.Committed != 1 {
		t.Fatalf("served read leaked into chain counts: %+v", r)
	}
	if r.ServedReads != 1 {
		t.Fatalf("ServedReads = %d", r.ServedReads)
	}
}

func TestEmptyReport(t *testing.T) {
	r := NewCollector().Report()
	if r.Total != 0 || r.FailurePct != 0 || r.AvgLatency != 0 || r.Throughput != 0 {
		t.Errorf("empty report not zeroed: %+v", r)
	}
}

func TestReportString(t *testing.T) {
	c := NewCollector()
	c.RecordTx(ledger.Valid, sec(0), sec(1))
	s := c.Report().String()
	for _, want := range []string{"total=1", "valid=1", "fail=0.00%"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func chainWith(t *testing.T, codes ...ledger.ValidationCode) *ledger.Chain {
	t.Helper()
	ch := ledger.NewChain()
	gb := &ledger.Block{Number: 0}
	gb.Hash = gb.ComputeHash()
	if err := ch.Append(gb); err != nil {
		t.Fatal(err)
	}
	var txs []*ledger.Transaction
	for i := range codes {
		txs = append(txs, &ledger.Transaction{
			ID:    string(rune('a' + i)),
			RWSet: &ledger.RWSet{},
		})
	}
	b := &ledger.Block{Number: 1, PrevHash: gb.Hash, Transactions: txs, ValidationCodes: codes}
	b.Hash = b.ComputeHash()
	if err := ch.Append(b); err != nil {
		t.Fatal(err)
	}
	return ch
}

// TestParseChain parses a one-block chain into a report through
// RecordChain: counts and percentages come off the validation codes.
func TestParseChain(t *testing.T) {
	c := NewCollector()
	c.RecordChain(chainWith(t,
		ledger.Valid, ledger.Valid, ledger.MVCCConflictIntraBlock,
		ledger.PhantomReadConflict))
	r := c.Report()
	if r.Total != 4 || r.Valid != 2 || r.Blocks != 1 {
		t.Fatalf("parsed %+v", r)
	}
	if r.PhantomPct != 25 || r.IntraBlockPct != 25 {
		t.Errorf("percentages %+v", r)
	}
}

func TestParseChainSkipsGenesis(t *testing.T) {
	ch := ledger.NewChain()
	gb := &ledger.Block{Number: 0}
	gb.Hash = gb.ComputeHash()
	if err := ch.Append(gb); err != nil {
		t.Fatal(err)
	}
	c := NewCollector()
	c.RecordChain(ch)
	if r := c.Report(); r.Total != 0 || r.Blocks != 0 || r.Duration != 0 {
		t.Errorf("genesis counted: %+v", r)
	}
}

// TestRecordChain walks a chain whose one block commits at 5 s four
// transactions submitted at 0-3 s, merged with an ordering abort
// submitted at 4 s and resolved at 6 s: every chain-level figure,
// latencies and rates included, comes off the chain.
func TestRecordChain(t *testing.T) {
	c := NewCollector()
	ch := chainWith(t,
		ledger.Valid, ledger.Valid, ledger.MVCCConflictIntraBlock,
		ledger.PhantomReadConflict)
	b := ch.Block(1)
	b.CommitTime = sec(5)
	for i, tx := range b.Transactions {
		tx.SubmitTime = sec(i) // latencies 5, 4, 3 and 2 s
	}
	c.RecordChain(ch)
	c.RecordAbort(sec(4), sec(6)) // latency 2 s
	r := c.Report()
	if r.Total != 5 || r.Committed != 4 || r.Valid != 2 || r.Blocks != 1 {
		t.Fatalf("counts %+v", r)
	}
	if r.PhantomPct != 20 || r.IntraBlockPct != 20 || r.AbortedPct != 20 || r.FailurePct != 60 {
		t.Errorf("percentages %+v", r)
	}
	if r.AvgLatency != 3200*time.Millisecond || r.MaxLatency != 5*time.Second {
		t.Errorf("mean %v, max %v; want 3.2s and 5s", r.AvgLatency, r.MaxLatency)
	}
	if p, exact := r.P50Latency, 3*time.Second; p < exact || p > exact+exact/16 {
		t.Errorf("P50 = %v, want within [%v, %v]", p, exact, exact+exact/16)
	}
	if r.P95Latency != 5*time.Second {
		t.Errorf("P95 = %v, want the 5s maximum", r.P95Latency)
	}
	// The window runs from the first submission to the abort's end.
	if r.Duration != 6*time.Second || r.Throughput != 4.0/6 || r.Goodput != 2.0/6 {
		t.Errorf("duration %v, throughput %v, goodput %v; want 6s, 4/6 and 2/6 tps",
			r.Duration, r.Throughput, r.Goodput)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("name", "value")
	tb.AddRow("alpha", 3.14159)
	tb.AddRow("b", 1500*time.Millisecond)
	tb.AddRow("c", 42)
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("table has %d lines:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "name") || !strings.Contains(lines[1], "---") {
		t.Errorf("header/separator wrong:\n%s", out)
	}
	if !strings.Contains(out, "3.14") {
		t.Errorf("float not formatted: %s", out)
	}
	if !strings.Contains(out, "1.5s") {
		t.Errorf("duration not rounded: %s", out)
	}
	// Columns aligned: every line at least as wide as the header.
	for i, l := range lines {
		if len(l) < len("name") {
			t.Errorf("line %d too short: %q", i, l)
		}
	}
}

func TestEffectiveMetricsFromJobs(t *testing.T) {
	c := NewCollector()
	// Job A: fails twice (intra, inter), commits on attempt 3.
	c.RecordAttempt(1, ledger.MVCCConflictIntraBlock)
	c.RecordAttempt(2, ledger.MVCCConflictInterBlock)
	c.RecordAttempt(3, ledger.Valid)
	c.RecordJob(3, true, sec(0), sec(6))
	// Job B: commits first try.
	c.RecordAttempt(1, ledger.Valid)
	c.RecordJob(1, true, sec(1), sec(2))
	// Job C: fails once, client gives up.
	c.RecordAttempt(1, ledger.PhantomReadConflict)
	c.RecordJob(1, false, sec(2), sec(4))
	// Chain-level view: the attempts that reached the chain.
	for _, code := range []ledger.ValidationCode{
		ledger.MVCCConflictIntraBlock, ledger.MVCCConflictInterBlock,
		ledger.Valid, ledger.Valid, ledger.PhantomReadConflict,
	} {
		c.RecordTx(code, sec(0), sec(6))
	}

	r := c.Report()
	if r.Jobs != 3 || r.EventualValid != 2 || r.GaveUp != 1 {
		t.Fatalf("jobs: %+v", r)
	}
	if r.Attempts != 5 {
		t.Errorf("Attempts = %d, want 5", r.Attempts)
	}
	if r.FirstAttemptValid != 1 {
		t.Errorf("FirstAttemptValid = %d, want 1 (only job B)", r.FirstAttemptValid)
	}
	if want := 5.0 / 3; r.RetryAmplification != want {
		t.Errorf("RetryAmplification = %v, want %v", r.RetryAmplification, want)
	}
	// End-to-end: (6 + 1 + 2) / 3 seconds.
	if want := 3 * time.Second; r.AvgEndToEnd != want {
		t.Errorf("AvgEndToEnd = %v, want %v", r.AvgEndToEnd, want)
	}
	// Goodput: 1 first-try success over the 6s window.
	if want := 1.0 / 6; r.Goodput != want {
		t.Errorf("Goodput = %v, want %v", r.Goodput, want)
	}
	if r.AttemptBreakdown[1][ledger.Valid] != 1 ||
		r.AttemptBreakdown[1][ledger.MVCCConflictIntraBlock] != 1 ||
		r.AttemptBreakdown[3][ledger.Valid] != 1 {
		t.Errorf("breakdown: %v", r.AttemptBreakdown)
	}
}

func TestEffectiveMetricsFallback(t *testing.T) {
	c := NewCollector()
	c.RecordTx(ledger.Valid, sec(0), sec(1))
	c.RecordTx(ledger.Valid, sec(0), sec(2))
	c.RecordTx(ledger.MVCCConflictInterBlock, sec(1), sec(2))
	r := c.Report()
	// Fire-and-forget: every transaction is a single-attempt job.
	if r.Jobs != 3 || r.Attempts != 3 || r.EventualValid != 2 || r.FirstAttemptValid != 2 {
		t.Fatalf("fallback: %+v", r)
	}
	if r.RetryAmplification != 1 {
		t.Errorf("RetryAmplification = %v, want 1", r.RetryAmplification)
	}
	if r.AvgEndToEnd != r.AvgLatency {
		t.Errorf("AvgEndToEnd %v != AvgLatency %v", r.AvgEndToEnd, r.AvgLatency)
	}
	if want := 2.0 / 2; r.Goodput != want { // 2 valid over the 2s window
		t.Errorf("Goodput = %v, want %v", r.Goodput, want)
	}
	if r.GaveUp != 0 || len(r.AttemptBreakdown) != 0 {
		t.Errorf("fallback leaked tracking state: %+v", r)
	}
}

func TestReportStringIncludesEffective(t *testing.T) {
	c := NewCollector()
	c.RecordAttempt(1, ledger.Valid)
	c.RecordJob(1, true, sec(0), sec(1))
	c.RecordTx(ledger.Valid, sec(0), sec(1))
	s := c.Report().String()
	if !strings.Contains(s, "goodput=") || !strings.Contains(s, "amp=") {
		t.Errorf("summary lacks effective metrics: %s", s)
	}
}

func TestFallbackCountsServedReadsAsFirstTrySuccess(t *testing.T) {
	c := NewCollector()
	c.RecordTx(ledger.Valid, sec(0), sec(1))
	c.RecordTx(ledger.MVCCConflictInterBlock, sec(0), sec(2))
	c.RecordServedRead(sec(1), sec(2))
	r := c.Report()
	// Served reads are successful single-attempt jobs in both the
	// tracked and the fire-and-forget view.
	if r.Jobs != 3 || r.Attempts != 3 {
		t.Fatalf("jobs=%d attempts=%d, want 3/3", r.Jobs, r.Attempts)
	}
	if r.EventualValid != 2 || r.FirstAttemptValid != 2 {
		t.Errorf("eventual=%d first=%d, want 2/2 (1 valid + 1 served read)",
			r.EventualValid, r.FirstAttemptValid)
	}
	if r.RetryAmplification != 1 {
		t.Errorf("amplification = %v, want 1", r.RetryAmplification)
	}
}

func TestBudgetAndDeferAccounting(t *testing.T) {
	c := NewCollector()
	c.RecordBudgetExhausted()
	c.RecordBudgetExhausted()
	// Two deferrals overlap (depth 2), a third follows alone.
	c.RecordDeferStart()
	c.RecordDeferStart()
	c.RecordDeferEnd()
	c.RecordDeferEnd()
	c.RecordDeferStart()
	c.RecordDeferEnd()
	// A spurious extra end must not drive the depth negative.
	c.RecordDeferEnd()
	c.RecordDeferStart()
	r := c.Report()
	if r.BudgetExhausted != 2 {
		t.Errorf("exhausted %d, want 2", r.BudgetExhausted)
	}
	if r.DeferredRetries != 4 {
		t.Errorf("deferred %d, want 4", r.DeferredRetries)
	}
	if r.MaxDeferredDepth != 2 {
		t.Errorf("max depth %d, want 2", r.MaxDeferredDepth)
	}
}

func TestBackoffTrajectorySummary(t *testing.T) {
	c := NewCollector()
	r := c.Report()
	if r.Backoff.Avg() != 0 || r.Backoff.Max != 0 || r.Backoff.Last != 0 {
		t.Error("empty collector reported a trajectory")
	}
	c.RecordBackoffSample(100 * time.Millisecond)
	c.RecordBackoffSample(400 * time.Millisecond)
	c.RecordBackoffSample(200 * time.Millisecond)
	r = c.Report()
	if want := (100 + 400 + 200) * time.Millisecond / 3; r.Backoff.Avg() != want {
		t.Errorf("avg %v, want %v", r.Backoff.Avg(), want)
	}
	if r.Backoff.Max != 400*time.Millisecond {
		t.Errorf("max %v, want 400ms", r.Backoff.Max)
	}
	if r.Backoff.Last != 200*time.Millisecond {
		t.Errorf("final %v, want 200ms", r.Backoff.Last)
	}
}

func TestBackpressureSummary(t *testing.T) {
	c := NewCollector()
	r := c.Report()
	if r.Hint.Avg() != 0 || r.Hint.Max != 0 ||
		r.Hint.Last != 0 || r.PacedSubmissions != 0 || r.Paced.Sum != 0 {
		t.Error("empty collector reported backpressure activity")
	}
	c.RecordHintSample(0.2)
	c.RecordHintSample(0.8)
	c.RecordHintSample(0.5)
	c.RecordPaced(300 * time.Millisecond)
	c.RecordPaced(700 * time.Millisecond)
	r = c.Report()
	if want := (0.2 + 0.8 + 0.5) / 3; r.Hint.Avg() != want {
		t.Errorf("hint avg %g, want %g", r.Hint.Avg(), want)
	}
	if r.Hint.Max != 0.8 {
		t.Errorf("hint max %g, want 0.8", r.Hint.Max)
	}
	if r.Hint.Last != 0.5 {
		t.Errorf("hint final %g, want 0.5", r.Hint.Last)
	}
	if r.PacedSubmissions != 2 {
		t.Errorf("paced %d, want 2", r.PacedSubmissions)
	}
	if r.Paced.Sum != time.Second {
		t.Errorf("time paced %v, want 1s", r.Paced.Sum)
	}
}

func TestMaxPacedPauseTracksLargestSinglePause(t *testing.T) {
	c := NewCollector()
	c.RecordPaced(300 * time.Millisecond)
	c.RecordPaced(900 * time.Millisecond)
	c.RecordPaced(100 * time.Millisecond)
	if r := c.Report(); r.Paced.Max != 900*time.Millisecond {
		t.Errorf("max paced pause %v, want 900ms", r.Paced.Max)
	}
}

func TestGossipSummary(t *testing.T) {
	c := NewCollector()
	r := c.Report()
	if r.GossipMessages != 0 || r.GossipMerges != 0 || r.GossipEstimate.Avg() != 0 ||
		r.GossipEstimate.Max != 0 || r.GossipEstimate.Last != 0 ||
		r.GossipStaleness.N != 0 || r.GossipStaleness.Avg() != 0 || r.GossipStaleness.Max != 0 {
		t.Error("empty collector reported gossip activity")
	}
	c.RecordGossipMessage()
	c.RecordGossipMessage()
	c.RecordGossipMessage()
	c.RecordGossipMerge()
	c.RecordGossipSample(0.2)
	c.RecordGossipSample(0.9)
	c.RecordGossipSample(0.4)
	c.RecordGossipUse(100 * time.Millisecond)
	c.RecordGossipUse(500 * time.Millisecond)
	r = c.Report()
	if r.GossipMessages != 3 || r.GossipMerges != 1 {
		t.Errorf("msgs=%d merges=%d, want 3 and 1", r.GossipMessages, r.GossipMerges)
	}
	if want := (0.2 + 0.9 + 0.4) / 3; r.GossipEstimate.Avg() != want {
		t.Errorf("estimate avg %g, want %g", r.GossipEstimate.Avg(), want)
	}
	if r.GossipEstimate.Max != 0.9 || r.GossipEstimate.Last != 0.4 {
		t.Errorf("estimate max=%g final=%g, want 0.9 and 0.4", r.GossipEstimate.Max, r.GossipEstimate.Last)
	}
	if r.GossipStaleness.N != 2 {
		t.Errorf("uses %d, want 2", r.GossipStaleness.N)
	}
	if r.GossipStaleness.Avg() != 300*time.Millisecond || r.GossipStaleness.Max != 500*time.Millisecond {
		t.Errorf("staleness avg=%v max=%v, want 300ms and 500ms",
			r.GossipStaleness.Avg(), r.GossipStaleness.Max)
	}
}
