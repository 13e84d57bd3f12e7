// Package metrics collects and reports the study's performance
// metrics (§4.5): per-failure-type percentages, average total
// transaction latency over failed and successful transactions,
// committed transaction throughput, and latency percentiles. As in the
// paper, the chain-level metrics are read off the finished blockchain
// (RecordChain); only what never reaches the chain — ordering aborts,
// served reads, client events — is recorded as it happens.
package metrics

import (
	"fmt"
	"maps"
	"math/bits"
	"strings"
	"time"

	"repro/internal/ledger"
	"repro/internal/sim"
)

// Latency histogram geometry: durations are binned into 16 linear
// sub-buckets per power of two (an HDR-histogram layout), so any
// recorded latency is reconstructed within 1/16 = 6.25% of its true
// value from a fixed 960-counter array. This replaces the old
// materialized per-transaction latency slice: collector memory stays
// flat no matter how many transactions (or simulated clients) a run
// produces, which is what makes million-client sweeps affordable.
const (
	histSubBits  = 4
	histSubCount = 1 << histSubBits
	histBuckets  = (64 - histSubBits) * histSubCount
)

// latBucket maps a duration to its histogram bucket. Values below
// histSubCount nanoseconds get exact unit buckets; larger values share
// a bucket with at most 6.25% of relative width.
func latBucket(d time.Duration) int {
	if d <= 0 {
		return 0
	}
	v := uint64(d)
	if v < histSubCount {
		return int(v)
	}
	exp := uint(bits.Len64(v)) - 1
	sub := (v >> (exp - histSubBits)) & (histSubCount - 1)
	return (int(exp)-histSubBits+1)*histSubCount + int(sub)
}

// bucketUpper returns the largest duration that maps to bucket i, the
// value percentile estimation reports for the bucket.
func bucketUpper(i int) time.Duration {
	row := i >> histSubBits
	sub := uint64(i & (histSubCount - 1))
	if row == 0 {
		return time.Duration(sub)
	}
	exp := uint(row + histSubBits - 1)
	low := uint64(1)<<exp | sub<<(exp-histSubBits)
	return time.Duration(low + 1<<(exp-histSubBits) - 1)
}

// Collector accumulates per-transaction outcomes during a run. It holds
// the Report it is building — every Record* method writes its counter
// or sample straight into it, so a metric is declared once, in Report —
// plus only the scratch no report shows. All latency state is
// streaming (count/sum/max plus the fixed-size histogram above);
// nothing grows with transaction count.
type Collector struct {
	r Report

	latencySum    time.Duration
	latCount      int64
	latHist       []int64
	firstEvent    sim.Time
	lastEvent     sim.Time
	started       bool
	deferDepth    int           // retries currently waiting for a budget token
	jobLatencySum time.Duration // first submission -> final resolution
}

// Series is a streaming summary of one sampled quantity: count, sum,
// peak and latest sample. Peaks start at zero, which suits every
// stream here (durations and [0,1] estimates are non-negative).
type Series[T time.Duration | float64] struct {
	N              int
	Sum, Max, Last T
}

func (s *Series[T]) add(v T) {
	s.N++
	s.Sum += v
	if v > s.Max {
		s.Max = v
	}
	s.Last = v
}

// Avg is the mean sample, zero for an empty series. Durations divide
// as integers (nanosecond truncation), floats as floats.
func (s Series[T]) Avg() T {
	if s.N == 0 {
		return 0
	}
	return s.Sum / T(s.N)
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{
		r: Report{
			Counts:           map[ledger.ValidationCode]int{},
			AttemptBreakdown: map[int]map[ledger.ValidationCode]int{},
		},
		latHist: make([]int64, histBuckets),
	}
}

func (c *Collector) touch(t sim.Time) {
	if !c.started || t < c.firstEvent {
		c.firstEvent = t
		c.started = true
	}
	if t > c.lastEvent {
		c.lastEvent = t
	}
}

// RecordTx records a transaction that reached the chain with the given
// validation code and end-to-end latency. RecordChain calls it once per
// chain transaction.
func (c *Collector) RecordTx(code ledger.ValidationCode, submit, done sim.Time) {
	c.r.Counts[code]++
	c.r.Total++
	c.r.Committed++
	c.record(submit, done)
}

// RecordChain records a finished chain, the way the paper collects its
// metrics ("by parsing the blockchain after each experiment", §4.5):
// every block after genesis, and each of its transactions with the
// latency from its submission to the block's commit.
func (c *Collector) RecordChain(chain *ledger.Chain) {
	for _, b := range chain.Blocks() {
		if b.Number == 0 {
			continue // genesis
		}
		c.r.Blocks++
		for i, tx := range b.Transactions {
			c.RecordTx(b.ValidationCodes[i], tx.SubmitTime, b.CommitTime)
		}
	}
}

// RecordAbort records a transaction aborted in the ordering phase
// (Fabric++ / FabricSharp early aborts): it never reaches the chain
// but still counts as a failure.
func (c *Collector) RecordAbort(submit, done sim.Time) {
	c.r.Counts[ledger.AbortedInOrdering]++
	c.r.Total++
	c.record(submit, done)
}

func (c *Collector) record(submit, done sim.Time) {
	lat := time.Duration(done - submit)
	c.latencySum += lat
	c.latCount++
	if lat > c.r.MaxLatency {
		c.r.MaxLatency = lat
	}
	c.latHist[latBucket(lat)]++
	c.touch(submit)
	c.touch(done)
}

// percentile estimates the pct-th latency percentile from the
// histogram: the upper bound of the bucket holding the rank the old
// sorted-slice computation would have indexed, capped at the exact
// observed maximum. The estimate is within the bucket width (6.25%)
// above the true order statistic.
func (c *Collector) percentile(pct int64) time.Duration {
	if c.latCount == 0 {
		return 0
	}
	target := c.latCount * pct / 100
	if target >= c.latCount {
		target = c.latCount - 1
	}
	var cum int64
	for i, n := range c.latHist {
		cum += n
		if cum > target {
			if u := bucketUpper(i); u < c.r.MaxLatency {
				return u
			}
			return c.r.MaxLatency
		}
	}
	return c.r.MaxLatency
}

// RecordServedRead records a read-only transaction answered directly
// from the execution phase, never submitted for ordering
// (recommendation #4, §6.1). It counts toward latency but not toward
// chain transactions or failures.
func (c *Collector) RecordServedRead(submit, done sim.Time) {
	c.r.ServedReads++
	c.record(submit, done)
}

// RecordAttempt records the outcome of one submission attempt of a
// tracked logical transaction. attempt is 1-based (1 = the first
// submission); code is Valid for commits and served reads, a failure
// code otherwise.
func (c *Collector) RecordAttempt(attempt int, code ledger.ValidationCode) {
	byCode := c.r.AttemptBreakdown[attempt]
	if byCode == nil {
		byCode = map[ledger.ValidationCode]int{}
		c.r.AttemptBreakdown[attempt] = byCode
	}
	byCode[code]++
	if attempt == 1 && code == ledger.Valid {
		c.r.FirstAttemptValid++
	}
}

// RecordBudgetExhausted counts one resubmission dropped because the
// client's retry budget was empty (token bucket in drop mode). The
// affected job is additionally recorded as given up via RecordJob.
func (c *Collector) RecordBudgetExhausted() { c.r.BudgetExhausted++ }

// RecordDeferStart counts one resubmission entering the deferred
// state: the retry budget lent a token and the retry waits for the
// refill stream. The paired RecordDeferEnd fires when it resubmits.
func (c *Collector) RecordDeferStart() {
	c.r.DeferredRetries++
	c.deferDepth++
	if c.deferDepth > c.r.MaxDeferredDepth {
		c.r.MaxDeferredDepth = c.deferDepth
	}
}

// RecordDeferEnd marks one deferred resubmission leaving the queue.
func (c *Collector) RecordDeferEnd() {
	if c.deferDepth > 0 {
		c.deferDepth--
	}
}

// RecordBackoffSample records the current backoff level of an
// adaptive retry controller after it processed an outcome. The report
// summarizes the sample stream as the AIMD trajectory.
func (c *Collector) RecordBackoffSample(d time.Duration) { c.r.Backoff.add(d) }

// RecordHintSample records the ordering service's smoothed congestion
// hint at one block cut. The report summarizes the sample stream as
// the backpressure-hint trajectory.
func (c *Collector) RecordHintSample(h float64) { c.r.Hint.add(h) }

// RecordPaced counts one submission (a resubmission or a new
// closed-loop job) the backpressure pacer delayed, accumulating the
// extra delay it added on top of policy backoff and think time.
func (c *Collector) RecordPaced(d time.Duration) {
	c.r.PacedSubmissions++
	c.r.Paced.add(d)
}

// RecordGossipMessage counts one gossip message handed to the network
// (one per sampled peer per round).
func (c *Collector) RecordGossipMessage() { c.r.GossipMessages++ }

// RecordGossipMerge counts one received gossip estimate whose decayed
// value beat the receiver's remote view and was adopted.
func (c *Collector) RecordGossipMerge() { c.r.GossipMerges++ }

// RecordGossipSample records one client's congestion estimate at the
// start of one of its gossip rounds. The report summarizes the sample
// stream as the gossip-estimate trajectory.
func (c *Collector) RecordGossipSample(e float64) { c.r.GossipEstimate.add(e) }

// RecordSplitSample records one client's two-component signal
// estimate at the start of one of its gossip rounds (split-signal
// mode). The report summarizes the streams as the conflict and
// congestion estimate trajectories.
func (c *Collector) RecordSplitSample(conflict, congestion float64) {
	c.r.ConflictEst.add(conflict)
	c.r.CongestEst.add(congestion)
}

// RecordGossipUse records one consultation of a client's gossip
// estimate (for pacing or a hint-driven backoff) together with the
// age of the remote information behind it — zero when the client's
// own fresh window dominated the estimate.
func (c *Collector) RecordGossipUse(staleness time.Duration) { c.r.GossipStaleness.add(staleness) }

// RecordFaultWindow counts one fault window opening (any kind).
func (c *Collector) RecordFaultWindow() { c.r.FaultWindows++ }

// RecordNodeDown counts one node crash with its scheduled downtime
// (the window length — recorded at crash onset, since the schedule
// fixes the restart time).
func (c *Collector) RecordNodeDown(d time.Duration) {
	c.r.NodeCrashes++
	c.r.NodeDowntime += d
}

// RecordEndorseTimeout counts one client endorsement deadline expiry.
func (c *Collector) RecordEndorseTimeout() { c.r.EndorseTimeouts++ }

// RecordSubmitTimeout counts one client submission deadline expiry.
func (c *Collector) RecordSubmitTimeout() { c.r.SubmitTimeouts++ }

// RecordOrphan counts one orphaned transaction: it committed as valid
// after its submitting client had already timed out and moved on.
func (c *Collector) RecordOrphan() { c.r.OrphanedTxs++ }

// RecordRecovery records one peer finishing its post-restart ledger
// replay, d after the restart.
func (c *Collector) RecordRecovery(d time.Duration) { c.r.Recovery.add(d) }

// RecordJob records the final resolution of a tracked logical
// transaction: after `attempts` submissions it either committed
// (success) or was abandoned by the retry policy. firstSubmit/done
// bound the end-to-end latency including every resubmission.
func (c *Collector) RecordJob(attempts int, success bool, firstSubmit, done sim.Time) {
	c.r.Jobs++
	c.r.Attempts += attempts
	if success {
		c.r.EventualValid++
	} else {
		c.r.GaveUp++
	}
	c.jobLatencySum += time.Duration(done - firstSubmit)
	c.touch(firstSubmit)
	c.touch(done)
}

// Report summarizes a run. It is the one declaration of every metric:
// a Collector counts and samples directly into these fields, and
// Collector.Report fills in only what is derived from them.
type Report struct {
	Total     int // all finished transactions (committed + aborted)
	Committed int // appended to the chain (valid + failed-in-validation)
	Valid     int
	Counts    map[ledger.ValidationCode]int

	// Percentages over Total, as the paper plots them.
	FailurePct     float64 // all failures
	EndorsementPct float64
	MVCCPct        float64 // inter + intra
	IntraBlockPct  float64
	InterBlockPct  float64
	PhantomPct     float64
	AbortedPct     float64

	// ServedReads counts read-only transactions answered directly
	// from endorsement (never ordered), when the client is configured
	// per recommendation #4.
	ServedReads int

	// AvgLatency and MaxLatency are exact (streaming sum/max); the
	// percentiles are histogram estimates within 6.25% above the true
	// order statistic (see the histogram geometry at the top of the
	// package).
	AvgLatency time.Duration
	MaxLatency time.Duration
	P50Latency time.Duration
	P95Latency time.Duration

	// Throughput is committed transactions per second over the run
	// ("committed transaction throughput", §4.5).
	Throughput float64
	Duration   time.Duration
	Blocks     int

	// Effective client-side metrics (the retry subsystem). A "job" is
	// one logical transaction tracked across resubmissions. With
	// fire-and-forget clients (no retry policy, open loop) these are
	// synthesized from the chain-level counts: every transaction is a
	// single-attempt job.

	// Jobs is the number of resolved logical transactions.
	Jobs int
	// EventualValid counts jobs that eventually committed as valid
	// (including read-only jobs served directly from endorsement).
	EventualValid int
	// GaveUp counts jobs abandoned after exhausting the retry policy.
	GaveUp int
	// Attempts is the total number of submissions across resolved
	// jobs, resubmissions included.
	Attempts int
	// FirstAttemptValid counts jobs that committed on their first
	// submission.
	FirstAttemptValid int
	// Goodput is the first-submission success throughput in tps: the
	// rate of transactions that succeed without any resubmission —
	// work the chain did not have to repeat. Read-only transactions
	// served directly from endorsement count as first-attempt
	// successes, so with SkipReadOnlySubmission enabled Goodput can
	// exceed the committed-transaction Throughput.
	Goodput float64
	// RetryAmplification is Attempts / Jobs: how many submissions the
	// network processed per logical transaction (1.0 = no retries).
	RetryAmplification float64
	// AvgEndToEnd is the mean latency from a job's first submission
	// to its final resolution, resubmission backoffs included.
	AvgEndToEnd time.Duration
	// AttemptBreakdown maps each attempt number (1-based) to its
	// outcome counts: how first submissions fail vs how retries fare.
	// Empty when no tracking was active. Unlike Attempts (which spans
	// resolved jobs only), the breakdown records every attempt whose
	// outcome was observed — including attempts of jobs whose next
	// resubmission was still pending when the run ended — so its
	// totals can slightly exceed Attempts.
	AttemptBreakdown map[int]map[ledger.ValidationCode]int

	// BudgetExhausted counts resubmissions dropped because the
	// client's retry budget (token bucket, drop mode) was empty; each
	// such drop also abandons its job (counted in GaveUp).
	BudgetExhausted int
	// DeferredRetries counts resubmissions that had to wait for a
	// budget token beyond their policy backoff (token bucket, defer
	// mode).
	DeferredRetries int
	// MaxDeferredDepth is the peak number of resubmissions
	// simultaneously parked waiting for budget tokens.
	MaxDeferredDepth int

	// Backoff is the adaptive-backoff trajectory (AdaptivePolicy runs
	// only; empty otherwise): the backoff level after every adjustment
	// made by every client's AIMD controller.
	Backoff Series[time.Duration]

	// Hint is the orderer's congestion-hint trajectory
	// (Config.Backpressure runs only; empty otherwise): the smoothed
	// hint in [0,1] sampled at every block cut.
	Hint Series[float64]
	// PacedSubmissions counts submissions (resubmissions and new
	// closed-loop jobs) the pacer delayed, and Paced holds the pauses:
	// Paced.N equals PacedSubmissions, Paced.Sum is the total extra
	// delay the shared signal injected across all clients, and
	// Paced.Max the largest single pause — by construction never above
	// the pacer's 2 s cap.
	PacedSubmissions int
	Paced            Series[time.Duration]

	// Gossip summary (Config.Gossip runs only; zero otherwise):
	// message and merge counters, the estimate trajectory in [0,1]
	// sampled once per client gossip round, and the staleness of the
	// estimate at its points of use — one sample per consultation, how
	// old the remote information a client acted on was (zero when its
	// own window dominated).
	GossipMessages  int
	GossipMerges    int
	GossipEstimate  Series[float64]
	GossipStaleness Series[time.Duration]

	// Split-signal summary (Config.SplitSignal runs only; empty
	// otherwise): the conflict and congestion estimate trajectories
	// sampled once per client gossip round, each in [0,1]. On a
	// contention-bound workload with an idle orderer the conflict
	// trajectory should be alarmed and the congestion trajectory ≈ 0 —
	// the mis-pacing signature the split exists to remove.
	ConflictEst Series[float64]
	CongestEst  Series[float64]

	// Fault-injection summary (Config.Faults runs only; zero
	// otherwise). FaultWindows counts opened windows; NodeCrashes and
	// NodeDowntime tally crash events and their scheduled downtime;
	// EndorseTimeouts/SubmitTimeouts count client deadline expiries
	// (each also a CLIENT_TIMEOUT attempt on the retry path);
	// OrphanedTxs counts transactions that committed as valid after
	// their client timed out — duplicate-effect risk at the
	// application layer; Recovery holds one sample per peer
	// post-restart ledger replay, its latency after the restart.
	FaultWindows    int
	NodeCrashes     int
	NodeDowntime    time.Duration
	EndorseTimeouts int
	SubmitTimeouts  int
	OrphanedTxs     int
	Recovery        Series[time.Duration]
}

// fillPercentages derives Valid and the failure-class percentages from
// Counts and Total.
func (r *Report) fillPercentages() {
	r.Valid = r.Counts[ledger.Valid]
	if r.Total == 0 {
		return
	}
	pct := func(n int) float64 { return 100 * float64(n) / float64(r.Total) }
	r.FailurePct = pct(r.Total - r.Valid)
	r.EndorsementPct = pct(r.Counts[ledger.EndorsementPolicyFailure])
	r.IntraBlockPct = pct(r.Counts[ledger.MVCCConflictIntraBlock])
	r.InterBlockPct = pct(r.Counts[ledger.MVCCConflictInterBlock])
	r.MVCCPct = r.IntraBlockPct + r.InterBlockPct
	r.PhantomPct = pct(r.Counts[ledger.PhantomReadConflict])
	r.AbortedPct = pct(r.Counts[ledger.AbortedInOrdering])
}

// Report computes the summary: a copy of the report built so far —
// the two maps deep-copied, so it never aliases the live one — with
// the derived values filled in.
func (c *Collector) Report() Report {
	r := c.r
	r.Counts = maps.Clone(c.r.Counts)
	r.fillPercentages()
	if c.latCount > 0 {
		r.AvgLatency = c.latencySum / time.Duration(c.latCount)
		r.P50Latency = c.percentile(50)
		r.P95Latency = c.percentile(95)
	}
	r.Duration = time.Duration(c.lastEvent - c.firstEvent)
	if r.Duration > 0 {
		r.Throughput = float64(r.Committed) / r.Duration.Seconds()
	}
	if r.Jobs > 0 {
		r.RetryAmplification = float64(r.Attempts) / float64(r.Jobs)
		r.AvgEndToEnd = c.jobLatencySum / time.Duration(r.Jobs)
		r.AttemptBreakdown = make(map[int]map[ledger.ValidationCode]int, len(c.r.AttemptBreakdown))
		for attempt, byCode := range c.r.AttemptBreakdown {
			r.AttemptBreakdown[attempt] = maps.Clone(byCode)
		}
	} else {
		// Fire-and-forget clients: every finished transaction is a
		// single-attempt job, so goodput degenerates to valid
		// throughput and amplification to 1. Served reads count as
		// first-attempt successes, exactly as the tracked path
		// resolves them.
		r.Jobs = r.Total + r.ServedReads
		r.EventualValid = r.Valid + r.ServedReads
		r.Attempts = r.Total + r.ServedReads
		r.FirstAttemptValid = r.Valid + r.ServedReads
		r.AvgEndToEnd = r.AvgLatency
		r.AttemptBreakdown = nil
		if r.Jobs > 0 {
			r.RetryAmplification = 1
		}
	}
	if r.Duration > 0 {
		r.Goodput = float64(r.FirstAttemptValid) / r.Duration.Seconds()
	}
	return r
}

// String renders a compact single-line summary.
func (r Report) String() string {
	return fmt.Sprintf(
		"total=%d valid=%d fail=%.2f%% (endorse=%.2f%% intra=%.2f%% inter=%.2f%% phantom=%.2f%% aborted=%.2f%%) lat=%v tput=%.1ftps goodput=%.1ftps amp=%.2f",
		r.Total, r.Valid, r.FailurePct, r.EndorsementPct, r.IntraBlockPct,
		r.InterBlockPct, r.PhantomPct, r.AbortedPct,
		r.AvgLatency.Round(time.Millisecond), r.Throughput,
		r.Goodput, r.RetryAmplification)
}

// Table is a small fixed-width text table builder; internal/core's
// experiments print their paper-style result rows with it.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{header: header} }

// AddRow appends one row; values are stringified with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		case time.Duration:
			row[i] = v.Round(time.Millisecond).String()
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			for p := len(c); p < widths[i]; p++ {
				sb.WriteByte(' ')
			}
		}
		sb.WriteByte('\n')
	}
	writeRow(t.header)
	var sep []string
	for _, w := range widths {
		sep = append(sep, strings.Repeat("-", w))
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return sb.String()
}
