package metrics

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/ledger"
)

// The frozen benchmark module (bench/, its own Go module, so a break
// there shows up only in `go test -C bench`) fixes three things about
// this package, and the tests below pin each of them in tier-1:
// the text of Report.String(), which is also what its sha256 digest
// hashes, since fmt prints %+v of a Report through String(); twelve
// fields it reads by name; and NewCollector/RecordTx/Report().

// contractReport is a report with every String() value distinct and
// both maps filled.
func contractReport() Report {
	c := NewCollector()
	for i := 1; i <= 6; i++ {
		c.RecordTx(ledger.Valid, sec(0), sec(i))
	}
	c.RecordTx(ledger.MVCCConflictIntraBlock, sec(1), sec(2))
	c.RecordTx(ledger.MVCCConflictInterBlock, sec(1), sec(3))
	c.RecordTx(ledger.MVCCConflictInterBlock, sec(1), sec(3))
	c.RecordTx(ledger.PhantomReadConflict, sec(2), sec(4))
	c.RecordTx(ledger.EndorsementPolicyFailure, sec(2), sec(3))
	c.RecordAbort(sec(2), sec(3))
	c.RecordAttempt(1, ledger.Valid)
	c.RecordAttempt(1, ledger.MVCCConflictIntraBlock)
	c.RecordAttempt(2, ledger.Valid)
	c.RecordJob(1, true, sec(0), sec(1))
	c.RecordJob(2, true, sec(1), sec(8))
	c.RecordHintSample(0.5)
	c.RecordPaced(time.Second)
	return c.Report()
}

// TestReportFormatsAsItsString: %+v of a Report is its String() line,
// never the struct layout — a Report field can be added, renamed or
// regrouped without moving a benchmark digest, and a change to the
// line's text moves every one of them.
func TestReportFormatsAsItsString(t *testing.T) {
	rep := contractReport()
	const want = "total=12 valid=6 fail=50.00% (endorse=8.33% intra=8.33% inter=16.67% phantom=8.33% aborted=8.33%) " +
		"lat=2.5s tput=1.4tps goodput=0.1tps amp=1.50"
	for _, verb := range []string{"%+v", "%v", "%s"} {
		if got := fmt.Sprintf(verb, rep); got != want || got != rep.String() {
			t.Errorf("Sprintf(%q, report) = %q\nwant %q\nbench/expected.json digests hash this text: changing it needs a benchmark-only re-pin first",
				verb, got, want)
		}
	}
}

// TestReportKeepsTheFieldsBenchReads uses the twelve fields exactly as
// bench/layers.go does — summed into a Report, or into an int or a
// Duration of its own — so renaming or retyping one fails this
// package's build instead of the benchmark's.
func TestReportKeepsTheFieldsBenchReads(t *testing.T) {
	r := contractReport()
	var sum Report
	var total, valid int
	var p95 time.Duration
	for i := 0; i < 2; i++ {
		total += r.Total
		valid += r.Valid
		p95 += r.P95Latency
		sum.Blocks += r.Blocks
		sum.Committed += r.Committed
		sum.Jobs += r.Jobs
		sum.Attempts += r.Attempts
		sum.GaveUp += r.GaveUp
		sum.GossipMessages += r.GossipMessages
		sum.GossipMerges += r.GossipMerges
		sum.PacedSubmissions += r.PacedSubmissions
		sum.BudgetExhausted += r.BudgetExhausted
	}
	if total != 24 || valid != 12 || p95 != 2*r.P95Latency || sum.Committed != 22 ||
		sum.Jobs != 4 || sum.Attempts != 6 || sum.PacedSubmissions != 2 {
		t.Errorf("sums over two copies: total=%d valid=%d p95=%v sum=%+v", total, valid, p95, sum)
	}
	if r.PacedSubmissions != r.Paced.N {
		t.Errorf("PacedSubmissions %d != Paced.N %d: the plain field bench sums must stay the stream's count",
			r.PacedSubmissions, r.Paced.N)
	}
}

// TestRecordTxDoesNotAllocate keeps RecordTx allocation-free: the
// chain walk calls it once per chain transaction, and the benchmark
// ledger's metrics.record_tx times it.
func TestRecordTxDoesNotAllocate(t *testing.T) {
	c := NewCollector()
	c.RecordTx(ledger.Valid, sec(0), sec(1)) // the map entry exists from here on
	if n := testing.AllocsPerRun(1000, func() { c.RecordTx(ledger.Valid, sec(1), sec(3)) }); n != 0 {
		t.Errorf("RecordTx allocates %.1f objects per call, want 0", n)
	}
}

// TestReportIsASnapshot: the collector fills its Report in place, so
// Report() must hand out a copy that later records cannot reach — the
// two maps included.
func TestReportIsASnapshot(t *testing.T) {
	c := NewCollector()
	c.RecordTx(ledger.Valid, sec(0), sec(1))
	c.RecordAttempt(1, ledger.Valid)
	c.RecordJob(1, true, sec(0), sec(1))
	c.RecordGossipSample(0.25)
	first := c.Report()
	before := fmt.Sprintf("%#v", first) // every field, maps in key order

	c.RecordTx(ledger.Valid, sec(1), sec(2))
	c.RecordTx(ledger.MVCCConflictIntraBlock, sec(1), sec(2))
	c.RecordAttempt(1, ledger.Valid)
	c.RecordAttempt(2, ledger.MVCCConflictIntraBlock)
	c.RecordJob(2, false, sec(1), sec(3))
	c.RecordGossipSample(0.75)

	if after := fmt.Sprintf("%#v", first); after != before {
		t.Errorf("the first report moved after it was returned:\n got %s\nwant %s", after, before)
	}
	if len(first.Counts) != 1 || first.Counts[ledger.Valid] != 1 ||
		len(first.AttemptBreakdown) != 1 || first.AttemptBreakdown[1][ledger.Valid] != 1 {
		t.Errorf("first report's maps: counts=%v attempts=%v", first.Counts, first.AttemptBreakdown)
	}
	// And the other way round: writing to a returned report must not
	// reach the collector.
	first.Counts[ledger.Valid] = 99
	first.AttemptBreakdown[1][ledger.Valid] = 99
	if now := c.Report(); now.Counts[ledger.Valid] != 2 || now.AttemptBreakdown[1][ledger.Valid] != 2 ||
		now.Total != 3 || now.GossipEstimate.N != 2 {
		t.Errorf("collector state after editing a returned report: %#v", now)
	}
}
