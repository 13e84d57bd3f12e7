package core

import (
	"fmt"
	"strings"
	"testing"
)

// goldenScaleLine renders one locked scale cell with enough precision
// that any drift in the cohort drivers, the channel router, the
// cross-channel legs or the streaming latency aggregation changes the
// line.
func goldenScaleLine(c cell, r Result) string {
	return fmt.Sprintf(
		"clients%d/ch%d: total=%.0f committed=%.0f fail=%.4f aborted=%.4f lat=%.6f tput=%.4f goodput=%.4f amp=%.4f e2e=%.6f gaveup=%.4f",
		c.clients, c.channels, r.Total, r.Committed, r.FailurePct, r.AbortedPct,
		r.LatencySec, r.Throughput, r.Goodput, r.RetryAmp, r.EndToEndSec, r.GaveUpPct)
}

// TestGoldenScaleRows locks the smoke grid of the scale experiment —
// exact-vs-cohort drivers at 100 and 1000 clients, 1 and 4 channels —
// the way TestGoldenQuickReports locks the paper's base grid.
// Regenerate intentional changes with
//
//	go test ./internal/core -run TestGoldenScaleRows -update-golden
//
// and justify the diff in the commit.
func TestGoldenScaleRows(t *testing.T) {
	cells := scaleGrid(true)
	results, err := runCells(QuickOptions(), cells, scaleConfig)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for i, c := range cells {
		lines = append(lines, goldenScaleLine(c, results[i]))
	}
	checkGolden(t, "golden_scale.txt", strings.Join(lines, "\n")+"\n")
}
