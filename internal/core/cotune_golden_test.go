package core

import (
	"fmt"
	"strings"
	"testing"
)

// goldenCotuneCells is the locked retry-cotune slab: the EHR rows on
// vanilla Fabric 1.4 at the Table 3 block size, one per retry-control
// strategy, under QuickOptions. It pins exactly the budget/adaptive
// code paths the QuickOptions golden grid (fire-and-forget clients)
// cannot see.
func goldenCotuneCells() []Rung {
	return cotuneLadder
}

// goldenCotuneLine renders one cell with enough precision that any
// drift in the retry, budget, AIMD or (rng-neutral) backpressure
// plumbing changes the line. The paced/hint columns must stay zero:
// the cotune grid never enables Config.Backpressure, so any non-zero
// value — or any shift in the other columns — means the backpressure
// subsystem stopped being inert when disabled.
func goldenCotuneLine(pol Rung, r Result) string {
	return fmt.Sprintf(
		"ehr/%s/bs100: goodput=%.4f tput=%.4f amp=%.4f e2e=%.6f exhausted=%.0f deferred=%.0f maxdefer=%.0f aimd=%.6f gaveup=%.4f fail=%.4f paced=%.0f pacedsec=%.6f hint=%.6f",
		pol.Label, r.Goodput, r.Throughput, r.RetryAmp, r.EndToEndSec,
		r.BudgetExhausted, r.DeferredRetries, r.MaxDeferred,
		r.AdaptiveBackSec, r.GaveUpPct, r.FailurePct,
		r.Paced, r.PacedSec, r.HintFinal)
}

// TestGoldenCotuneRow locks one retry-cotune row per retry-control
// strategy (EHR, Fabric 1.4, block size 100, QuickOptions) so drift
// in the budget/adaptive paths is caught even when the
// fire-and-forget golden grid stays clean. Regenerate intentional
// changes with
//
//	go test ./internal/core -run TestGoldenCotuneRow -update-golden
//
// and justify the diff in the commit.
func TestGoldenCotuneRow(t *testing.T) {
	pols := goldenCotuneCells()
	results, err := runCells(QuickOptions(), cross(on(C1, EHR), byControl(pols...)), cell.build)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for i, pol := range pols {
		lines = append(lines, goldenCotuneLine(pol, results[i]))
	}
	checkGolden(t, "golden_cotune.txt", strings.Join(lines, "\n")+"\n")
}
