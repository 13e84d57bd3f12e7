package core

import (
	"fmt"
	"strings"
	"testing"
)

// goldenFaultsLine renders one locked faults cell with enough
// precision that any drift in the lifecycle machinery, the netem
// fault primitives, the client deadlines or the fault-window
// accounting changes the line.
func goldenFaultsLine(c cell, r Result) string {
	return fmt.Sprintf(
		"%s/%s/%s: total=%.0f committed=%.0f fail=%.4f lat=%.6f tput=%.4f goodput=%.4f amp=%.4f e2e=%.6f gaveup=%.4f eto=%.0f sto=%.0f orphans=%.0f down=%.2f recov=%.6f",
		c.cc.Name, c.scenario, c.ctl.Label,
		r.Total, r.Committed, r.FailurePct, r.LatencySec, r.Throughput,
		r.Goodput, r.RetryAmp, r.EndToEndSec, r.GaveUpPct,
		r.EndorseTOs, r.SubmitTOs, r.Orphans, r.DowntimeSec, r.RecoverySec)
}

// TestGoldenFaultsRows locks the smoke grid of the faults experiment —
// crash and partition scenarios under the backoff and hinted-orderer
// controls on EHR — the way TestGoldenScaleRows locks the scale grid.
// Regenerate intentional changes with
//
//	go test ./internal/core -run TestGoldenFaultsRows -update-golden
//
// and justify the diff in the commit.
func TestGoldenFaultsRows(t *testing.T) {
	cells := faultsGrid(true)
	results, err := runCells(QuickOptions(), cells, cell.build)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for i, c := range cells {
		lines = append(lines, goldenFaultsLine(c, results[i]))
	}
	checkGolden(t, "golden_faults.txt", strings.Join(lines, "\n")+"\n")
}
