package core

import (
	"fmt"
	"strings"
	"testing"
)

// goldenCoordinationLine renders one locked retry-coordination cell
// with enough precision that any drift in the hint plumbing — orderer
// or gossip side — changes the line. The aimd row must keep zero
// paced/hint/gossip columns (nothing shared is configured), and the
// hinted-orderer row must keep zero gossip columns while staying
// byte-identical to the values PR 4's "hinted" rung produced: a
// HintSource=orderer run must not change when the gossip subsystem
// merely exists in the build.
func goldenCoordinationLine(pol Rung, r Result) string {
	line := fmt.Sprintf(
		"ehr/%s/bs100: goodput=%.4f tput=%.4f amp=%.4f e2e=%.6f paced=%.0f pacedsec=%.6f hintavg=%.6f hint=%.6f gmsgs=%.0f gmerges=%.0f gest=%.6f gstale=%.6f gaveup=%.4f fail=%.4f",
		pol.Label, r.Goodput, r.Throughput, r.RetryAmp, r.EndToEndSec,
		r.Paced, r.PacedSec, r.HintAvg, r.HintFinal,
		r.GossipMsgs, r.GossipMerges, r.GossipEstFinal, r.GossipStaleSec,
		r.GaveUpPct, r.FailurePct)
	// Split rungs carry the two estimate components; scalar rungs keep
	// the exact pre-split line so their golden rows never move.
	if pol.SplitSignal != nil {
		line += fmt.Sprintf(" cflt=%.6f cngst=%.6f", r.ConflictEstFinal, r.CongestEstFinal)
	}
	return line
}

// TestGoldenCoordinationRow locks one retry-coordination row per
// coordination rung (EHR, Fabric 1.4, block size 100, QuickOptions),
// gossip variants included, so drift in either hint producer — or in
// the supposedly inert one — is caught the way TestGoldenCotuneRow
// catches budget/adaptive drift. Regenerate intentional changes with
//
//	go test ./internal/core -run TestGoldenCoordinationRow -update-golden
//
// and justify the diff in the commit.
func TestGoldenCoordinationRow(t *testing.T) {
	pols := coordinationLadder
	results, err := runCells(QuickOptions(), cross(on(C1, EHR), byControl(pols...)), cell.build)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for i, pol := range pols {
		lines = append(lines, goldenCoordinationLine(pol, results[i]))
	}
	checkGolden(t, "golden_coordination.txt", strings.Join(lines, "\n")+"\n")
}
