package core

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/metrics"
)

// The locked QuickOptions grids, one test per experiment whose cells
// it pins. Each reads its cells from the quick corpus and compares
// their lines of golden_full_reports.txt, so a drift is reported
// against the grid it moved while every cell still runs once.
// TestGoldenFullReports owns the file: regenerate intentional changes
// with
//
//	go test ./internal/core -run TestGoldenFullReports -update-golden
//
// and justify the diff in the commit.

// checkQuickGolden renders runs' corpus reports with fullReportLines
// and compares them with the lines golden_full_reports.txt holds for
// the same names, in order. It returns the reports by name.
func checkQuickGolden(t *testing.T, runs []namedRun) map[string]metrics.Report {
	t.Helper()
	const name = "golden_full_reports.txt"
	file, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatalf("missing golden file (run TestGoldenFullReports with -update-golden to create): %v", err)
	}
	wantByName := map[string][]string{}
	for _, line := range strings.Split(strings.TrimRight(string(file), "\n"), "\n") {
		if run, _, ok := strings.Cut(line, ": "); ok {
			wantByName[run] = append(wantByName[run], line)
		}
	}
	all := quickReports(t)
	reports := make(map[string]metrics.Report, len(runs))
	var got, want []string
	for _, run := range runs {
		rep, ok := all[run.name]
		if !ok {
			t.Errorf("%s is not a quick corpus cell", run.name)
			continue
		}
		reports[run.name] = rep
		for _, line := range fullReportLines(rep, map[string]bool{}) {
			got = append(got, run.name+": "+line)
		}
		want = append(want, wantByName[run.name]...)
	}
	diffGolden(t, name+" ("+t.Name()+"'s cells)", strings.Join(got, "\n")+"\n", strings.Join(want, "\n")+"\n")
	return reports
}

// checkInertWhenOff fails when a rung that leaves backpressure out
// paced or hinted a submission, or one that leaves gossip out sent a
// gossip message: a subsystem switched off must stay inert.
func checkInertWhenOff(t *testing.T, ladder []Rung, reports map[string]metrics.Report) {
	t.Helper()
	for i, run := range ladderRuns(ladder) {
		r, ctl := reports[run.name], ladder[i].Control
		if ctl.Backpressure == nil && (r.PacedSubmissions != 0 || r.Hint.Max != 0) {
			t.Errorf("%s: backpressure off, yet paced=%d hint.max=%v", run.name, r.PacedSubmissions, r.Hint.Max)
		}
		if ctl.Gossip == nil && r.GossipMessages != 0 {
			t.Errorf("%s: gossip off, yet gossip.messages=%d", run.name, r.GossipMessages)
		}
	}
}

// TestGoldenQuickReports locks the QuickOptions reports of all four
// use-case chaincodes on LevelDB and CouchDB: any shift in a failure
// percentage, latency, throughput or effective metric of the paper's
// base grid fails it.
func TestGoldenQuickReports(t *testing.T) {
	runs := useCaseRuns()
	if len(runs) != 2*len(useCases) {
		t.Fatalf("%d use-case cells, want %d", len(runs), 2*len(useCases))
	}
	checkQuickGolden(t, runs)
}

// TestGoldenCotuneRow locks one retry-cotune row per retry-control
// strategy (EHR, Fabric 1.4, block size 100), so drift in the budget
// and adaptive paths is caught even when the fire-and-forget grid
// stays clean. No cotune rung enables backpressure or gossip, so its
// pacing, hint and gossip values must stay zero.
func TestGoldenCotuneRow(t *testing.T) {
	checkInertWhenOff(t, cotuneLadder, checkQuickGolden(t, ladderRuns(cotuneLadder)))
}

// TestGoldenCoordinationRow locks one retry-coordination row per
// coordination rung, gossip variants included, so drift in either
// hint producer — or in the one a rung leaves out, which must stay
// inert — is caught. Its aimd rung is cotune's adaptive rung (the same
// Control) and is checked under that name.
func TestGoldenCoordinationRow(t *testing.T) {
	checkInertWhenOff(t, coordinationLadder, checkQuickGolden(t, ladderRuns(coordinationLadder)))
}

// TestGoldenFaultsRows locks the smoke grid of the faults experiment:
// crash and partition scenarios under the backoff and hinted-orderer
// controls on EHR, so drift in the node lifecycle, the netem fault
// primitives, the client deadlines or the fault-window accounting
// moves a line.
func TestGoldenFaultsRows(t *testing.T) {
	checkQuickGolden(t, faultsRuns())
}

// TestGoldenScaleRows locks the smoke grid of the scale experiment —
// exact and cohort drivers at 100 and 1000 clients over 1 and 4
// channels — so drift in the cohort drivers, the channel router, the
// cross-channel legs or the streaming latency aggregation moves a
// line.
func TestGoldenScaleRows(t *testing.T) {
	checkQuickGolden(t, scaleRuns())
}
