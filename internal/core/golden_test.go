package core

import (
	"flag"
	"fmt"
	"strings"
	"testing"

	"repro/internal/fabric"
	"repro/internal/statedb"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/golden_quick.txt from the current implementation")

// goldenCells enumerates the locked grid: the four use-case
// chaincodes on both database backends under QuickOptions.
func goldenCells() []struct {
	cc   string
	kind statedb.Kind
} {
	var cells []struct {
		cc   string
		kind statedb.Kind
	}
	for _, cc := range []string{"ehr", "dv", "scm", "drm"} {
		for _, kind := range []statedb.Kind{statedb.LevelDB, statedb.CouchDB} {
			cells = append(cells, struct {
				cc   string
				kind statedb.Kind
			}{cc, kind})
		}
	}
	return cells
}

// goldenLine renders one cell's result with enough precision that any
// behavioural drift — failure mix, latency, throughput, effective
// metrics — changes the line.
func goldenLine(cc string, kind statedb.Kind, r Result) string {
	return fmt.Sprintf(
		"%s/%s: total=%.0f committed=%.0f fail=%.4f endorse=%.4f intra=%.4f inter=%.4f phantom=%.4f aborted=%.4f lat=%.6f tput=%.4f goodput=%.4f amp=%.4f e2e=%.6f",
		cc, kind, r.Total, r.Committed, r.FailurePct, r.EndorsementPct,
		r.IntraPct, r.InterPct, r.PhantomPct, r.AbortedPct,
		r.LatencySec, r.Throughput, r.Goodput, r.RetryAmp, r.EndToEndSec)
}

// TestGoldenQuickReports locks the QuickOptions reports of all four
// use-case chaincodes on LevelDB and CouchDB. A future refactor that
// shifts any failure percentage, latency, throughput or effective
// metric fails this test; if the shift is intended, regenerate with
//
//	go test ./internal/core -run TestGoldenQuickReports -update-golden
//
// and justify the diff in the commit.
func TestGoldenQuickReports(t *testing.T) {
	cells := goldenCells()
	builds := make([]Builder, len(cells))
	for i, c := range cells {
		cc, err := UseCase(c.cc)
		if err != nil {
			t.Fatal(err)
		}
		kind := c.kind
		builds[i] = func(seed int64) fabric.Config {
			cfg := baseConfig(C1, cc, 1, Fabric14)(seed)
			cfg.DBKind = kind
			return cfg
		}
	}
	results, err := QuickOptions().RunAll(builds)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for i, c := range cells {
		lines = append(lines, goldenLine(c.cc, c.kind, results[i]))
	}
	checkGolden(t, "golden_quick.txt", strings.Join(lines, "\n")+"\n")
}
