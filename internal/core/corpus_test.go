package core

import (
	"flag"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/statedb"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite the testdata golden files from the current implementation")

// The test binary's corpus: every simulation a golden pins runs once,
// on first use, and every test that needs it reads the same result.
// The smoke part is one rendered table per registry experiment; the
// quick part is one report per locked QuickOptions cell.

// smokeOptions is the regime the smoke corpus renders experiment id
// under. Fig4 and Fig5 ignore Options.Smoke and sweep 150 and 75
// cells (a third of them DV on the 32-peer cluster), so they run at a
// 250 ms send window to keep the corpus inside tier-1's budget.
func smokeOptions(id string, parallelism int) Options {
	o := SmokeOptions()
	o.Parallelism = parallelism
	if id == "fig4" || id == "fig5" {
		o.Duration, o.Drain = 250*time.Millisecond, 3*time.Second
	}
	return o
}

type smokeTable struct {
	once sync.Once
	out  string
	err  error
}

var smokeTables = func() map[string]*smokeTable {
	m := map[string]*smokeTable{}
	for _, e := range Experiments() {
		m[e.ID] = new(smokeTable)
	}
	return m
}()

// smokeCorpus returns experiment id's table under smokeOptions at
// Parallelism 8, rendering it on the first call.
func smokeCorpus(t *testing.T, id string) string {
	t.Helper()
	s, ok := smokeTables[id]
	if !ok {
		t.Fatalf("no registry experiment %q", id)
	}
	s.once.Do(func() {
		e, err := Lookup(id)
		if err == nil {
			s.out, err = e.Run(smokeOptions(id, 8))
		}
		s.err = err
	})
	if s.err != nil {
		t.Fatalf("%s: %v", id, s.err)
	}
	return s.out
}

// namedRun is one golden run: the name its lines carry in
// golden_full_reports.txt and the config it runs.
type namedRun struct {
	name  string
	build Builder
}

// runNamed runs one batch of named runs and returns a report per run
// (o has one seed).
func runNamed(o Options, runs []namedRun) ([]metrics.Report, error) {
	builds := make([]Builder, len(runs))
	for i, r := range runs {
		builds[i] = r.build
	}
	return o.runReports(builds)
}

// quickCells is the locked QuickOptions grid, in golden order: the
// four use-case chaincodes on both database backends with the paper's
// fire-and-forget clients; one EHR cell per rung of the co-tuning and
// coordination ladders, so the retry, budget, AIMD, hint, gossip and
// split-signal paths are pinned where that grid cannot see them; the
// faults experiment's smoke grid (crash and partition under backoff
// and hinted-orderer); and the scale experiment's smoke grid (100 and
// 1000 clients over 1 and 4 channels). A rung whose Control equals an
// earlier one's runs once, under the earlier label (corpusRung):
// cotune's "adaptive" is coordination's "aimd".
func quickCells() []namedRun {
	var rungs []Rung
	for _, r := range append(append([]Rung{}, cotuneLadder...), coordinationLadder...) {
		if corpusRung(r).Label == r.Label {
			rungs = append(rungs, r)
		}
	}
	var cells []namedRun
	for _, group := range [][]namedRun{useCaseRuns(), ladderRuns(rungs), faultsRuns(), scaleRuns()} {
		cells = append(cells, group...)
	}
	return cells
}

// useCaseRuns is the paper's base grid: the four use-case chaincodes
// on LevelDB and CouchDB with fire-and-forget clients.
func useCaseRuns() []namedRun {
	var runs []namedRun
	for _, c := range cross(on(C1, EHR), byCC(useCases...), byDB(statedb.LevelDB, statedb.CouchDB)) {
		runs = append(runs, namedRun{fmt.Sprintf("%s/%s", c.cc.Name, c.db), c.build()})
	}
	return runs
}

// corpusRung returns the rung the quick corpus runs r's Control
// under: the first rung of cotuneLadder, then coordinationLadder, with
// an equal Control.
func corpusRung(r Rung) Rung {
	for _, k := range append(append([]Rung{}, cotuneLadder...), coordinationLadder...) {
		if reflect.DeepEqual(k.Control, r.Control) {
			return k
		}
	}
	return r
}

// ladderRuns is one EHR cell per rung of ladder at the Table 3 block
// size, each named after its corpusRung.
func ladderRuns(ladder []Rung) []namedRun {
	rungs := make([]Rung, len(ladder))
	for i, r := range ladder {
		rungs[i] = corpusRung(r)
	}
	var runs []namedRun
	for _, c := range cross(on(C1, EHR), byControl(rungs...)) {
		runs = append(runs, namedRun{fmt.Sprintf("ehr/%s/bs%d", c.ctl.Label, c.bs), c.build()})
	}
	return runs
}

// faultsRuns is the faults experiment's smoke grid.
func faultsRuns() []namedRun {
	var runs []namedRun
	for _, c := range faultsGrid(true) {
		runs = append(runs, namedRun{fmt.Sprintf("%s/%s/%s", c.cc.Name, c.scenario, c.ctl.Label), c.build()})
	}
	return runs
}

// scaleRuns is the scale experiment's smoke grid.
func scaleRuns() []namedRun {
	var runs []namedRun
	for _, c := range scaleGrid(true) {
		runs = append(runs, namedRun{fmt.Sprintf("clients%d/ch%d", c.clients, c.channels), scaleConfig(c)})
	}
	return runs
}

var quick struct {
	once    sync.Once
	cells   []namedRun
	reports []metrics.Report
	err     error
}

// quickCorpus returns the quick cells and their reports, running them
// as one batch at Parallelism 8 on the first call.
func quickCorpus(t *testing.T) ([]namedRun, []metrics.Report) {
	t.Helper()
	quick.once.Do(func() {
		quick.cells = quickCells()
		o := QuickOptions()
		o.Parallelism = 8
		quick.reports, quick.err = runNamed(o, quick.cells)
	})
	if quick.err != nil {
		t.Fatal(quick.err)
	}
	return quick.cells, quick.reports
}

// quickReports returns the quick corpus's reports by cell name.
func quickReports(t *testing.T) map[string]metrics.Report {
	t.Helper()
	cells, reports := quickCorpus(t)
	byName := make(map[string]metrics.Report, len(cells))
	for i, c := range cells {
		byName[c.name] = reports[i]
	}
	return byName
}
