package fabricpp

import (
	"testing"
	"time"

	"repro/internal/chaincode"
	"repro/internal/chaincodes/drm"
	"repro/internal/chaincodes/dv"
	"repro/internal/chaincodes/ehr"
	"repro/internal/chaincodes/scm"
	"repro/internal/fabric"
	"repro/internal/fabrictest"
	"repro/internal/gen"
	"repro/internal/ledger"
	"repro/internal/statedb"
	"repro/internal/workload"
)

// TestNoIntraBlockConflictsReachTheChain runs Fabric++ on every
// chaincode over both state databases and on range- and update-heavy
// genChain, and requires that no chain holds an intra-block MVCC
// conflict. Phantoms (DV) and in-ordering aborts (UpdateHeavy) must
// still appear, so the reordering had conflicts to work on, and so
// must EHR's inter-block conflicts, which reordering cannot fix.
func TestNoIntraBlockConflictsReachTheChain(t *testing.T) {
	type cell struct {
		name  string
		cfg   fabric.Config
		wants []ledger.ValidationCode // codes that must occur
	}
	var cells []cell
	for _, cc := range []struct {
		name  string
		code  chaincode.Chaincode
		load  func(float64) workload.Generator
		wants []ledger.ValidationCode
	}{
		{"ehr", ehr.New(), ehr.NewWorkload, []ledger.ValidationCode{ledger.MVCCConflictInterBlock}},
		{"dv", dv.New(), dv.NewWorkload, []ledger.ValidationCode{ledger.PhantomReadConflict}},
		{"scm", scm.New(), scm.NewWorkload, nil},
		{"drm", drm.New(), drm.NewWorkload, nil},
	} {
		for _, db := range []statedb.Kind{statedb.LevelDB, statedb.CouchDB} {
			cfg := fabrictest.EHRConfig(1, New())
			cfg.Chaincode, cfg.Workload, cfg.DBKind = cc.code, cc.load(1), db
			cells = append(cells, cell{cc.name + "/" + db.String(), cfg, cc.wants})
		}
	}
	cells = append(cells,
		cell{"genchain/range-heavy", fabrictest.GenChainConfig(1, New(), gen.RangeHeavy, 2), nil},
		cell{"genchain/update-heavy", fabrictest.GenChainConfig(1, New(), gen.UpdateHeavy, 2),
			[]ledger.ValidationCode{ledger.AbortedInOrdering}})
	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			c.cfg.Duration = 10 * time.Second
			c.cfg.StripAfterCommit = false // keep range observations for Verify
			nw, rep := fabrictest.Run(t, c.cfg)
			if got := rep.Counts[ledger.MVCCConflictIntraBlock]; got != 0 {
				t.Errorf("Fabric++ let %d intra-block conflicts reach validation", got)
			}
			for _, code := range c.wants {
				if rep.Counts[code] == 0 {
					t.Errorf("no %v: the run gave the reordering nothing to do", code)
				}
			}
			if rep.Valid == 0 {
				t.Fatal("no valid transactions")
			}
			if err := nw.Chain().Verify(); err != nil {
				t.Fatal(err)
			}
			t.Logf("%d valid, %d phantom, %d inter-block, %d aborted in ordering", rep.Valid,
				rep.Counts[ledger.PhantomReadConflict], rep.Counts[ledger.MVCCConflictInterBlock], rep.Counts[ledger.AbortedInOrdering])
		})
	}
}

func TestReducesFailuresVsVanillaOnUpdateHeavy(t *testing.T) {
	// Skewed update-heavy load: many intra-block dependencies that
	// reordering can rescue.
	ppCfg := fabrictest.GenChainConfig(2, New(), gen.UpdateHeavy, 1)
	_, pp := fabrictest.Run(t, ppCfg)
	vCfg := fabrictest.GenChainConfig(2, nil, gen.UpdateHeavy, 1)
	_, vanilla := fabrictest.Run(t, vCfg)
	if pp.FailurePct >= vanilla.FailurePct {
		t.Errorf("Fabric++ failures %.2f%% >= vanilla %.2f%%", pp.FailurePct, vanilla.FailurePct)
	}
	t.Logf("fabric++ %v", pp)
	t.Logf("vanilla  %v", vanilla)
}

func TestAbortsAreCounted(t *testing.T) {
	v := New()
	cfg := fabrictest.GenChainConfig(3, v, gen.UpdateHeavy, 2)
	_, rep := fabrictest.Run(t, cfg)
	_, aborted := v.Stats()
	if rep.Counts[ledger.AbortedInOrdering] != aborted {
		t.Errorf("report aborted %d, variant counted %d",
			rep.Counts[ledger.AbortedInOrdering], aborted)
	}
	if aborted == 0 {
		t.Error("highly skewed update-heavy load should produce cycle aborts")
	}
}

func TestOnCutKeepsSingletons(t *testing.T) {
	v := New()
	tx := &ledger.Transaction{ID: "t", RWSet: &ledger.RWSet{}}
	kept, aborted, cost := v.OnCut([]*ledger.Transaction{tx})
	if len(kept) != 1 || len(aborted) != 0 || cost != 0 {
		t.Fatalf("singleton batch mishandled: %d kept %d aborted", len(kept), len(aborted))
	}
}

func TestOnCutCyclePair(t *testing.T) {
	v := New()
	mk := func(id string) *ledger.Transaction {
		return &ledger.Transaction{ID: id, RWSet: &ledger.RWSet{
			Reads:  []ledger.KVRead{{Key: "hot"}},
			Writes: []ledger.KVWrite{{Key: "hot"}},
		}}
	}
	kept, aborted, cost := v.OnCut([]*ledger.Transaction{mk("a"), mk("b")})
	if len(kept) != 1 || len(aborted) != 1 {
		t.Fatalf("r-m-w pair: kept %d aborted %d", len(kept), len(aborted))
	}
	if cost <= 0 {
		t.Error("graph construction should cost time")
	}
}

func TestReorderingCostGrowsWithRangeReads(t *testing.T) {
	v := New()
	small := &ledger.Transaction{ID: "s", RWSet: &ledger.RWSet{
		Reads: []ledger.KVRead{{Key: "a"}}, Writes: []ledger.KVWrite{{Key: "b"}},
	}}
	bigScan := &ledger.RWSet{Writes: []ledger.KVWrite{{Key: "w"}}}
	rq := ledger.RangeQueryInfo{StartKey: "k0", EndKey: "k9"}
	for i := 0; i < 1000; i++ {
		rq.Reads = append(rq.Reads, ledger.KVRead{Key: "k5"})
	}
	bigScan.RangeQueries = []ledger.RangeQueryInfo{rq}
	big := &ledger.Transaction{ID: "b", RWSet: bigScan}

	_, _, smallCost := v.OnCut([]*ledger.Transaction{small, small})
	_, _, bigCost := v.OnCut([]*ledger.Transaction{big, big})
	if bigCost <= smallCost {
		t.Errorf("1000-key scans cost %v <= small cost %v", bigCost, smallCost)
	}
}
