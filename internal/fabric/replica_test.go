package fabric_test

import (
	"testing"

	"repro/internal/chaincodes/ehr"
	"repro/internal/fabric"
	"repro/internal/fabricpp"
	"repro/internal/fabricsharp"
	"repro/internal/ledger"
	"repro/internal/metrics"
	"repro/internal/statedb"
	"repro/internal/streamchain"
)

// systems are the four systems of the study, each a corpus regime on
// docConfig's contended EHR run, with the predicate that shows the
// system's mechanism engaged.
var systems = []struct {
	name    string
	variant func() fabric.Variant
	what    string
	holds   func(metrics.Report) bool
}{
	{"fabric1.4", func() fabric.Variant { return fabric.Vanilla{} }, "MVCC conflicts > 0",
		func(r metrics.Report) bool { return mvcc(r) > 0 }},
	{"fabric++", func() fabric.Variant { return fabricpp.New() }, "no intra-block MVCC conflict and some aborted in ordering",
		func(r metrics.Report) bool {
			return r.Counts[ledger.MVCCConflictIntraBlock] == 0 && r.Counts[ledger.AbortedInOrdering] > 0
		}},
	{"fabricsharp", func() fabric.Variant { return fabricsharp.New() }, "valid > 0 and no MVCC conflict",
		func(r metrics.Report) bool { return r.Valid > 0 && mvcc(r) == 0 }},
	{"streamchain", func() fabric.Variant { return streamchain.New() }, "one transaction per block",
		func(r metrics.Report) bool { return r.Blocks > 0 && r.Blocks == r.Committed }},
}

func mvcc(r metrics.Report) int {
	return r.Counts[ledger.MVCCConflictInterBlock] + r.Counts[ledger.MVCCConflictIntraBlock]
}

func init() {
	for _, sys := range systems {
		sys := sys
		fabric.AddRegime(sys.name, func() fabric.Config {
			cfg := docConfig(ehr.New(), ehr.NewWorkload(1), statedb.CouchDB)
			cfg.Variant = sys.variant()
			return cfg
		}, sys.what, sys.holds)
	}
}

// TestReplicasConvergeEverySystem holds every replica to the chain's
// fold under each of the four systems: the forks reorder, abort early
// or stream single-transaction blocks, and none may change what a
// replica holds at a height. It reads the four system regimes of the
// corpus.
func TestReplicasConvergeEverySystem(t *testing.T) {
	for _, sys := range systems {
		sys := sys
		t.Run(sys.name, func(t *testing.T) { fabric.CheckRegime(t, sys.name) })
	}
}
