package fabric_test

import (
	"testing"

	"repro/internal/chaincodes/ehr"
	"repro/internal/fabric"
	"repro/internal/fabricpp"
	"repro/internal/fabricsharp"
	"repro/internal/statedb"
	"repro/internal/streamchain"
)

// TestReplicasConvergeEverySystem holds every replica to the chain's
// fold under each of the four systems: the forks reorder, abort early
// or stream single-transaction blocks, and none may change what a
// replica holds at a height.
func TestReplicasConvergeEverySystem(t *testing.T) {
	for _, sys := range []struct {
		name    string
		variant fabric.Variant
	}{
		{"fabric1.4", fabric.Vanilla{}},
		{"fabric++", fabricpp.New()},
		{"fabricsharp", fabricsharp.New()},
		{"streamchain", streamchain.New()},
	} {
		sys := sys
		t.Run(sys.name, func(t *testing.T) {
			cfg := docConfig(ehr.New(), ehr.NewWorkload(1), statedb.CouchDB)
			cfg.Variant = sys.variant
			nw, err := fabric.NewNetwork(cfg)
			if err != nil {
				t.Fatal(err)
			}
			genesis := fabric.SnapshotGenesis(nw)
			if rep := nw.Run(); rep.Valid == 0 {
				t.Fatal("no valid transaction: the run wrote nothing to check")
			}
			fabric.CheckReplicas(t, nw, genesis)
		})
	}
}
