package fabric_test

import (
	"testing"
	"time"

	"repro/internal/chaincode"
	"repro/internal/chaincodes/drm"
	"repro/internal/chaincodes/dv"
	"repro/internal/chaincodes/ehr"
	"repro/internal/chaincodes/scm"
	"repro/internal/fabric"
	"repro/internal/fabricpp"
	"repro/internal/fabricsharp"
	"repro/internal/ledger"
	"repro/internal/statedb"
	"repro/internal/workload"
)

// docConfig is a few virtual seconds of one chaincode at a rate that
// makes its hot keys conflict.
func docConfig(cc chaincode.Chaincode, wl workload.Generator, kind statedb.Kind) fabric.Config {
	cfg := fabric.DefaultConfig()
	cfg.Seed = 5
	cfg.Duration = 5 * time.Second
	cfg.Drain = 10 * time.Second
	cfg.Rate = 100
	cfg.BlockSize = 20
	cfg.DBKind = kind
	cfg.Chaincode = cc
	cfg.Workload = wl
	return cfg
}

// TestDocCoherence is the oracle of the document sidecar. The decoded
// struct a chaincode wrote rides with its bytes into the state entry
// and is handed to every later reader on every replica: (a) an entry's
// document still encodes to exactly the entry's bytes — a chaincode
// that changed a stored document in place fails this — is checked by
// checkRun on every corpus regime. Here, at drain, on every up peer:
// (b) one key at one version is one entry on all replicas; (c) no write
// on any chain still holds a document.
func TestDocCoherence(t *testing.T) {
	crash := docConfig(ehr.New(), ehr.NewWorkload(1), statedb.CouchDB)
	crash.Retry = fabric.ExponentialBackoff{Initial: 200 * time.Millisecond, Cap: time.Second, MaxAttempts: 3}
	crash.Faults = &fabric.Faults{
		Events:         []fabric.FaultEvent{{Kind: fabric.FaultCrashPeer, At: time.Second, For: 2 * time.Second, Target: 3}},
		EndorseTimeout: time.Second,
	}
	sharded := docConfig(ehr.New(), ehr.NewWorkload(1), statedb.CouchDB)
	sharded.Channels = 2
	sharded.CrossChannel = 0.1
	fabricPP := docConfig(ehr.New(), ehr.NewWorkload(1), statedb.CouchDB)
	fabricPP.Variant = fabricpp.New()
	fabricSharp := docConfig(ehr.New(), ehr.NewWorkload(1), statedb.CouchDB)
	fabricSharp.Variant = fabricsharp.New()
	type cell struct {
		name string
		cfg  fabric.Config
	}
	cells := []cell{
		{"ehr-crash-replay", crash},
		{"ehr-two-channels", sharded},
		{"ehr-fabric++", fabricPP},
		{"ehr-fabricsharp", fabricSharp},
	}
	for _, kind := range []statedb.Kind{statedb.CouchDB, statedb.LevelDB} {
		cells = append(cells,
			cell{"ehr-" + kind.String(), docConfig(ehr.New(), ehr.NewWorkload(1), kind)},
			cell{"drm-" + kind.String(), docConfig(drm.New(), drm.NewWorkload(1), kind)},
			cell{"scm-" + kind.String(), docConfig(scm.New(), scm.NewWorkload(1), kind)},
			cell{"dv-" + kind.String(), docConfig(dv.New(), dv.NewWorkload(1), kind)})
	}
	for _, c := range cells {
		c := c
		t.Run(c.name, func(t *testing.T) {
			nw, err := fabric.NewNetwork(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			rep := nw.Run()
			if rep.Valid == 0 {
				t.Fatal("no valid transaction: the run wrote nothing to check")
			}
			if c.cfg.Faults != nil && rep.Recovery.N != 1 {
				t.Errorf("%d recoveries, want the crashed peer to replay the blocks it missed", rep.Recovery.N)
			}
			checkDocs(t, nw)
		})
	}
}

func checkDocs(t *testing.T, nw *fabric.Network) {
	t.Helper()
	for ch := range nw.Chains() {
		var first statedb.VersionedDB
		for _, p := range nw.Peers() {
			if p.State() != fabric.NodeUp {
				t.Errorf("peer %s ended the run %v", p.Name(), p.State())
				continue
			}
			db := p.Replicas()[ch]
			docs, written := 0, 0
			for _, kv := range db.GetRange("", "") {
				vv := db.Get(kv.Key)
				if vv.Version.BlockNum > 0 {
					written++
				}
				if vv.Doc != nil {
					docs++
				}
				if first == nil {
					continue
				}
				if o := first.Get(kv.Key); o != nil && o.Version == vv.Version && o != vv {
					t.Errorf("channel %d, key %s at %v: peer %s holds its own entry, not the one the first peer holds",
						ch, kv.Key, vv.Version, p.Name())
				}
			}
			if docs == 0 || written == 0 {
				t.Errorf("channel %d, peer %s: %d entries carry a document, %d were written by the run; the check is vacuous",
					ch, p.Name(), docs, written)
			}
			if first == nil {
				first = db
			}
		}
	}
	held := func(rw *ledger.RWSet) bool {
		for _, w := range rw.Writes {
			if w.Doc != nil {
				return true
			}
		}
		return false
	}
	for ch, chain := range nw.Chains() {
		for _, b := range chain.Blocks() {
			for _, tx := range b.Transactions {
				bad := held(tx.RWSet)
				for _, e := range tx.Endorsements {
					bad = bad || held(e.RWSet)
				}
				if bad {
					t.Errorf("channel %d, block %d, tx %s: a write on the chain still holds a document", ch, b.Number, tx.ID)
				}
			}
		}
	}
}
