package fabric_test

import (
	"fmt"
	"strings"
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
	"repro/internal/streamchain"
	"repro/internal/workload"
)

// TestDigestBinding holds each endorsement's carried digest to the rwset
// it signed. VSCC verifies signatures against the carried digest and
// compares digests for Equation 1, and the ordering service seals each
// block with them, so nothing downstream rehashes an rwset: an endorser
// that carried a digest of something else would go unseen. Each of the
// four chaincodes runs on each of the four systems with StripAfterCommit
// off; on every chain every endorsement must carry its own rwset's
// digest, every block's hash must be the one ComputeHash recomputes from
// content, and Chain.Verify must pass. Each chain must also hold the
// blocks its orderer cut, with the codes and commit time the metrics
// peer set (see cutRecorder). Changing one committed write's value must
// then make Verify fail at that block.
func TestDigestBinding(t *testing.T) {
	systems := []struct {
		name    string
		variant func() fabric.Variant
	}{
		{"fabric", func() fabric.Variant { return fabric.Vanilla{} }},
		{"fabric++", func() fabric.Variant { return fabricpp.New() }},
		{"streamchain", func() fabric.Variant { return streamchain.New() }},
		{"fabricsharp", func() fabric.Variant { return fabricsharp.New() }},
	}
	chaincodes := []struct {
		name string
		cc   func() chaincode.Chaincode
		wl   func() workload.Generator
	}{
		{"ehr", func() chaincode.Chaincode { return ehr.New() }, func() workload.Generator { return ehr.NewWorkload(1) }},
		{"drm", func() chaincode.Chaincode { return drm.New() }, func() workload.Generator { return drm.NewWorkload(1) }},
		{"scm", func() chaincode.Chaincode { return scm.New() }, func() workload.Generator { return scm.NewWorkload(1) }},
		{"dv", func() chaincode.Chaincode { return dv.New() }, func() workload.Generator { return dv.NewWorkload(1) }},
	}
	mismatched := 0
	for _, sys := range systems {
		for _, c := range chaincodes {
			t.Run(c.name+"-"+sys.name, func(t *testing.T) {
				cfg := docConfig(c.cc(), c.wl(), statedb.CouchDB)
				cfg.Duration = 3 * time.Second
				cfg.Variant = fabric.RecordCuts(sys.variant())
				cfg.StripAfterCommit = false
				nw, err := fabric.NewNetwork(cfg)
				if err != nil {
					t.Fatal(err)
				}
				rep := nw.Run()
				// FabricSharp aborts every transaction with a checked range
				// query (§5.4.3), and every DV vote scans its ballot: only
				// empty blocks reach that chain.
				if emptyChain := sys.name == "fabricsharp" && c.name == "dv"; emptyChain != (rep.Valid == 0) {
					t.Fatalf("%d valid transactions (want none: %v): %v", rep.Valid, emptyChain, rep)
				}
				if err := fabric.CheckCuts(nw); err != nil {
					t.Error(err)
				}
				mismatched += checkDigests(t, nw, rep.Valid > 0)
			})
		}
	}
	if mismatched == 0 {
		t.Error("no transaction on any chain carries two different digests: Equation 1 was never exercised")
	}
}

// checkDigests checks nw's chains as TestDigestBinding says and, if
// tamper, changes one valid write and checks that Verify names its block.
// It returns how many transactions carry endorsements with different
// digests.
func checkDigests(t *testing.T, nw *fabric.Network, tamper bool) (mismatched int) {
	t.Helper()
	var write *ledger.KVWrite
	var writeChain *ledger.Chain
	var writeBlock uint64
	for ch, chain := range nw.Chains() {
		for _, b := range chain.Blocks() {
			if got := b.ComputeHash(); got != b.Hash {
				t.Errorf("channel %d, block %d: hash %x, content hashes to %x", ch, b.Number, b.Hash[:6], got[:6])
			}
			for i, tx := range b.Transactions {
				differs := false
				for _, e := range tx.Endorsements {
					if d := e.RWSet.Digest(); e.Digest != d {
						t.Errorf("channel %d, block %d, tx %s: %s carries digest %x of an rwset whose digest is %x",
							ch, b.Number, tx.ID, e.PeerID, e.Digest[:6], d[:6])
					}
					differs = differs || e.Digest != tx.Endorsements[0].Digest
				}
				if differs {
					mismatched++
				}
				if write == nil && b.ValidationCodes[i] == ledger.Valid && len(tx.RWSet.Writes) > 0 {
					write, writeChain, writeBlock = &tx.RWSet.Writes[0], chain, b.Number
				}
			}
		}
		if err := chain.Verify(); err != nil {
			t.Errorf("channel %d: %v", ch, err)
		}
	}
	if !tamper {
		return mismatched
	}
	if write == nil {
		t.Error("no valid transaction with a write on any chain: nothing to tamper with")
		return mismatched
	}
	// A new slice, not an edit in place: the state entry shares the bytes.
	write.Value = append([]byte("tampered:"), write.Value...)
	want := fmt.Sprintf("block %d hash mismatch", writeBlock)
	if err := writeChain.Verify(); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("Verify after changing a write of block %d = %v, want %q", writeBlock, err, want)
	}
	return mismatched
}
