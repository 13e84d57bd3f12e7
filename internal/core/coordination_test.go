package core

import (
	"strings"
	"testing"

	"repro/internal/fabric"
)

func TestRetryCoordinationTableShape(t *testing.T) {
	out := smokeCorpus(t, "retry-coordination")
	for _, col := range []string{"goodput (tps)", "amp", "paced (s)", "hint", "gest", "gmsg"} {
		if !strings.Contains(out, col) {
			t.Errorf("table missing column %q", col)
		}
	}
	for _, label := range []string{"aimd", "hinted-orderer", "hinted-gossip", "hinted-both"} {
		if !strings.Contains(out, label) {
			t.Errorf("table missing control %q", label)
		}
	}
	for _, sys := range []string{"Fabric 1.4", "Fabric++"} {
		if !strings.Contains(out, sys) {
			t.Errorf("table missing system %q", sys)
		}
	}
	// Smoke mode shrinks the grid to EHR only.
	if strings.Contains(out, "dv") || strings.Contains(out, "scm") {
		t.Error("smoke grid still sweeps the full chaincode axis")
	}
	rows := len(strings.Split(strings.TrimSpace(out), "\n")) - 2 // header + rule
	if want := 2 * len(coordinationLadder) * len(LabBlockSizes); rows != want {
		t.Errorf("smoke grid has %d rows, want %d", rows, want)
	}
}

func TestRetryCoordinationFullGridEnumeration(t *testing.T) {
	cells := ladderGrid(false, coordinationLadder)
	want := 4 * 2 * len(coordinationLadder) * len(LabBlockSizes)
	if len(cells) != want {
		t.Fatalf("full grid has %d cells, want %d", len(cells), want)
	}
	seen := map[string]bool{}
	for _, c := range cells {
		seen[c.cc.Name] = true
	}
	for _, cc := range []string{"ehr", "dv", "scm", "drm"} {
		if !seen[cc] {
			t.Errorf("full grid missing chaincode %s", cc)
		}
	}
}

// TestCoordinationPoliciesWireTheSignal pins the ladder's wiring: it
// must compare a client-local rung against shared-signal rungs, and
// the shared rungs must cover both producers plus their combination,
// with each rung's HintSource matching the signals it configures.
func TestCoordinationPoliciesWireTheSignal(t *testing.T) {
	var sawLocal, sawOrderer, sawGossip, sawBoth bool
	for _, p := range coordinationLadder {
		src := p.HintSource
		if src.Validate() != nil {
			t.Errorf("%s: invalid hint source %q", p.Label, src)
		}
		switch {
		case p.Backpressure == nil && p.Gossip == nil:
			sawLocal = true
		case src == fabric.HintOrderer:
			sawOrderer = true
			if p.Gossip != nil {
				t.Errorf("%s: orderer-sourced rung configures gossip", p.Label)
			}
		case src == fabric.HintGossip:
			sawGossip = true
			if p.Gossip == nil {
				t.Errorf("%s: gossip-sourced rung lacks Config.Gossip", p.Label)
			}
		case src == fabric.HintBoth:
			sawBoth = true
			if p.Gossip == nil || p.Backpressure == nil {
				t.Errorf("%s: combined rung must configure both signals", p.Label)
			}
		}
	}
	if !sawLocal || !sawOrderer || !sawGossip || !sawBoth {
		t.Fatalf("ladder must compare local vs orderer vs gossip vs both rungs (local=%v orderer=%v gossip=%v both=%v)",
			sawLocal, sawOrderer, sawGossip, sawBoth)
	}
}

// TestCoordinationGossipRungsExchangeEstimates proves the gossip
// rungs actually gossip in the smoke regime — messages flow, merges
// happen — while the orderer rung keeps every gossip metric at zero.
func TestCoordinationGossipRungsExchangeEstimates(t *testing.T) {
	cells := cross(on(C1, EHR), byControl(coordinationLadder...))
	results, err := runCells(SmokeOptions(), cells, cell.build)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cells {
		r := results[i]
		if c.ctl.Gossip != nil {
			if r.GossipMsgs == 0 || r.GossipMerges == 0 {
				t.Errorf("%s: gossip configured but msgs=%.0f merges=%.0f",
					c.ctl.Label, r.GossipMsgs, r.GossipMerges)
			}
		} else if r.GossipMsgs != 0 || r.GossipMerges != 0 || r.GossipEstFinal != 0 {
			t.Errorf("%s: gossip disabled but msgs=%.0f merges=%.0f est=%g",
				c.ctl.Label, r.GossipMsgs, r.GossipMerges, r.GossipEstFinal)
		}
	}
}
