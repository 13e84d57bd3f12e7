package core

import (
	"strings"
	"testing"
	"time"
)

func TestRetryCotuneTableShape(t *testing.T) {
	out := smokeCorpus(t, "retry-cotune")
	for _, col := range []string{"goodput (tps)", "amp", "exhausted", "deferred", "aimd (s)"} {
		if !strings.Contains(out, col) {
			t.Errorf("table missing column %q", col)
		}
	}
	for _, label := range []string{"static", "adaptive", "budgeted", "paced"} {
		if !strings.Contains(out, label) {
			t.Errorf("table missing policy %q", label)
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
	if want := 2 * len(cotuneLadder) * len(LabBlockSizes); rows != want {
		t.Errorf("smoke grid has %d rows, want %d", rows, want)
	}
}

func TestRetryCotuneFullGridEnumeration(t *testing.T) {
	cells := ladderGrid(false, cotuneLadder)
	want := 4 * 2 * len(cotuneLadder) * len(LabBlockSizes)
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

func TestSmokeOptionsRegime(t *testing.T) {
	o := SmokeOptions()
	if !o.Smoke {
		t.Error("SmokeOptions must set Smoke")
	}
	if o.Duration > 10*time.Second {
		t.Errorf("smoke duration %v too long for CI", o.Duration)
	}
	if len(o.Seeds) != 1 {
		t.Errorf("smoke regime runs %d seeds, want 1", len(o.Seeds))
	}
}
