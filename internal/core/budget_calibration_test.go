package core

import (
	"testing"
	"time"

	"repro/internal/fabric"
)

// TestBudgetCalibrationPerChaincode pins the satellite finding behind
// RetryBudget.Adaptive: one fixed refill rate cannot fit every
// chaincode. Over 40 virtual seconds, DV's phantom-conflict storm
// burns a 1 token/s drop-mode bucket dry thousands of times while EHR
// — the workload the rate was presumably tuned for — exhausts an
// order of magnitude less. Adaptive calibration reacts to the
// conflict-class demand instead, raising DV's refill rate until drops
// collapse, while leaving a workload that fits its base rate roughly
// alone.
func TestBudgetCalibrationPerChaincode(t *testing.T) {
	fixed := fabric.RetryBudget{RefillPerSec: 1, Burst: 3, DropOnEmpty: true}
	adaptive := fabric.RetryBudget{RefillPerSec: 1, Burst: 3, DropOnEmpty: true, Adaptive: true}

	grid := []struct {
		cc     CCFactory
		budget fabric.RetryBudget
	}{
		{EHR, fixed},
		{EHR, adaptive},
		{DV, fixed},
		{DV, adaptive},
	}
	builds := make([]Builder, len(grid))
	for i, cell := range grid {
		cc, budget := cell.cc, cell.budget
		builds[i] = func(seed int64) fabric.Config {
			cfg := baseConfig(C1, cc, 1, Fabric14)(seed)
			cfg.BlockSize = 100
			cfg.Retry = staticBackoff
			cfg.RetryBudget = &budget
			return cfg
		}
	}
	o := Options{Duration: 40 * time.Second, Drain: 20 * time.Second, Seeds: []int64{1}}
	results, err := o.RunAll(builds)
	if err != nil {
		t.Fatal(err)
	}
	ehrFixed, ehrAdaptive := results[0], results[1]
	dvFixed, dvAdaptive := results[2], results[3]
	t.Logf("exhaustions over 40s: ehr fixed=%.0f adaptive=%.0f, dv fixed=%.0f adaptive=%.0f",
		ehrFixed.BudgetExhausted, ehrAdaptive.BudgetExhausted,
		dvFixed.BudgetExhausted, dvAdaptive.BudgetExhausted)

	// The mismatch: the same fixed bucket that roughly fits EHR burns
	// thousands of DV retries.
	if dvFixed.BudgetExhausted < 1000 {
		t.Errorf("dv fixed-budget exhaustions %.0f, want the thousands the 1/s rate cannot absorb",
			dvFixed.BudgetExhausted)
	}
	if dvFixed.BudgetExhausted < 2*ehrFixed.BudgetExhausted {
		t.Errorf("dv fixed exhaustions %.0f not clearly above ehr's %.0f: the per-chaincode mismatch vanished",
			dvFixed.BudgetExhausted, ehrFixed.BudgetExhausted)
	}
	// The fix: adaptive calibration absorbs most of DV's conflict-class
	// demand without being told the workload.
	if dvAdaptive.BudgetExhausted > dvFixed.BudgetExhausted/2 {
		t.Errorf("dv adaptive exhaustions %.0f, want well under half of fixed %.0f",
			dvAdaptive.BudgetExhausted, dvFixed.BudgetExhausted)
	}
	if dvAdaptive.Throughput < dvFixed.Throughput {
		t.Errorf("dv adaptive throughput %.1f below fixed %.1f: the raised budget should commit more",
			dvAdaptive.Throughput, dvFixed.Throughput)
	}
}
