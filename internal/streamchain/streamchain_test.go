package streamchain

import (
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/fabrictest"
	"repro/internal/ledger"
)

func lowRate(cfg fabric.Config) fabric.Config {
	cfg.Rate = 10
	return cfg
}

func TestLowerLatencyThanVanillaAtLowRate(t *testing.T) {
	scCfg := lowRate(fabrictest.EHRConfig(1, New()))
	_, sc := fabrictest.Run(t, scCfg)
	vCfg := lowRate(fabrictest.EHRConfig(1, nil))
	_, vanilla := fabrictest.Run(t, vCfg)
	if sc.AvgLatency >= vanilla.AvgLatency {
		t.Errorf("streamchain latency %v >= vanilla %v", sc.AvgLatency, vanilla.AvgLatency)
	}
	if sc.FailurePct >= vanilla.FailurePct {
		t.Errorf("streamchain failures %.2f%% >= vanilla %.2f%%", sc.FailurePct, vanilla.FailurePct)
	}
	t.Logf("streamchain %v", sc)
	t.Logf("vanilla     %v", vanilla)
}

func TestOneTransactionPerBlock(t *testing.T) {
	cfg := lowRate(fabrictest.EHRConfig(2, New()))
	nw, rep := fabrictest.Run(t, cfg)
	for _, b := range nw.Chain().Blocks() {
		if len(b.Transactions) > 1 {
			t.Fatalf("block %d has %d transactions; streaming requires 1", b.Number, len(b.Transactions))
		}
	}
	if rep.Blocks < rep.Committed {
		t.Errorf("blocks %d < committed %d", rep.Blocks, rep.Committed)
	}
}

func TestCollapsesAtHighRateOnLargeCluster(t *testing.T) {
	// C2-style cluster at 100 tps: per-peer delivery fan-out swamps
	// the orderer (§5.3.1); committed throughput falls well short of
	// the arrival rate while vanilla keeps up.
	c2 := func(v fabric.Variant) fabric.Config {
		cfg := fabrictest.EHRConfig(3, v)
		cfg.Orgs = 8
		cfg.PeersPerOrg = 4
		cfg.Clients = 25
		cfg.Rate = 100
		cfg.BlockSize = 100
		cfg.SpeedFactor = 2
		cfg.Duration = 30 * time.Second
		cfg.Drain = 15 * time.Second
		return cfg
	}
	_, sc := fabrictest.Run(t, c2(New()))
	_, vanilla := fabrictest.Run(t, c2(nil))
	if sc.Throughput >= 0.9*vanilla.Throughput {
		t.Errorf("streamchain tput %.1f not collapsed vs vanilla %.1f",
			sc.Throughput, vanilla.Throughput)
	}
	t.Logf("streamchain %.1f tps, vanilla %.1f tps", sc.Throughput, vanilla.Throughput)
}

func TestRAMDiskAblation(t *testing.T) {
	// Without the RAM disk, each streamed commit pays disk latency:
	// at 50 tps the system should be visibly worse than with it.
	with := fabrictest.EHRConfig(4, New())
	_, w := fabrictest.Run(t, with)
	without := fabrictest.EHRConfig(4, NewWithoutRAMDisk())
	_, wo := fabrictest.Run(t, without)
	if wo.AvgLatency <= w.AvgLatency {
		t.Errorf("no-ramdisk latency %v <= ramdisk %v", wo.AvgLatency, w.AvgLatency)
	}
	t.Logf("ramdisk %v", w)
	t.Logf("no-ramdisk %v", wo)
}

func TestNames(t *testing.T) {
	if New().Name() != "streamchain" || NewWithoutRAMDisk().Name() != "streamchain-noramdisk" {
		t.Error("names wrong")
	}
}

func TestHooksAreNoOps(t *testing.T) {
	v := New()
	tx := &ledger.Transaction{ID: "t", RWSet: &ledger.RWSet{}}
	if ok, cost := v.OnSubmit(tx); !ok || cost != 0 {
		t.Error("OnSubmit not a no-op")
	}
	kept, aborted, cost := v.OnCut([]*ledger.Transaction{tx})
	if len(kept) != 1 || aborted != nil || cost != 0 {
		t.Error("OnCut not a pass-through")
	}
	if v.SkipMVCC() {
		t.Error("SkipMVCC set")
	}
}
