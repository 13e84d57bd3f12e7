package core

import (
	"fmt"
	"time"

	"repro/internal/chaincodes/drm"
	"repro/internal/chaincodes/dv"
	"repro/internal/chaincodes/ehr"
	"repro/internal/chaincodes/scm"
	"repro/internal/costmodel"
	"repro/internal/fabric"
	"repro/internal/gen"
	"repro/internal/metrics"
	"repro/internal/netem"
	"repro/internal/policy"
	"repro/internal/statedb"
	"repro/internal/workload"
)

// Rates is the paper's transaction-arrival-rate sweep (Fig 4/5).
var Rates = []float64{10, 50, 100, 150, 200}

// BlockSizes is the paper's block-size sweep.
var BlockSizes = []int{10, 50, 100, 150, 200}

// Table2 prints the chaincode functions and their operation profiles.
func Table2(Options) (string, error) {
	t := metrics.NewTable("chaincode", "function", "reads", "writes", "range reads", "unchecked")
	rows := []struct {
		cc  string
		fns []workload.FunctionInfo
	}{
		{"EHR", ehr.Functions()}, {"DV", dv.Functions()},
		{"SCM", scm.Functions()}, {"DRM", drm.Functions()},
	}
	for _, r := range rows {
		for _, f := range r.fns {
			star := ""
			if f.Unchecked {
				star = "*"
			}
			t.AddRow(r.cc, f.Name, f.Reads, f.Writes, f.RangeReads, star)
		}
	}
	return t.String(), nil
}

// namedMix pairs a §4.4 workload abbreviation with its genChain mix.
type namedMix struct {
	name string
	mix  gen.Mix
}

var (
	mixRH  = namedMix{"RH", gen.ReadHeavy}
	mixIH  = namedMix{"IH", gen.InsertHeavy}
	mixUH  = namedMix{"UH", gen.UpdateHeavy}
	mixRaH = namedMix{"RaH", gen.RangeHeavy}
	mixDH  = namedMix{"DH", gen.DeleteHeavy}

	heavyMixes = []namedMix{mixRH, mixIH, mixUH, mixRaH, mixDH}
)

// Table4 reproduces the database-type study: average latency and
// failure percentage per workload on CouchDB vs LevelDB, plus the
// calibrated per-function-call latencies.
func Table4(o Options) (string, error) {
	runs, err := table(o,
		cross(on(C1, CCFactory{}), byMix(o.GenKeys, heavyMixes...), byDB(statedb.CouchDB, statedb.LevelDB)),
		cell.build,
		[]string{"workload", "db", "avg latency (s)", "failures %"},
		func(c cell, r Result) []any { return []any{c.wl, c.db.String(), r.LatencySec, r.FailurePct} })
	if err != nil {
		return "", err
	}
	ft := metrics.NewTable("function", "CouchDB (ms)", "LevelDB (ms)")
	cdb, ldb := costmodel.ForKind(statedb.CouchDB), costmodel.ForKind(statedb.LevelDB)
	ms := func(d time.Duration) string { return fmt.Sprintf("%.1f", float64(d)/float64(time.Millisecond)) }
	ft.AddRow("GetState", ms(cdb.Get), ms(ldb.Get))
	ft.AddRow("PutState", ms(cdb.Put), ms(ldb.Put))
	ft.AddRow("GetRange", ms(cdb.RangeBase), ms(ldb.RangeBase))
	ft.AddRow("DeleteState", ms(cdb.Delete), ms(ldb.Delete))
	return runs + "\nFunction call latency (cost model, calibrated to the paper):\n" + ft.String(), nil
}

// blockSizeSweep runs one chaincode on one cluster over rates × block
// sizes and returns the result grid. All rate × block-size × seed
// cells fan out across the worker pool; the grid is assembled in
// sweep order, so its contents do not depend on Parallelism.
func blockSizeSweep(o Options, cluster Cluster, cc CCFactory, sys System) (map[float64]map[int]Result, error) {
	base := on(cluster, cc)
	base.sys = sys
	cells := cross(base, byRate(Rates...), byBlockSize(BlockSizes...))
	results, err := runCells(o, cells, cell.build)
	if err != nil {
		return nil, err
	}
	grid := map[float64]map[int]Result{}
	for i, c := range cells {
		if grid[c.rate] == nil {
			grid[c.rate] = map[int]Result{}
		}
		grid[c.rate][c.bs] = results[i]
	}
	return grid, nil
}

// bestWorst extracts the block sizes with the fewest and most failed
// transactions at one rate (§5.1.1's "best/worst block size").
func bestWorst(row map[int]Result) (bestBS, worstBS int, least, most float64) {
	first := true
	for _, bs := range BlockSizes {
		r, ok := row[bs]
		if !ok {
			continue
		}
		if first || r.FailurePct < least {
			bestBS, least = bs, r.FailurePct
		}
		if first || r.FailurePct > most {
			worstBS, most = bs, r.FailurePct
		}
		first = false
	}
	return bestBS, worstBS, least, most
}

// Fig4 prints the best block size at each arrival rate for EHR, DV
// and DRM on both clusters.
func Fig4(o Options) (string, error) {
	t := metrics.NewTable("chaincode", "cluster", "rate (tps)", "best block size", "failures %")
	for _, cc := range []CCFactory{EHR, DV, DRM} {
		for _, cluster := range []Cluster{C1, C2} {
			grid, err := blockSizeSweep(o, cluster, cc, Fabric14)
			if err != nil {
				return "", err
			}
			for _, rate := range Rates {
				best, _, least, _ := bestWorst(grid[rate])
				t.AddRow(cc.Name, cluster, rate, best, least)
			}
		}
	}
	return t.String(), nil
}

// Fig5 prints the minimum and maximum failure percentages over the
// block-size sweep at each rate on C2.
func Fig5(o Options) (string, error) {
	t := metrics.NewTable("chaincode", "rate (tps)", "least failures %", "most failures %", "reduction %")
	for _, cc := range []CCFactory{EHR, DV, DRM} {
		grid, err := blockSizeSweep(o, C2, cc, Fabric14)
		if err != nil {
			return "", err
		}
		for _, rate := range Rates {
			_, _, least, most := bestWorst(grid[rate])
			reduction := 0.0
			if most > 0 {
				reduction = 100 * (most - least) / most
			}
			t.AddRow(cc.Name, rate, least, most, reduction)
		}
	}
	return t.String(), nil
}

// overBlockSizes is the sweep Figs 6, 7, 9 and 10 print different
// columns of: one chaincode on C2 at 100 tps over BlockSizes.
func overBlockSizes(o Options, cc CCFactory, header []string, row func(cell, Result) []any) (string, error) {
	return table(o, cross(on(C2, cc), byBlockSize(BlockSizes...)), cell.build, header, row)
}

// Fig6 prints latency and committed throughput vs block size (EHR at
// 100 tps on C2).
func Fig6(o Options) (string, error) {
	return overBlockSizes(o, EHR,
		[]string{"block size", "avg latency (s)", "throughput (tps)", "failures %"},
		func(c cell, r Result) []any { return []any{c.bs, r.LatencySec, r.Throughput, r.FailurePct} })
}

// Fig7 prints inter- vs intra-block MVCC conflicts vs block size
// (EHR, C2, 100 tps).
func Fig7(o Options) (string, error) {
	return overBlockSizes(o, EHR,
		[]string{"block size", "inter-block %", "intra-block %"},
		func(c cell, r Result) []any { return []any{c.bs, r.InterPct, r.IntraPct} })
}

// Fig8 prints inter- vs intra-block MVCC conflicts vs arrival rate
// (EHR, C2, block size 100).
func Fig8(o Options) (string, error) {
	return table(o, cross(on(C2, EHR), byRate(Rates...)), cell.build,
		[]string{"rate (tps)", "inter-block %", "intra-block %"},
		func(c cell, r Result) []any { return []any{c.rate, r.InterPct, r.IntraPct} })
}

// Fig9 prints endorsement policy failures vs block size (EHR, C2).
func Fig9(o Options) (string, error) {
	return overBlockSizes(o, EHR,
		[]string{"block size", "endorsement failures %"},
		func(c cell, r Result) []any { return []any{c.bs, r.EndorsementPct} })
}

// Fig10 prints phantom read conflicts vs block size (SCM, C2).
func Fig10(o Options) (string, error) {
	return overBlockSizes(o, SCM,
		[]string{"block size", "phantom read conflicts %"},
		func(c cell, r Result) []any { return []any{c.bs, r.PhantomPct} })
}

// Fig11 prints the database-type comparison on the EHR chaincode:
// latency, endorsement failures, inter/intra MVCC conflicts.
func Fig11(o Options) (string, error) {
	return table(o, cross(on(C2, EHR), byDB(statedb.CouchDB, statedb.LevelDB)), cell.build,
		[]string{"db", "avg latency (s)", "endorsement %", "inter-block %", "intra-block %"},
		func(c cell, r Result) []any {
			return []any{c.db.String(), r.LatencySec, r.EndorsementPct, r.InterPct, r.IntraPct}
		})
}

// Fig12 prints the effect of the number of organizations (4 peers
// each): latency and endorsement failures.
func Fig12(o Options) (string, error) {
	return table(o, []int{2, 4, 6, 8, 10},
		func(orgs int) Builder {
			return on(C2, EHR).with(func(cfg *fabric.Config) { cfg.Orgs, cfg.PeersPerOrg = orgs, 4 })
		},
		[]string{"orgs", "peers", "avg latency (s)", "endorsement failures %"},
		func(orgs int, r Result) []any { return []any{orgs, orgs * 4, r.LatencySec, r.EndorsementPct} })
}

// Fig13 prints the effect of the endorsement policies P0–P3.
func Fig13(o Options) (string, error) {
	return table(o, policy.AllNames(),
		func(p policy.Name) Builder {
			return on(C2, EHR).with(func(cfg *fabric.Config) { cfg.Policy = p })
		},
		[]string{"policy", "avg latency (s)", "endorsement failures %"},
		func(p policy.Name, r Result) []any { return []any{p.String(), r.LatencySec, r.EndorsementPct} })
}

// Fig14 prints failures per workload mix (genChain, C2).
func Fig14(o Options) (string, error) {
	return table(o, cross(on(C2, CCFactory{}), byMix(o.GenKeys, heavyMixes...)), cell.build,
		[]string{"workload", "failures %"},
		func(c cell, r Result) []any { return []any{c.wl, r.FailurePct} })
}

// uniformRU is the genChain uniform read/update mix of the Zipf-skew
// sweeps, on a keys-sized world state.
func uniformRU(keys int) CCFactory { return GenChain(gen.UniformRU, keys) }

// Fig15 prints failures per Zipfian skew (genChain uniform
// read/update mix, C2).
func Fig15(o Options) (string, error) {
	return table(o, cross(on(C2, uniformRU(o.GenKeys)), bySkew(0, 1, 2)), cell.build,
		[]string{"zipf skew", "failures %"},
		func(c cell, r Result) []any { return []any{c.skew, r.FailurePct} })
}

// Fig16 prints the network-delay emulation: Fabric 1.4 with and
// without 100±10 ms injected on one organization, at 10/50/100 tps.
func Fig16(o Options) (string, error) {
	delays := []netem.Link{{}, {Base: 100 * time.Millisecond, Jitter: 10 * time.Millisecond}}
	return table(o,
		cross(on(C1, EHR), byRate(10, 50, 100), axis(delays, func(c *cell, l netem.Link) { c.delay = l })),
		cell.build,
		[]string{"rate (tps)", "delay", "avg latency (s)", "endorsement %", "MVCC %"},
		func(c cell, r Result) []any {
			label := "no"
			if c.delay != (netem.Link{}) {
				label = "100±10ms"
			}
			return []any{c.rate, label, r.LatencySec, r.EndorsementPct, r.MVCCPct}
		})
}
