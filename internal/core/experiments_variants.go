package core

import "fmt"

// Fig17 compares Fabric 1.4 and Fabric++ across block sizes (EHR):
// total failures and endorsement failures.
func Fig17(o Options) (string, error) {
	return table(o, cross(on(C1, EHR), bySystem(Fabric14, FabricPP), byBlockSize(10, 50, 100)), cell.build,
		[]string{"system", "block size", "failures %", "endorsement %"},
		func(c cell, r Result) []any { return []any{c.sys, c.bs, r.FailurePct, r.EndorsementPct} })
}

// Fig18 compares Fabric 1.4 and Fabric++ across the four use-case
// chaincodes: latency and total failures. DV and SCM carry very large
// range reads, which make Fabric++'s conflict graphs explode.
func Fig18(o Options) (string, error) {
	return table(o, cross(on(C1, EHR), byCC(useCases...), bySystem(Fabric14, FabricPP)), cell.build,
		[]string{"chaincode", "system", "avg latency (s)", "failures %"},
		func(c cell, r Result) []any { return []any{c.cc.Name, c.sys, r.LatencySec, r.FailurePct} })
}

// variantWorkloadSweep prints failures per workload mix and per skew
// for one system vs stock Fabric (Figs 19, 22, 25), both tables from
// one batch. rate overrides the arrival rate when positive (0 keeps
// the Table 3 default).
func variantWorkloadSweep(o Options, sys System, mixes []namedMix, rate float64) (string, error) {
	base := on(C2, uniformRU(o.GenKeys))
	if rate > 0 {
		base.rate = rate
	}
	vs := bySystem(Fabric14, sys)
	cells := cross(base, byMix(o.GenKeys, mixes...), vs)
	n := len(cells) // mix cells first, then the skew cells
	cells = append(cells, cross(base, bySkew(0, 1, 2), vs)...)
	results, err := runCells(o, cells, cell.build)
	if err != nil {
		return "", err
	}
	return render([]string{"workload", "system", "failures %"}, cells[:n], results[:n],
		func(c cell, r Result) []any { return []any{c.wl, c.sys, r.FailurePct} }) + "\n" +
		render([]string{"zipf skew", "system", "failures %"}, cells[n:], results[n:],
			func(c cell, r Result) []any { return []any{c.skew, c.sys, r.FailurePct} }), nil
}

// Fig19 compares Fabric++ across workloads and skews.
func Fig19(o Options) (string, error) {
	return variantWorkloadSweep(o, FabricPP, heavyMixes, 0)
}

// rateSystemHeader and rateSystemRow are the table Figs 20 and 23
// share: latency, endorsement failures and MVCC conflicts per (rate,
// system).
var rateSystemHeader = []string{"rate (tps)", "system", "avg latency (s)", "endorsement %", "MVCC %"}

func rateSystemRow(c cell, r Result) []any {
	return []any{c.rate, c.sys, r.LatencySec, r.EndorsementPct, r.MVCCPct}
}

// Fig20 compares Streamchain and Fabric 1.4 at 10/50/100 tps on C1:
// latency, endorsement failures, MVCC conflicts.
func Fig20(o Options) (string, error) {
	return table(o,
		cross(on(C1, EHR), byBlockSize(10), byRate(10, 50, 100), bySystem(Fabric14, Streamchain)),
		cell.build, rateSystemHeader, rateSystemRow)
}

// Fig21 prints committed transaction throughput at high rates: 150
// and 200 tps on C1, 100 tps on C2.
func Fig21(o Options) (string, error) {
	points := []cell{{cluster: C1, rate: 150}, {cluster: C1, rate: 200}, {cluster: C2, rate: 100}}
	return table(o,
		cross(on(C1, EHR), axis(points, func(c *cell, p cell) { c.cluster, c.rate = p.cluster, p.rate }),
			bySystem(Fabric14, Streamchain)),
		cell.build,
		[]string{"cluster", "rate (tps)", "system", "committed throughput (tps)"},
		func(c cell, r Result) []any { return []any{c.cluster, c.rate, c.sys, r.Throughput} })
}

// Fig22 compares Streamchain across workloads and skews (50 tps, C2).
func Fig22(o Options) (string, error) {
	return variantWorkloadSweep(o, Streamchain, heavyMixes, 50)
}

// Fig23 is the RAM-disk ablation: Streamchain with and without it,
// and Fabric 1.4, at 10 and 50 tps.
func Fig23(o Options) (string, error) {
	return table(o,
		cross(on(C1, EHR), byBlockSize(10), byRate(10, 50), bySystem(Fabric14, Streamchain, StreamchainNoRAM)),
		cell.build, rateSystemHeader, rateSystemRow)
}

// Fig24 compares FabricSharp and Fabric 1.4 at 10/50/100 tps: total
// failures, endorsement failures and committed throughput.
func Fig24(o Options) (string, error) {
	return table(o, cross(on(C1, EHR), byRate(10, 50, 100), bySystem(Fabric14, FabricSharp)), cell.build,
		[]string{"rate (tps)", "system", "failures %", "endorsement %", "committed tput (tps)"},
		func(c cell, r Result) []any {
			return []any{c.rate, c.sys, r.FailurePct, r.EndorsementPct, r.Throughput}
		})
}

// Fig25 compares FabricSharp across workloads (no range-heavy —
// FabricSharp does not support range queries) and skews.
func Fig25(o Options) (string, error) {
	return variantWorkloadSweep(o, FabricSharp, []namedMix{mixRH, mixIH, mixUH, mixDH}, 0)
}

// Fig26 compares all four systems on the C1 cluster (EHR): latency,
// endorsement failures and MVCC conflicts at 10/50/100 tps.
func Fig26(o Options) (string, error) {
	return table(o, cross(on(C1, EHR), byRate(10, 50, 100), bySystem(AllSystems()...)), cell.build,
		[]string{"rate (tps)", "system", "avg latency (s)", "endorsement %", "MVCC %", "failures %"},
		func(c cell, r Result) []any {
			return []any{c.rate, c.sys, r.LatencySec, r.EndorsementPct, r.MVCCPct, r.FailurePct}
		})
}

// Experiment is a runnable reproduction of one table or figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(Options) (string, error)
}

// Experiments lists every reproducible table and figure, in paper
// order.
func Experiments() []Experiment {
	return []Experiment{
		{"table2", "Chaincode functions and operations", Table2},
		{"table4", "Effect of database type (genChain workloads)", Table4},
		{"fig4", "Best block size at different transaction arrival rates", Fig4},
		{"fig5", "Minimum and maximum transaction failures", Fig5},
		{"fig6", "Latency and throughput at different block size", Fig6},
		{"fig7", "Inter/intra-block MVCC conflicts vs block size", Fig7},
		{"fig8", "Inter/intra-block MVCC conflicts vs arrival rate", Fig8},
		{"fig9", "Endorsement policy failures vs block size", Fig9},
		{"fig10", "Phantom read conflicts vs block size (SCM)", Fig10},
		{"fig11", "Effect of database type on latency and failures (EHR)", Fig11},
		{"fig12", "Effect of the number of organizations", Fig12},
		{"fig13", "Effect of endorsement policies P0-P3", Fig13},
		{"fig14", "Effect of workload mix", Fig14},
		{"fig15", "Effect of Zipfian key skew", Fig15},
		{"fig16", "Fabric 1.4 with and without network delay", Fig16},
		{"fig17", "Fabric++ vs Fabric 1.4: effect of block size", Fig17},
		{"fig18", "Fabric++ vs Fabric 1.4: effect of chaincodes", Fig18},
		{"fig19", "Fabric++ vs Fabric 1.4: workloads and skew", Fig19},
		{"fig20", "Streamchain vs Fabric 1.4: latency and failures", Fig20},
		{"fig21", "Streamchain vs Fabric 1.4: committed throughput", Fig21},
		{"fig22", "Streamchain vs Fabric 1.4: workloads and skew", Fig22},
		{"fig23", "Streamchain with and without a RAM disk", Fig23},
		{"fig24", "FabricSharp vs Fabric 1.4: failures and throughput", Fig24},
		{"fig25", "FabricSharp vs Fabric 1.4: workloads and skew", Fig25},
		{"fig26", "Comparison of all Fabric systems (C1)", Fig26},
		{"retry-policies", "Client retry policies: goodput, amplification, end-to-end cost", RetryPoliciesExp},
		{"retry-cotune", "Block size × backoff co-tuning: static vs adaptive vs budgeted, Fabric 1.4 vs Fabric++", RetryCotuneExp},
		{"retry-coordination", "Coordinated retry control: client-local AIMD vs orderer-hinted vs gossip-hinted vs both", RetryCoordinationExp},
		{"scale", "Million-client scale: cohort drivers × multi-channel sharding at fixed load", ScaleExp},
		{"faults", "Fault injection: crash/partition/flaky/slowdb scenarios × retry coordination mode", FaultsExp},
	}
}

// Lookup finds an experiment by id.
func Lookup(id string) (Experiment, error) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("core: unknown experiment %q", id)
}
