package core

import (
	"repro/internal/fabric"
	"repro/internal/metrics"
	"repro/internal/netem"
	"repro/internal/statedb"
)

// cell is one point of an experiment grid: a value for every axis the
// experiments sweep. An experiment is a list of cells, a header and a
// row function; build is the one mapping from a cell to the config it
// runs.
type cell struct {
	cluster Cluster
	cc      CCFactory
	wl      string // §4.4 mix abbreviation when cc is a genChain
	sys     System
	skew    float64
	rate    float64
	bs      int
	db      statedb.Kind
	ctl     Rung
	// delay is extra latency injected on org 0's links (§5.1.7); the
	// zero Link injects nothing.
	delay netem.Link
	// scenario names a fabric.Faults scenario ("" or "none" = healthy).
	scenario string
	// clients overrides the cluster's client count when positive.
	clients  int
	channels int
}

// on returns the cell at the paper's Table 3 defaults for one
// chaincode on one cluster: Fabric 1.4, skew 1, and DefaultConfig's
// rate, block size and database. Experiments vary it along axes.
func on(cluster Cluster, cc CCFactory) cell {
	d := fabric.DefaultConfig()
	return cell{cluster: cluster, cc: cc, sys: Fabric14, skew: 1,
		rate: d.Rate, bs: d.BlockSize, db: d.DBKind}
}

// build returns the cell's Builder.
func (c cell) build() Builder { return c.with(nil) }

// with is build plus one experiment-specific override applied last,
// for the knobs only a single experiment turns.
func (c cell) with(mod func(*fabric.Config)) Builder {
	return func(seed int64) fabric.Config {
		cfg := baseConfig(c.cluster, c.cc, c.skew, c.sys)(seed)
		cfg.Rate = c.rate
		cfg.BlockSize = c.bs
		cfg.DBKind = c.db
		c.ctl.Apply(&cfg)
		if c.scenario != "" && c.scenario != "none" {
			// "none" leaves Config.Faults nil: the fault subsystem is
			// then byte-identical off and the row is a healthy baseline.
			cfg.Faults = &fabric.Faults{Scenario: c.scenario}
		}
		if c.delay != (netem.Link{}) {
			cfg.DelayOrg, cfg.DelayLink = 0, c.delay
		}
		if c.clients > 0 {
			cfg.Clients = c.clients
		}
		cfg.Channels = c.channels
		if mod != nil {
			mod(&cfg)
		}
		return cfg
	}
}

// axis lifts a value list into one sweep axis: a setter per value.
func axis[T any](vals []T, set func(*cell, T)) []func(*cell) {
	out := make([]func(*cell), len(vals))
	for i, v := range vals {
		v := v
		out[i] = func(c *cell) { set(c, v) }
	}
	return out
}

func byCC(v ...CCFactory) []func(*cell) {
	return axis(v, func(c *cell, cc CCFactory) { c.cc = cc })
}

func bySystem(v ...System) []func(*cell) {
	return axis(v, func(c *cell, s System) { c.sys = s })
}

func bySkew(v ...float64) []func(*cell) {
	return axis(v, func(c *cell, s float64) { c.skew = s })
}

func byRate(v ...float64) []func(*cell) {
	return axis(v, func(c *cell, r float64) { c.rate = r })
}

func byBlockSize(v ...int) []func(*cell) {
	return axis(v, func(c *cell, bs int) { c.bs = bs })
}

func byDB(v ...statedb.Kind) []func(*cell) {
	return axis(v, func(c *cell, k statedb.Kind) { c.db = k })
}

func byControl(v ...Rung) []func(*cell) {
	return axis(v, func(c *cell, ctl Rung) { c.ctl = ctl })
}

func byScenario(v ...string) []func(*cell) {
	return axis(v, func(c *cell, s string) { c.scenario = s })
}

// byMix sweeps genChain workload mixes over a keys-sized world state.
func byMix(keys int, v ...namedMix) []func(*cell) {
	return axis(v, func(c *cell, m namedMix) { c.wl, c.cc = m.name, GenChain(m.mix, keys) })
}

// cross enumerates base × axes in row order: the first axis varies
// slowest. Row order is table order and golden order.
func cross(base cell, axes ...[]func(*cell)) []cell {
	cells := []cell{base}
	for _, ax := range axes {
		next := make([]cell, 0, len(cells)*len(ax))
		for _, c := range cells {
			for _, set := range ax {
				c := c
				set(&c)
				next = append(next, c)
			}
		}
		cells = next
	}
	return cells
}

// runCells is the one place cells become simulations: one Builder per
// cell, one RunAll batch, results in cell order. A per-cell hook (a
// run oracle, a trace sink) attaches here and covers every experiment.
func runCells[C any](o Options, cells []C, build func(C) Builder) ([]Result, error) {
	builds := make([]Builder, len(cells))
	for i, c := range cells {
		builds[i] = build(c)
	}
	return o.RunAll(builds)
}

// render prints one table row per (cell, result) pair in cell order.
func render[C any](header []string, cells []C, results []Result, row func(C, Result) []any) string {
	t := metrics.NewTable(header...)
	for i, c := range cells {
		t.AddRow(row(c, results[i])...)
	}
	return t.String()
}

// table is the shape of every single-table experiment: run the cells,
// print a row for each.
func table[C any](o Options, cells []C, build func(C) Builder, header []string, row func(C, Result) []any) (string, error) {
	results, err := runCells(o, cells, build)
	if err != nil {
		return "", err
	}
	return render(header, cells, results, row), nil
}
