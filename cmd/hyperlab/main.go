// Command hyperlab regenerates the tables and figures of "Why Do My
// Blockchain Transactions Fail? A Study of Hyperledger Fabric"
// (SIGMOD 2021) from the simulated testbed, plus the lab's own
// experiments (retry-policies, retry-cotune, retry-coordination,
// scale). See docs/EXPERIMENTS.md for every experiment id and its
// sweep axes.
//
// Usage:
//
//	hyperlab -list                      list all experiments
//	hyperlab -exp fig7                  quick regime (30 virtual s, 1 seed)
//	hyperlab -exp fig7 -regime quick    same (quick is the default regime)
//	hyperlab -exp retry-cotune -regime smoke
//	                                    smoke regime (5 virtual s, shrunken grid; CI)
//	hyperlab -exp fig7 -regime full     paper regime (3 virtual min, 3 seeds)
//	hyperlab -exp all                   run everything in the chosen regime
//	hyperlab -exp all -parallel 8       cap the worker pool (default: all cores)
//	hyperlab -adhoc -chaincode ehr -rate 100 -block 50 -db LevelDB -system fabric++
//	                                    one ad-hoc run with a report line
//	hyperlab -adhoc -control budgeted-adaptive -closedloop -think exp:500ms
//	                                    ad-hoc run under one rung of the control
//	                                    studies (here static backoff, a drop-mode
//	                                    retry budget with adaptive refill) and
//	                                    think time; -control nope lists the rungs
//	hyperlab -adhoc -control hinted-gossip
//	                                    ad-hoc run paced by the gossiped
//	                                    client-to-client congestion signal
//	hyperlab -adhoc -control split-both
//	                                    same stack with the signal split:
//	                                    conflicts drive backoff, congestion
//	                                    drives pacing
//	hyperlab -exp scale                 cohort drivers x multi-channel sharding,
//	                                    10^2..10^6 simulated clients
//	hyperlab -adhoc -clients 100000 -cohort 1000 -channels 4 -crosschannel 0.1
//	                                    ad-hoc sharded run: 100k clients in
//	                                    cohorts of 1000 over 4 channels
//	hyperlab -exp faults                fault injection: crash/partition/flaky/
//	                                    slowdb scenarios x coordination mode
//	hyperlab -adhoc -faults crash -control hinted-orderer
//	                                    ad-hoc run under the seeded crash
//	                                    scenario with client deadlines
//	hyperlab -render                    emit a generated genChain chaincode
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/gen"
	"repro/internal/metrics"
	"repro/internal/statedb"
)

// cli is the parsed command line. The ad-hoc flags that are
// fabric.Config fields bind straight onto cfg, the table lookups onto
// their typed fields; the mode switches and the names adhocConfig
// resolves are the other fields.
type cli struct {
	list, render, adhoc, verbose bool
	regime                       regime
	cluster                      core.Cluster
	system                       core.System

	exp, faults               string
	parallel, dump            int
	chaincode, control, think string
	skew                      float64
	clients                   int

	cfg fabric.Config
}

// choice defines a flag that takes the name of one of values, each
// spelled one way, and stores that value in into; an unknown name is an
// error that lists the names.
func choice[T any](fs *flag.FlagSet, into *T, flagName, usage string, values []T, name func(T) string) {
	names := make([]string, len(values))
	for i, v := range values {
		names[i] = name(v)
	}
	want := strings.Join(names[:len(names)-1], ", ") + " or " + names[len(names)-1]
	fs.Func(flagName, fmt.Sprintf("%s: %s (default %s)", usage, want, name(*into)), func(s string) error {
		i := slices.Index(names, s)
		if i < 0 {
			return fmt.Errorf("unknown %s %q, want %s", flagName, s, want)
		}
		*into = values[i]
		return nil
	})
}

// parseFlags defines every flag on fs and parses args into a cli.
func parseFlags(fs *flag.FlagSet, args []string) (*cli, error) {
	c := &cli{cfg: fabric.DefaultConfig(), regime: regimes[0], cluster: core.C1, system: core.Fabric14, faults: "off"}
	fs.BoolVar(&c.list, "list", false, "list experiments and exit")
	fs.StringVar(&c.exp, "exp", "", "experiment id (table2, table4, fig4..fig26, retry-policies, or 'all')")
	choice(fs, &c.regime, "regime", "experiment regime (quick = 30 virtual s x 1 seed, full = the paper's 3 virtual min x 3 seeds, smoke = 5 virtual s on shrunken grids for CI)",
		regimes, func(r regime) string { return r.name })
	fs.IntVar(&c.parallel, "parallel", 0, "simulations run concurrently per experiment (0 = all cores)")
	fs.BoolVar(&c.render, "render", false, "print a generated genChain chaincode and exit")
	fs.BoolVar(&c.adhoc, "adhoc", false, "run one ad-hoc configuration")
	fs.StringVar(&c.chaincode, "chaincode", "ehr", "ad-hoc run: ehr|dv|scm|drm|genchain")
	fs.Float64Var(&c.cfg.Rate, "rate", 100, "ad-hoc run: arrival rate in tps")
	fs.IntVar(&c.cfg.BlockSize, "block", 100, "ad-hoc run: block size")
	choice(fs, &c.cfg.DBKind, "db", "ad-hoc run: state database", []statedb.Kind{statedb.CouchDB, statedb.LevelDB}, statedb.Kind.String)
	choice(fs, &c.system, "system", "ad-hoc run: system", core.AllSystems(), func(s core.System) string { return s.Variant().Name() })
	choice(fs, &c.cluster, "cluster", "ad-hoc run: testbed", []core.Cluster{core.C1, core.C2}, core.Cluster.String)
	fs.Float64Var(&c.skew, "skew", 1, "ad-hoc run: Zipfian key skew")
	fs.DurationVar(&c.cfg.Duration, "duration", 30*time.Second, "ad-hoc run: virtual send window")
	fs.Int64Var(&c.cfg.Seed, "seed", 1, "ad-hoc run: random seed")
	fs.IntVar(&c.dump, "dump", 0, "ad-hoc run: print JSON summaries of the first N blocks")
	var rungs []string
	for _, r := range core.Rungs() {
		rungs = append(rungs, r.Label)
	}
	fs.StringVar(&c.control, "control", "none", "ad-hoc run: client control plane, a rung of the control studies: "+strings.Join(rungs, "|"))
	fs.BoolVar(&c.cfg.ClosedLoop, "closedloop", false, "ad-hoc run: closed-loop clients instead of Poisson arrivals")
	fs.IntVar(&c.cfg.InFlightPerClient, "inflight", 1, "ad-hoc run: closed-loop in-flight window per client")
	fs.StringVar(&c.think, "think", "none", "ad-hoc run: closed-loop think time none|fixed:<dur>|exp:<dur>|lognormal:<dur>")
	fs.IntVar(&c.clients, "clients", 0, "ad-hoc run: simulated client population (0 = cluster default)")
	fs.IntVar(&c.cfg.CohortSize, "cohort", 0, "ad-hoc run: clients per cohort driver (0/1 = exact per-client simulation)")
	fs.IntVar(&c.cfg.Channels, "channels", 1, "ad-hoc run: channel count; each channel gets its own orderer and ledger")
	fs.Float64Var(&c.cfg.CrossChannel, "crosschannel", 0, "ad-hoc run: fraction of transactions spanning two channels (needs -channels >= 2)")
	choice(fs, &c.faults, "faults", "ad-hoc run: fault scenario", append([]string{"off"}, fabric.FaultScenarios()...), func(s string) string { return s })
	fs.BoolVar(&c.verbose, "v", false, "print per-seed progress")
	return c, fs.Parse(args)
}

func main() {
	c, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err != nil {
		fatal(err)
	}
	switch {
	case c.list:
		fmt.Println("Available experiments (paper table/figure -> id):")
		for _, e := range core.Experiments() {
			fmt.Printf("  %-14s %s\n", e.ID, e.Title)
		}
	case c.render:
		src, err := gen.Render(gen.GenChainSpec(), true)
		if err != nil {
			fatal(err)
		}
		fmt.Println(src)
	case c.adhoc:
		adhoc(c)
	case c.exp != "":
		runExperiments(c.exp, c.regime, c.verbose, c.parallel)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hyperlab:", err)
	os.Exit(1)
}

// regime is one -regime choice: the options an experiment runs under
// and the label printed above its table.
type regime struct {
	name, label string
	opts        func() core.Options
}

// regimes lists the -regime choices; the first is the default.
var regimes = []regime{
	{"quick", "quick regime (30 virtual s, 1 seed)", core.QuickOptions},
	{"full", "paper regime (3 virtual min, 3 seeds)", core.FullOptions},
	{"smoke", "smoke regime (5 virtual s, shrunken grid)", core.SmokeOptions},
}

func runExperiments(id string, rg regime, verbose bool, parallel int) {
	opts := rg.opts()
	opts.Parallelism = parallel
	if verbose {
		opts.Progress = func(line string) { fmt.Fprintln(os.Stderr, "  "+line) }
	}
	var exps []core.Experiment
	if id == "all" {
		exps = core.Experiments()
	} else {
		e, err := core.Lookup(id)
		if err != nil {
			fatal(err)
		}
		exps = []core.Experiment{e}
	}
	for _, e := range exps {
		start := time.Now()
		fmt.Printf("== %s: %s [%s]\n", e.ID, e.Title, rg.label)
		out, err := e.Run(opts)
		if err != nil {
			fatal(err)
		}
		fmt.Println(out)
		fmt.Printf("(%s took %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
}

// adhocConfig resolves the ad-hoc flags into the config to run: the
// bound fields are already in c.cfg, the named choices are looked up
// here, and the result is validated so that every bad flag value is an
// error before anything runs.
func adhocConfig(c *cli) (fabric.Config, error) {
	cfg := c.cfg
	if c.exp != "" {
		return cfg, fmt.Errorf("-adhoc runs one ad-hoc configuration and cannot be combined with -exp %q", c.exp)
	}

	c.cluster.Apply(&cfg)
	switch {
	case c.clients < 0:
		return cfg, fmt.Errorf("-clients must be >= 0 clients (0 = cluster default), got %d", c.clients)
	case c.clients > 0:
		cfg.Clients = c.clients
	}
	if c.dump < 0 {
		return cfg, fmt.Errorf("-dump must be >= 0 blocks, got %d", c.dump)
	}
	cfg.Variant = c.system.Variant()

	rung, err := core.LookupRung(c.control)
	if err != nil {
		return cfg, err
	}
	rung.Apply(&cfg)
	if c.faults != "off" {
		cfg.Faults = &fabric.Faults{Scenario: c.faults}
	}
	if cfg.ThinkTime, err = fabric.ParseThinkTime(c.think); err != nil {
		return cfg, err
	}

	cc := core.GenChain(gen.UpdateHeavy, 0)
	if name := strings.ToLower(c.chaincode); name != "genchain" {
		if cc, err = core.UseCase(name); err != nil {
			return cfg, err
		}
	}
	cfg.Chaincode = cc.New()
	if cfg.Workload, err = cc.Generator(c.skew); err != nil {
		return cfg, err
	}

	cfg.Drain = cfg.Duration
	// Keep full transaction payloads so the hash chain can be
	// re-verified after the run.
	cfg.StripAfterCommit = false
	return cfg, cfg.Validate()
}

func adhoc(c *cli) {
	cfg, err := adhocConfig(c)
	if err != nil {
		fatal(err)
	}
	nw, err := fabric.NewNetwork(cfg)
	if err != nil {
		fatal(err)
	}
	start := time.Now()
	rep := nw.Run()
	mode := "open-loop"
	if cfg.ClosedLoop {
		mode = fmt.Sprintf("closed-loop(%d)", cfg.InFlightPerClient)
	}
	if cfg.CohortSize > 1 {
		mode += fmt.Sprintf(", %d clients in cohorts of %d", cfg.Clients, cfg.CohortSize)
	}
	if cfg.Channels > 1 {
		mode += fmt.Sprintf(", %d channels (%.0f%% cross-channel)", cfg.Channels, 100*cfg.CrossChannel)
	}
	fmt.Printf("%s on %s, %s, rate %.0f tps, block %d, db %s, skew %.1f, control %s (retry %s), %s (%v virtual, %v real)\n",
		c.system, c.cluster, c.chaincode, cfg.Rate, cfg.BlockSize, cfg.DBKind, c.skew,
		c.control, cfg.Retry.Name(), mode,
		cfg.Duration, time.Since(start).Round(time.Millisecond))
	fmt.Println(rep)
	summarize(os.Stdout, cfg, rep)
	for ch, chain := range nw.Chains() {
		if err := chain.Verify(); err != nil {
			fatal(fmt.Errorf("channel %d chain verification failed: %w", ch, err))
		}
	}
	if chains := nw.Chains(); len(chains) > 1 {
		for ch, chain := range chains {
			fmt.Printf("channel %d: %d blocks, %d transactions, hash chain verified\n",
				ch, chain.Height(), chain.TxCount())
		}
	} else {
		fmt.Printf("chain: %d blocks, %d transactions, hash chain verified\n",
			nw.Chain().Height(), nw.Chain().TxCount())
	}
	for n := uint64(1); n <= uint64(c.dump) && n < nw.Chain().Height(); n++ {
		summary, err := nw.Chain().Block(n).MarshalSummary()
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(summary))
	}
}

// summarize writes the ad-hoc run's summary lines below its report line:
// the effective (job-level) metrics when clients track outcomes, and one
// line per control subsystem or fault scenario the run configures.
func summarize(w io.Writer, cfg fabric.Config, rep metrics.Report) {
	if _, none := cfg.Retry.(fabric.NoRetry); !none || cfg.ClosedLoop {
		fmt.Fprintf(w, "effective: jobs=%d eventual-valid=%d gave-up=%d attempts=%d e2e=%v\n",
			rep.Jobs, rep.EventualValid, rep.GaveUp, rep.Attempts,
			rep.AvgEndToEnd.Round(time.Millisecond))
	}
	if cfg.RetryBudget != nil {
		fmt.Fprintf(w, "budget: exhausted=%d deferred=%d max-deferred-depth=%d\n",
			rep.BudgetExhausted, rep.DeferredRetries, rep.MaxDeferredDepth)
	}
	if rep.Backoff.Max > 0 {
		fmt.Fprintf(w, "adaptive backoff: avg=%v max=%v final=%v\n",
			rep.Backoff.Avg().Round(time.Millisecond),
			rep.Backoff.Max.Round(time.Millisecond),
			rep.Backoff.Last.Round(time.Millisecond))
	}
	if cfg.Backpressure != nil {
		fmt.Fprint(w, "backpressure:")
		if rep.Hint.N > 0 {
			// The orderer samples its hint only when it feeds the
			// clients' pacing; under a gossip hint source it has none.
			fmt.Fprintf(w, " hint avg=%.3f max=%.3f final=%.3f", rep.Hint.Avg(), rep.Hint.Max, rep.Hint.Last)
		}
		fmt.Fprintf(w, " paced=%d time-paced=%v\n", rep.PacedSubmissions, rep.Paced.Sum.Round(time.Millisecond))
	}
	if cfg.Gossip != nil {
		fmt.Fprintf(w, "gossip via %s: msgs=%d merges=%d est avg=%.3f max=%.3f final=%.3f stale avg=%v max=%v\n",
			cfg.HintSource, rep.GossipMessages, rep.GossipMerges,
			rep.GossipEstimate.Avg(), rep.GossipEstimate.Max, rep.GossipEstimate.Last,
			rep.GossipStaleness.Avg().Round(time.Millisecond),
			rep.GossipStaleness.Max.Round(time.Millisecond))
	}
	if cfg.SplitSignal != nil {
		fmt.Fprintf(w, "split: conflict avg=%.3f max=%.3f final=%.3f congestion avg=%.3f max=%.3f final=%.3f\n",
			rep.ConflictEst.Avg(), rep.ConflictEst.Max,
			rep.ConflictEst.Last, rep.CongestEst.Avg(), rep.CongestEst.Max,
			rep.CongestEst.Last)
	}
	if cfg.Faults != nil {
		fmt.Fprintf(w, "faults %s: windows=%d crashes=%d downtime=%v eto=%d sto=%d orphans=%d recoveries=%d recov avg=%v max=%v\n",
			cfg.Faults.Scenario, rep.FaultWindows, rep.NodeCrashes,
			rep.NodeDowntime.Round(time.Millisecond),
			rep.EndorseTimeouts, rep.SubmitTimeouts, rep.OrphanedTxs,
			rep.Recovery.N,
			rep.Recovery.Avg().Round(time.Millisecond),
			rep.Recovery.Max.Round(time.Millisecond))
	}
}
