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
//	hyperlab -adhoc -chaincode ehr -rate 100 -block 50 -db leveldb -system fabric++
//	                                    one ad-hoc run with a report line
//	hyperlab -adhoc -retry adaptive -budget 1:3:drop -closedloop -think exp:500ms
//	                                    ad-hoc run with adaptive resubmission,
//	                                    a per-client retry budget and think time
//	hyperlab -adhoc -retry hinted -backpressure on
//	                                    ad-hoc run with orderer-driven
//	                                    backpressure hints pacing the clients
//	hyperlab -adhoc -retry hinted -backpressure on -gossip 2:500ms -hintsource gossip
//	                                    ad-hoc run paced by the gossiped
//	                                    client-to-client congestion signal
//	hyperlab -adhoc -retry hinted -backpressure on -gossip on -hintsource gossip -split on
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
//	hyperlab -adhoc -faults crash -retry hinted -backpressure on
//	                                    ad-hoc run under the seeded crash
//	                                    scenario with client deadlines
//	hyperlab -adhoc -faults 'partition:1@5s+10s,etimeout=2s'
//	                                    ad-hoc run with an explicit fault event
//	hyperlab -render                    emit a generated genChain chaincode
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/gen"
	"repro/internal/statedb"
)

// cli is the parsed command line. The ad-hoc flags that are
// fabric.Config fields bind straight onto cfg; the mode switches and
// the spec strings adhocConfig resolves are the other fields.
type cli struct {
	list, render, adhoc, verbose bool
	regime                       regime

	exp                   string
	parallel, dump        int
	chaincode, db, system string
	cluster, retry        string
	budget, backpressure  string
	gossip, hintSource    string
	split, think, faults  string
	skew                  float64
	clients               int

	cfg fabric.Config
}

// parseFlags defines every flag on fs and parses args into a cli.
func parseFlags(fs *flag.FlagSet, args []string) (*cli, error) {
	c := &cli{cfg: fabric.DefaultConfig()}
	fs.BoolVar(&c.list, "list", false, "list experiments and exit")
	fs.StringVar(&c.exp, "exp", "", "experiment id (table2, table4, fig4..fig26, retry-policies, or 'all')")
	c.regime = regimes[0]
	fs.Func("regime", "experiment regime: quick (30 virtual s x 1 seed, the default), full (the paper's 3 virtual min x 3 seeds) or smoke (5 virtual s, shrunken grids; CI)", func(name string) error {
		for _, r := range regimes {
			if r.name == name {
				c.regime = r
				return nil
			}
		}
		return fmt.Errorf("unknown regime %q, want quick, full or smoke", name)
	})
	fs.IntVar(&c.parallel, "parallel", 0, "simulations run concurrently per experiment (0 = all cores)")
	fs.BoolVar(&c.render, "render", false, "print a generated genChain chaincode and exit")
	fs.BoolVar(&c.adhoc, "adhoc", false, "run one ad-hoc configuration")
	fs.StringVar(&c.chaincode, "chaincode", "ehr", "ad-hoc run: ehr|dv|scm|drm|genchain")
	fs.Float64Var(&c.cfg.Rate, "rate", 100, "ad-hoc run: arrival rate in tps")
	fs.IntVar(&c.cfg.BlockSize, "block", 100, "ad-hoc run: block size")
	fs.StringVar(&c.db, "db", "couchdb", "ad-hoc run: couchdb|leveldb")
	fs.StringVar(&c.system, "system", "fabric", "ad-hoc run: fabric|fabric++|streamchain|fabricsharp")
	fs.StringVar(&c.cluster, "cluster", "C1", "ad-hoc run: C1|C2")
	fs.Float64Var(&c.skew, "skew", 1, "ad-hoc run: Zipfian key skew")
	fs.DurationVar(&c.cfg.Duration, "duration", 30*time.Second, "ad-hoc run: virtual send window")
	fs.Int64Var(&c.cfg.Seed, "seed", 1, "ad-hoc run: random seed")
	fs.IntVar(&c.dump, "dump", 0, "ad-hoc run: print JSON summaries of the first N blocks")
	fs.StringVar(&c.retry, "retry", "none", "ad-hoc run: retry policy none|immediate|backoff|adaptive|hinted")
	fs.StringVar(&c.budget, "budget", "", "ad-hoc run: retry budget 'rate:burst[:drop|defer][:adaptive]', e.g. 1:3, 2:5:drop, 1:3:drop:adaptive (empty = unlimited; default mode defer)")
	fs.StringVar(&c.backpressure, "backpressure", "", "ad-hoc run: orderer congestion hints off|on (empty = off)")
	fs.StringVar(&c.gossip, "gossip", "", "ad-hoc run: client-to-client congestion gossip off|on|'fanout:period', e.g. 2:500ms (empty = off)")
	fs.StringVar(&c.hintSource, "hintsource", "", "ad-hoc run: congestion hint producer orderer|gossip|both (empty = orderer)")
	fs.StringVar(&c.split, "split", "", "ad-hoc run: split conflict/congestion signal off|on (empty = off)")
	fs.BoolVar(&c.cfg.ClosedLoop, "closedloop", false, "ad-hoc run: closed-loop clients instead of Poisson arrivals")
	fs.IntVar(&c.cfg.InFlightPerClient, "inflight", 1, "ad-hoc run: closed-loop in-flight window per client")
	fs.StringVar(&c.think, "think", "none", "ad-hoc run: closed-loop think time none|fixed:<dur>|exp:<dur>|lognormal:<dur>")
	fs.IntVar(&c.clients, "clients", 0, "ad-hoc run: simulated client population (0 = cluster default)")
	fs.IntVar(&c.cfg.CohortSize, "cohort", 0, "ad-hoc run: clients per cohort driver (0/1 = exact per-client simulation)")
	fs.IntVar(&c.cfg.Channels, "channels", 1, "ad-hoc run: channel count; each channel gets its own orderer and ledger")
	fs.Float64Var(&c.cfg.CrossChannel, "crosschannel", 0, "ad-hoc run: fraction of transactions spanning two channels (needs -channels >= 2)")
	fs.StringVar(&c.faults, "faults", "", "ad-hoc run: fault schedule off|crash|partition|flaky|straggler|slowdb|chaos or 'kind[:target]@start+dur[:param][,...]' with etimeout=/stimeout= clauses (empty = off)")
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

// parseSystem resolves the -system spellings.
func parseSystem(s string) (core.System, error) {
	switch strings.ToLower(s) {
	case "fabric", "fabric-1.4":
		return core.Fabric14, nil
	case "fabric++", "fabricpp":
		return core.FabricPP, nil
	case "streamchain":
		return core.Streamchain, nil
	case "fabricsharp", "fabric#":
		return core.FabricSharp, nil
	}
	return 0, fmt.Errorf("unknown system %q", s)
}

// retryPolicies are the -retry spellings.
var retryPolicies = map[string]fabric.RetryPolicy{
	"": fabric.NoRetry{}, "none": fabric.NoRetry{},
	"immediate": fabric.ImmediateRetry{MaxAttempts: 3},
	"backoff":   core.StaticBackoff,
	"adaptive":  fabric.AdaptivePolicy{MaxAttempts: 5, Jitter: 0.2},
	"hinted":    fabric.BackpressurePolicy{MaxAttempts: 5, Jitter: 0.2},
}

// adhocConfig resolves the ad-hoc flags into the config to run: the
// bound fields are already in c.cfg, the named choices and spec
// strings are looked up and parsed here, and the result is validated so
// that every bad flag value is an error before anything runs.
func adhocConfig(c *cli) (fabric.Config, error) {
	cfg := c.cfg
	if c.exp != "" {
		return cfg, fmt.Errorf("-adhoc runs one ad-hoc configuration and cannot be combined with -exp %q", c.exp)
	}

	switch strings.ToUpper(c.cluster) {
	case "C1":
		core.C1.Apply(&cfg)
	case "C2":
		core.C2.Apply(&cfg)
	default:
		return cfg, fmt.Errorf("unknown cluster %q", c.cluster)
	}
	switch {
	case c.clients < 0:
		return cfg, fmt.Errorf("-clients must be >= 0 clients (0 = cluster default), got %d", c.clients)
	case c.clients > 0:
		cfg.Clients = c.clients
	}
	if c.dump < 0 {
		return cfg, fmt.Errorf("-dump must be >= 0 blocks, got %d", c.dump)
	}

	switch strings.ToLower(c.db) {
	case "couchdb":
		cfg.DBKind = statedb.CouchDB
	case "leveldb":
		cfg.DBKind = statedb.LevelDB
	default:
		return cfg, fmt.Errorf("unknown database %q", c.db)
	}

	sys, err := parseSystem(c.system)
	if err != nil {
		return cfg, err
	}
	cfg.Variant = sys.Variant()

	// The six control flags resolve onto cfg.Control. Their spec strings,
	// -faults and -think share one grammar (internal/fabric/spec.go), and
	// cfg.Validate at the end judges the combination.
	var known bool
	if cfg.Retry, known = retryPolicies[strings.ToLower(c.retry)]; !known {
		return cfg, fmt.Errorf("unknown retry policy %q", c.retry)
	}
	if cfg.RetryBudget, err = fabric.ParseRetryBudget(c.budget); err != nil {
		return cfg, err
	}
	if cfg.Backpressure, err = fabric.ParseBackpressure(c.backpressure); err != nil {
		return cfg, err
	}
	if cfg.Gossip, err = fabric.ParseGossip(c.gossip); err != nil {
		return cfg, err
	}
	if cfg.HintSource, err = fabric.ParseHintSource(c.hintSource); err != nil {
		return cfg, err
	}
	if cfg.SplitSignal, err = fabric.ParseSplitSignal(c.split); err != nil {
		return cfg, err
	}
	if cfg.Faults, err = fabric.ParseFaults(c.faults); err != nil {
		return cfg, err
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
	sys, _ := parseSystem(c.system) // adhocConfig accepted it
	// The hinted policy needs a signal that actually reaches the hint
	// path: the orderer's (requires -backpressure) or the gossip
	// estimate (requires -gossip AND a -hintsource that uses it).
	ordererFeeds, gossipFeeds := cfg.HintProducers()
	if _, hinted := cfg.Retry.(fabric.BackpressurePolicy); hinted && !ordererFeeds && !gossipFeeds {
		fmt.Fprintln(os.Stderr, "hyperlab: note: -retry hinted without a hint producer (-backpressure, or -gossip with -hintsource gossip|both) degenerates to a constant floor backoff")
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
	fmt.Printf("%s on %s, %s, rate %.0f tps, block %d, db %s, skew %.1f, retry %s, %s (%v virtual, %v real)\n",
		sys, c.cluster, c.chaincode, cfg.Rate, cfg.BlockSize, cfg.DBKind, c.skew,
		cfg.Retry.Name(), mode,
		cfg.Duration, time.Since(start).Round(time.Millisecond))
	fmt.Println(rep)
	if _, none := cfg.Retry.(fabric.NoRetry); !none || cfg.ClosedLoop {
		fmt.Printf("effective: jobs=%d eventual-valid=%d gave-up=%d attempts=%d e2e=%v\n",
			rep.Jobs, rep.EventualValid, rep.GaveUp, rep.Attempts,
			rep.AvgEndToEnd.Round(time.Millisecond))
	}
	if cfg.RetryBudget != nil {
		fmt.Printf("budget %s: exhausted=%d deferred=%d max-deferred-depth=%d\n",
			c.budget, rep.BudgetExhausted, rep.DeferredRetries, rep.MaxDeferredDepth)
	}
	if rep.Backoff.Max > 0 {
		fmt.Printf("adaptive backoff: avg=%v max=%v final=%v\n",
			rep.Backoff.Avg().Round(time.Millisecond),
			rep.Backoff.Max.Round(time.Millisecond),
			rep.Backoff.Last.Round(time.Millisecond))
	}
	if cfg.Backpressure != nil {
		fmt.Printf("backpressure %s: hint avg=%.3f max=%.3f final=%.3f paced=%d time-paced=%v\n",
			c.backpressure, rep.Hint.Avg(), rep.Hint.Max,
			rep.Hint.Last, rep.PacedSubmissions,
			rep.Paced.Sum.Round(time.Millisecond))
	}
	if cfg.Gossip != nil {
		fmt.Printf("gossip %s via %s: msgs=%d merges=%d est avg=%.3f max=%.3f final=%.3f stale avg=%v max=%v\n",
			c.gossip, cfg.HintSource, rep.GossipMessages, rep.GossipMerges,
			rep.GossipEstimate.Avg(), rep.GossipEstimate.Max, rep.GossipEstimate.Last,
			rep.GossipStaleness.Avg().Round(time.Millisecond),
			rep.GossipStaleness.Max.Round(time.Millisecond))
	}
	if cfg.SplitSignal != nil {
		fmt.Printf("split %s: conflict avg=%.3f max=%.3f final=%.3f congestion avg=%.3f max=%.3f final=%.3f\n",
			c.split, rep.ConflictEst.Avg(), rep.ConflictEst.Max,
			rep.ConflictEst.Last, rep.CongestEst.Avg(), rep.CongestEst.Max,
			rep.CongestEst.Last)
	}
	if cfg.Faults != nil {
		fmt.Printf("faults %s: windows=%d crashes=%d downtime=%v eto=%d sto=%d orphans=%d recoveries=%d recov avg=%v max=%v\n",
			c.faults, rep.FaultWindows, rep.NodeCrashes,
			rep.NodeDowntime.Round(time.Millisecond),
			rep.EndorseTimeouts, rep.SubmitTimeouts, rep.OrphanedTxs,
			rep.Recovery.N,
			rep.Recovery.Avg().Round(time.Millisecond),
			rep.Recovery.Max.Round(time.Millisecond))
	}
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
