package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/consensus"
	"repro/internal/fabcrypto"
	"repro/internal/fabric"
	"repro/internal/ledger"
	simmetrics "repro/internal/metrics"
	"repro/internal/netem"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/statedb"
	wl "repro/internal/workload"
)

// outDir receives the spans and the CPU profile of a traced run; the
// tests point it at a temporary directory.
var outDir = "out"

// layerDef names one per-layer metric. BENCHMARK.json repeats this
// table; bench_test.go checks the two agree. A metric of a layer that
// a workload does not exercise (core.* outside the sweep) reads 0.
type layerDef struct {
	name   string
	unit   string
	better string
}

var perLayer = []layerDef{
	{"sim.events_per_simtx", "count", "lower"},
	{"sim.schedule_pop.ns_per_event", "ns", "lower"},
	{"netem.send.ns_per_msg", "ns", "lower"},
	{"netem.drops", "count", "lower"},
	{"workload.next.ns_per_op", "ns", "lower"},
	{"workload.next.calls_per_simtx", "count", "lower"},
	{"chaincode.invoke.ns_per_op", "ns", "lower"},
	{"chaincode.invoke.p99_ns", "ns", "lower"},
	{"chaincode.invoke.calls_per_simtx", "count", "lower"},
	{"chaincode.invoke.err_pct", "%", "lower"},
	{"chaincode.gets_per_invoke", "count", "lower"},
	{"chaincode.puts_per_invoke", "count", "lower"},
	{"chaincode.range_keys_per_invoke", "count", "lower"},
	{"chaincode.init.ms", "ms", "lower"},
	{"statedb.get.ns_per_op", "ns", "lower"},
	{"statedb.get.ops_per_simtx", "count", "lower"},
	{"statedb.range.ns_per_op", "ns", "lower"},
	{"statedb.range.keys_per_op", "count", "lower"},
	{"statedb.range.ops_per_simtx", "count", "lower"},
	{"statedb.apply.ns_per_write", "ns", "lower"},
	{"statedb.apply.writes_per_simtx", "count", "lower"},
	{"statedb.clone.ms", "ms", "lower"},
	{"statedb.keys", "count", "lower"},
	{"ledger.digest.ns_per_op", "ns", "lower"},
	{"ledger.block_hash.ns_per_block", "ns", "lower"},
	{"ledger.chain_verify.ms", "ms", "lower"},
	{"fabcrypto.sign.ns_per_op", "ns", "lower"},
	{"fabcrypto.sign.ops_per_simtx", "count", "lower"},
	{"fabcrypto.verify.ns_per_op", "ns", "lower"},
	{"fabcrypto.verify.ops_per_simtx", "count", "lower"},
	{"policy.required_endorsers.ns_per_op", "ns", "lower"},
	{"policy.satisfied.ns_per_op", "ns", "lower"},
	{"consensus.order.ns_per_tx", "ns", "lower"},
	{"consensus.order.events_per_tx", "count", "lower"},
	{"fabric.new_network.ms", "ms", "lower"},
	{"fabric.run.self_us_per_simtx", "us", "lower"},
	{"fabric.endorse.ns_per_proposal", "ns", "lower"},
	{"fabric.submit.ns_per_tx", "ns", "lower"},
	{"fabric.deliver_block.ns_per_tx", "ns", "lower"},
	{"fabric.tx_per_block", "count", "higher"},
	{"fabric.client.attempts_per_job", "count", "lower"},
	{"fabric.client.gossip_msgs_per_simtx", "count", "lower"},
	{"fabric.client.gossip_merges_per_simtx", "count", "lower"},
	{"fabric.client.paced_per_simtx", "count", "lower"},
	{"fabric.client.budget_exhausted_per_ksimtx", "count", "lower"},
	{"fabric.client.gave_up_pct", "%", "lower"},
	{"variant.on_submit.ns_per_tx", "ns", "lower"},
	{"variant.on_cut.ns_per_block", "ns", "lower"},
	{"variant.on_block_validated.ns_per_block", "ns", "lower"},
	{"variant.early_aborts_per_ksimtx", "count", "lower"},
	{"metrics.record_tx.ns_per_op", "ns", "lower"},
	{"metrics.report.us", "us", "lower"},
	{"core.run_all.cells_per_s", "1/s", "higher"},
	{"core.run_all.parallel_efficiency", "count", "higher"},
	{"core.run_all.overhead_pct", "%", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_pause_total_ms", "ms", "lower"},
	{"runtime.gc_cpu_pct", "%", "lower"},
	{"runtime.live_heap_mb", "MB", "lower"},
	{"model.simtx", "count", "higher"},
	{"model.failure_pct", "%", "lower"},
	{"model.valid_tps", "1/s", "higher"},
	{"model.p95_latency_ms", "ms", "lower"},
	{"trace.spans", "count", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

// cellsRun is one direct run of every cell of a workload, one after
// the other: NewNetwork + Run each, the way a rep of a single-run
// workload does it. A traced run wraps every cell's pluggable
// interfaces and keeps cell 0's transaction payloads, so that its
// blocks can be replayed.
type cellsRun struct {
	rep                     // summed over the cells
	cell0   rep             // cell 0 alone
	capture *fabric.Network // cell 0's finished network
	drops   int             // messages the network model dropped
	digests []string
	reports []simmetrics.Report
	tracers []*tracer // nil when untraced
	// liveHeap is the heap in use after a forced collection with cell
	// 0's finished network still referenced.
	liveHeap uint64
}

func (w workload) runCells(seed int64, trace bool) (cr cellsRun, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	runtime.GC()
	for i := 0; i < w.cells; i++ {
		t0 := time.Now()
		cfg := w.config(seed, i)
		var t *tracer
		var root int32
		capture := trace && i == 0
		if capture {
			cfg.StripAfterCommit = false
		}
		if trace {
			t = newTracer(i)
			cr.tracers = append(cr.tracers, t)
			cfg = t.wrap(cfg)
			root = t.begin(spNewNetwork)
		}
		nw, err := fabric.NewNetwork(cfg)
		if trace {
			t.end(root)
		}
		if err != nil {
			return cr, err
		}
		cr.setup += time.Since(t0)

		var r rep
		report, err := finishNetwork(nw, capture, t, &r)
		if err != nil {
			return cr, fmt.Errorf("cell %d: %w", i, err)
		}
		cr.wall += r.wall
		cr.cpu += r.cpu
		cr.gc.cycles += r.gc.cycles
		cr.gc.pause += r.gc.pause
		cr.gc.cpuSecs += r.gc.cpuSecs
		cr.simtx += r.simtx
		cr.events += r.events
		cr.drops += nw.Netem().Drops()
		cr.digests = append(cr.digests, r.digest)
		cr.reports = append(cr.reports, report)
		if i == 0 {
			cr.cell0, cr.capture = r, nw
		}
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	cr.liveHeap = ms.HeapAlloc
	runtime.KeepAlive(cr.capture)
	return cr, nil
}

// layers collects per-layer metric values by name.
type layers map[string]float64

// timeIt returns how long f takes.
func timeIt(f func()) time.Duration {
	t0 := time.Now()
	f()
	return time.Since(t0)
}

func per(total time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(total.Nanoseconds()) / float64(n)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// traced runs the per-layer measurement of one workload: a warm-up
// rep, an untraced and a traced direct run of every cell, and then the
// layer drivers, which replay cell 0's real invocations, read/write
// sets and blocks through each layer's public functions.
func traced(w workload, seed int64, pins expected) (res result) {
	res.Metrics = map[string]metric{}
	out := layers{}
	defer func() { // whatever was measured is reported, also after a failed step
		for _, d := range perLayer {
			res.Metrics[d.name] = metric{out[d.name], d.unit}
			fmt.Printf("  %-44s %14.4f %s\n", d.name, out[d.name], d.unit)
		}
	}()
	check := pins.checker(w.name, seed)
	attempt := func(what string, err error) bool {
		res.Attempted++
		if err != nil {
			res.fail("%s seed %d %s: %v", w.name, seed, what, err)
		}
		return err == nil
	}

	// End-to-end reps, untraced: the warm-up, checked against the pins,
	// and for a sweep the scheduler at two workers and at one.
	warm, err := w.runRep(seed)
	if err == nil {
		err = check(warm)
	}
	if !attempt("warm-up rep", err) {
		return res
	}
	var oneWorker, twoWorkers time.Duration
	if w.sweep {
		two, err := w.runRep(seed)
		if err == nil {
			err = check(two)
		}
		if !attempt("two-worker rep", err) {
			return res
		}
		twoWorkers = two.wall
		runtime.GC()
		oneWorker = timeIt(func() { _, err = w.runAll(seed, 1) })
		if !attempt("one-worker rep", err) {
			return res
		}
	}

	base, err := w.runCells(seed, false)
	if err == nil && base.simtx != warm.simtx {
		err = fmt.Errorf("cells run directly finished %d simtx, the rep %d", base.simtx, warm.simtx)
	}
	if err == nil && !w.sweep && base.digests[0] != warm.digest {
		err = fmt.Errorf("digest %s, the rep's was %s", base.digests[0], warm.digest)
	}
	if !attempt("untraced direct run", err) {
		return res
	}
	base.capture = nil // or the traced run would carry a second network's heap
	if w.sweep {
		direct := (base.setup + base.wall).Seconds()
		out["core.run_all.cells_per_s"] = float64(w.cells) / twoWorkers.Seconds()
		out["core.run_all.parallel_efficiency"] = oneWorker.Seconds() / (2 * twoWorkers.Seconds())
		out["core.run_all.overhead_pct"] = 100 * (oneWorker.Seconds() - direct) / direct
	}

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		attempt("output directory", err)
		return res
	}
	prof, err := os.Create(filepath.Join(outDir, "cpu."+w.name+".pprof"))
	if err == nil {
		err = pprof.StartCPUProfile(prof)
	}
	if err != nil {
		attempt("cpu profile", err)
		return res
	}
	tr, err := w.runCells(seed, true)
	pprof.StopCPUProfile()
	if cerr := prof.Close(); err == nil {
		err = cerr
	}
	for i := 0; err == nil && i < w.cells; i++ {
		if tr.digests[i] != base.digests[i] {
			err = fmt.Errorf("cell %d: tracing changed the digest: %s, want %s", i, tr.digests[i], base.digests[i])
		}
	}
	if !attempt("traced direct run", err) {
		return res
	}
	nspans, err := writeSpans(filepath.Join(outDir, "spans."+w.name+".jsonl"), tr.tracers)
	if !attempt("writing spans", err) {
		return res
	}

	simtx := float64(base.simtx)
	out["trace.spans"] = float64(nspans)
	out["trace.overhead_pct"] = 100 * (tr.wall.Seconds() - base.wall.Seconds()) / base.wall.Seconds()
	out["sim.events_per_simtx"] = float64(base.events) / simtx
	out["netem.drops"] = float64(base.drops)

	out["runtime.gc_cycles"] = float64(base.gc.cycles)
	out["runtime.gc_pause_total_ms"] = ms(base.gc.pause)
	out["runtime.gc_cpu_pct"] = 100 * base.gc.cpuSecs / base.cpu.Seconds()
	out["runtime.live_heap_mb"] = float64(base.liveHeap) / 1e6

	modelMetrics(out, w, base.reports)
	clientMetrics(out, base.reports, simtx)
	spanMetrics(out, tr.tracers, simtx)

	capture := tr.capture
	cfg := w.config(seed, 0)
	n := capture.Chain().TxCount()
	for _, ch := range capture.Chains()[1:] {
		n += ch.TxCount()
	}
	driveSim(out, int(tr.cell0.events))
	driveNetem(out, cfg, n)
	driveConsensus(out, cfg, n)
	drivePolicy(out, cfg, n)
	driveLedger(out, capture)
	driveMetrics(out, capture)

	// The fabric and statedb drivers need networks at genesis state,
	// built from fresh configs (a workload generator is stateful).
	fresh := func() (*fabric.Network, error) {
		cfg := w.config(seed, 0)
		cfg.StripAfterCommit = false
		return fabric.NewNetwork(cfg)
	}
	nw, err := fresh()
	if attempt("driver network", err) {
		driveStateDB(out, capture, nw, seed, float64(tr.cell0.simtx))
		driveEndorse(out, nw, tr.tracers[0].invocations)
		attempt("deliver-block replay", driveDeliverBlock(out, nw, capture))
	}
	if nw, err = fresh(); attempt("driver network", err) {
		attempt("submit replay", driveSubmit(out, nw, capture))
	}
	return res
}

// modelMetrics reports the simulated (virtual-time) results, which
// repeat exactly and are pinned by the digest.
func modelMetrics(out layers, w workload, reports []simmetrics.Report) {
	var total, valid int
	var p95 time.Duration
	for _, r := range reports {
		total += r.Total
		valid += r.Valid
		p95 += r.P95Latency
	}
	out["model.simtx"] = float64(total)
	out["model.failure_pct"] = 100 * float64(total-valid) / float64(total)
	out["model.valid_tps"] = float64(valid) / (float64(len(reports)) * w.duration.Seconds())
	out["model.p95_latency_ms"] = ms(p95) / float64(len(reports))
}

// spanMetrics turns the boundary spans and counts of the traced run,
// and the client counts of its reports, into per-layer metrics.
func spanMetrics(out layers, tracers []*tracer, simtx float64) {
	st := stats(tracers)
	var ops struct{ gets, puts, rangeKeys, ranges, invokeErrs, earlyAborts int }
	for _, t := range tracers {
		ops.gets += t.ops.Gets
		ops.puts += t.ops.Puts + t.ops.Deletes
		ops.ranges += t.ops.Ranges
		ops.rangeKeys += t.ops.RangeKeys
		ops.invokeErrs += t.invokeErrs
		ops.earlyAborts += t.earlyAborts
	}
	invokes := float64(st[spChaincodeInvoke].calls)

	out["workload.next.ns_per_op"] = st[spWorkloadNext].perCall()
	out["workload.next.calls_per_simtx"] = float64(st[spWorkloadNext].calls) / simtx
	out["chaincode.invoke.ns_per_op"] = st[spChaincodeInvoke].perCall()
	out["chaincode.invoke.p99_ns"] = float64(st[spChaincodeInvoke].p99.Nanoseconds())
	out["chaincode.invoke.calls_per_simtx"] = invokes / simtx
	out["chaincode.invoke.err_pct"] = 100 * ratio(float64(ops.invokeErrs), invokes)
	out["chaincode.gets_per_invoke"] = ratio(float64(ops.gets), invokes)
	out["chaincode.puts_per_invoke"] = ratio(float64(ops.puts), invokes)
	out["chaincode.range_keys_per_invoke"] = ratio(float64(ops.rangeKeys), invokes)
	out["chaincode.init.ms"] = ms(st[spChaincodeInit].total) / float64(len(tracers))
	out["statedb.get.ops_per_simtx"] = float64(ops.gets) / simtx
	out["statedb.range.ops_per_simtx"] = float64(ops.ranges) / simtx
	out["fabcrypto.sign.ops_per_simtx"] = (invokes - float64(ops.invokeErrs)) / simtx

	out["fabric.new_network.ms"] = ms(st[spNewNetwork].total) / float64(len(tracers))
	out["fabric.run.self_us_per_simtx"] = float64(selfTime(tracers, spRun).Microseconds()) / simtx
	out["variant.on_submit.ns_per_tx"] = st[spVariantOnSubmit].perCall()
	out["variant.on_cut.ns_per_block"] = st[spVariantOnCut].perCall()
	out["variant.on_block_validated.ns_per_block"] = st[spVariantOnBlockValidated].perCall()
	out["variant.early_aborts_per_ksimtx"] = 1000 * float64(ops.earlyAborts) / simtx
}

// clientMetrics reports the client control plane's work counts.
func clientMetrics(out layers, reports []simmetrics.Report, simtx float64) {
	var sum simmetrics.Report
	for _, r := range reports {
		sum.Blocks += r.Blocks
		sum.Committed += r.Committed
		sum.Jobs += r.Jobs
		sum.Attempts += r.Attempts
		sum.GaveUp += r.GaveUp
		sum.GossipMessages += r.GossipMessages
		sum.GossipMerges += r.GossipMerges
		sum.PacedSubmissions += r.PacedSubmissions
		sum.BudgetExhausted += r.BudgetExhausted
	}
	out["fabric.tx_per_block"] = ratio(float64(sum.Committed), float64(sum.Blocks))
	out["fabric.client.attempts_per_job"] = ratio(float64(sum.Attempts), float64(sum.Jobs))
	out["fabric.client.gossip_msgs_per_simtx"] = float64(sum.GossipMessages) / simtx
	out["fabric.client.gossip_merges_per_simtx"] = float64(sum.GossipMerges) / simtx
	out["fabric.client.paced_per_simtx"] = float64(sum.PacedSubmissions) / simtx
	out["fabric.client.budget_exhausted_per_ksimtx"] = 1000 * float64(sum.BudgetExhausted) / simtx
	out["fabric.client.gave_up_pct"] = 100 * ratio(float64(sum.GaveUp), float64(sum.Jobs))
}

// driverPopulation is how many events or messages a driver keeps in
// flight: enough to give the event heap a realistic depth, few enough
// that the driver does not measure an unrealistically deep one.
const driverPopulation = 1024

// driveSim times Engine.After + Run on n self-rescheduling events (the
// hold model): each executed event schedules its successor at a
// pseudo-random delay, so the heap stays driverPopulation deep.
func driveSim(out layers, n int) {
	eng := sim.NewEngine(1)
	left := n
	lcg := uint64(1)
	var hold func()
	hold = func() {
		if left <= 0 {
			return
		}
		left--
		lcg = lcg*6364136223846793005 + 1442695040888963407
		eng.After(time.Duration(lcg>>44), hold)
	}
	d := timeIt(func() {
		for i := 0; i < driverPopulation; i++ {
			hold()
		}
		eng.Run()
	})
	out["sim.schedule_pop.ns_per_event"] = per(d, int(eng.Processed()))
}

// inWaves calls send n times in waves of driverPopulation, running the
// engine dry after each wave.
func inWaves(eng *sim.Engine, n int, send func(i int)) {
	for i := 0; i < n; {
		for end := i + driverPopulation; i < n && i < end; i++ {
			send(i)
		}
		eng.Run()
	}
}

// driveNetem times Model.Send (latency sampling, scheduling and
// delivery) on the workload's LAN profile.
func driveNetem(out layers, cfg fabric.Config, n int) {
	eng := sim.NewEngine(1)
	net := netem.New(eng, cfg.LAN)
	delivered := 0
	d := timeIt(func() {
		inWaves(eng, n, func(int) { net.Send("a", "b", func() { delivered++ }) })
	})
	out["netem.send.ns_per_msg"] = per(d, delivered)
}

// driveConsensus times total ordering alone: a consenter built like
// NewNetwork builds it, with nothing attached but a counter.
func driveConsensus(out layers, cfg fabric.Config, n int) {
	eng := sim.NewEngine(1)
	net := netem.New(eng, cfg.LAN)
	kcfg := consensus.DefaultKafkaConfig()
	kcfg.Brokers = cfg.Orderers
	if kcfg.MinISR > kcfg.Brokers {
		kcfg.MinISR = kcfg.Brokers
	}
	k := consensus.NewKafka(eng, net, kcfg)
	ordered := 0
	k.OnCommit(func(interface{}) { ordered++ })
	d := timeIt(func() { inWaves(eng, n, func(i int) { k.Submit(i) }) })
	out["consensus.order.ns_per_tx"] = per(d, ordered)
	out["consensus.order.events_per_tx"] = ratio(float64(eng.Processed()), float64(ordered))
}

// drivePolicy times the two policy questions the pipeline asks per
// transaction: whom to ask for endorsements, and whether the
// endorsements collected satisfy the policy.
func drivePolicy(out layers, cfg fabric.Config, n int) {
	orgs := make([]string, cfg.Orgs)
	all := map[string]bool{}
	for i := range orgs {
		orgs[i] = fabcrypto.OrgName(i)
		all[orgs[i]] = true
	}
	pol := policy.Build(cfg.Policy, orgs)
	picked, satisfied := 0, 0
	d := timeIt(func() {
		for i := 0; i < n; i++ {
			picked += len(pol.RequiredEndorsers(i))
		}
	})
	out["policy.required_endorsers.ns_per_op"] = per(d, n)
	d = timeIt(func() {
		for i := 0; i < n; i++ {
			if pol.Satisfied(all) {
				satisfied++
			}
		}
	})
	out["policy.satisfied.ns_per_op"] = per(d, satisfied)
}

// eachBlock calls f on every non-genesis block of every channel.
func eachBlock(nw *fabric.Network, f func(b *ledger.Block)) {
	for _, chain := range nw.Chains() {
		for _, b := range chain.Blocks()[1:] {
			f(b)
		}
	}
}

// driveLedger times hashing on the captured transactions and blocks,
// and signing and verifying on their digests.
func driveLedger(out layers, capture *fabric.Network) {
	var txs []*ledger.Transaction
	blocks, endorsements := 0, 0
	eachBlock(capture, func(b *ledger.Block) {
		blocks++
		txs = append(txs, b.Transactions...)
		for _, tx := range b.Transactions {
			endorsements += len(tx.Endorsements)
		}
	})
	digests := make([][32]byte, len(txs))
	d := timeIt(func() {
		for i, tx := range txs {
			digests[i] = tx.RWSet.Digest()
		}
	})
	out["ledger.digest.ns_per_op"] = per(d, len(txs))
	var sink byte
	d = timeIt(func() {
		eachBlock(capture, func(b *ledger.Block) {
			h := b.ComputeHash()
			sink ^= h[0]
		})
	})
	out["ledger.block_hash.ns_per_block"] = per(d, blocks)
	d = timeIt(func() {
		for _, chain := range capture.Chains() {
			if err := chain.Verify(); err != nil {
				panic(err) // verified when the run finished
			}
		}
	})
	out["ledger.chain_verify.ms"] = ms(d)

	msp := fabcrypto.NewMSP("bench")
	id := msp.Register(fabcrypto.OrgName(0), fabcrypto.PeerName(fabcrypto.OrgName(0), 0))
	sigs := make([][]byte, len(digests))
	d = timeIt(func() {
		for i := range digests {
			sigs[i] = id.Sign(digests[i][:])
		}
	})
	out["fabcrypto.sign.ns_per_op"] = per(d, len(sigs))
	verified := 0
	d = timeIt(func() {
		for i := range digests {
			if msp.Verify(id.Org, id.ID, digests[i][:], sigs[i]) {
				verified++
			}
		}
	})
	out["fabcrypto.verify.ns_per_op"] = per(d, verified)
	out["fabcrypto.verify.ops_per_simtx"] = ratio(float64(endorsements), float64(len(txs)))
}

// driveMetrics replays the captured outcomes into a fresh collector.
func driveMetrics(out layers, capture *fabric.Network) {
	col := simmetrics.NewCollector()
	n := 0
	d := timeIt(func() {
		eachBlock(capture, func(b *ledger.Block) {
			for i, tx := range b.Transactions {
				col.RecordTx(b.ValidationCodes[i], tx.SubmitTime, b.CommitTime)
				n++
			}
		})
	})
	out["metrics.record_tx.ns_per_op"] = per(d, n)
	d = timeIt(func() { _ = col.Report() })
	out["metrics.report.us"] = float64(d.Nanoseconds()) / 1e3
}

// driveStateDB replays the captured reads and range scans against the
// capture run's final replica, and the captured valid writes against a
// clone of the genesis state.
func driveStateDB(out layers, capture, genesis *fabric.Network, seed int64, simtx float64) {
	final := capture.Peers()[0].DB()
	var keys []string
	var ranges []ledger.RangeQueryInfo
	var batches []*statedb.UpdateBatch
	writes := 0
	eachBlock(capture, func(b *ledger.Block) {
		batch := &statedb.UpdateBatch{}
		for i, tx := range b.Transactions {
			for _, r := range tx.RWSet.Reads {
				keys = append(keys, r.Key)
			}
			for _, rq := range tx.RWSet.RangeQueries {
				if !rq.Unchecked {
					ranges = append(ranges, rq)
				}
			}
			if b.ValidationCodes[i] != ledger.Valid {
				continue
			}
			h := ledger.Height{BlockNum: b.Number, TxNum: uint64(i)}
			for _, w := range tx.RWSet.Writes {
				if w.IsDelete {
					batch.Delete(w.Key, h)
				} else {
					batch.Put(w.Key, w.Value, h)
				}
			}
		}
		writes += batch.Len()
		batches = append(batches, batch)
	})

	found := 0
	d := timeIt(func() {
		for _, k := range keys {
			if final.Get(k) != nil {
				found++
			}
		}
	})
	out["statedb.get.ns_per_op"] = per(d, len(keys))
	scanned := 0
	d = timeIt(func() {
		for _, rq := range ranges {
			scanned += len(final.GetRange(rq.StartKey, rq.EndKey))
		}
	})
	out["statedb.range.ns_per_op"] = per(d, len(ranges))
	out["statedb.range.keys_per_op"] = ratio(float64(scanned), float64(len(ranges)))

	source := genesis.Peers()[0].DB()
	out["statedb.keys"] = float64(source.Len())
	var db statedb.VersionedDB
	out["statedb.clone.ms"] = ms(timeIt(func() { db = source.Clone(seed) }))
	d = timeIt(func() {
		for i, batch := range batches {
			if err := db.ApplyUpdates(batch, uint64(i+1)); err != nil {
				panic(err) // neither backend returns one
			}
		}
	})
	out["statedb.apply.ns_per_write"] = per(d, writes)
	out["statedb.apply.writes_per_simtx"] = float64(writes) / simtx
}

// farFuture bounds the virtual time a replay may take, so that a
// driver ends even if a network schedules periodic events.
const farFuture = sim.Time(24 * time.Hour)

// driveEndorse times Peer.Endorse (stub, chaincode, digest, signature,
// cost model, scheduling) on an un-started network at genesis state,
// one captured invocation per call, peers in rotation.
func driveEndorse(out layers, nw *fabric.Network, invocations []wl.Invocation) {
	peers := nw.Peers()
	answered := 0
	d := timeIt(func() {
		for i, inv := range invocations {
			peers[i%len(peers)].Endorse(inv, 0, func(*ledger.Endorsement, error) { answered++ })
		}
		nw.Engine().RunUntil(nw.Engine().Now() + farFuture)
	})
	out["fabric.endorse.ns_per_proposal"] = per(d, answered)
}

// driveDeliverBlock replays the captured blocks through
// Peer.DeliverBlock on every peer of a network at genesis state —
// validation, state apply, chain append, metrics — and checks that the
// replay reproduces the captured validation codes.
func driveDeliverBlock(out layers, nw, capture *fabric.Network) error {
	txs := 0
	d := timeIt(func() {
		eachBlock(capture, func(b *ledger.Block) {
			txs += len(b.Transactions)
			replay := &ledger.Block{
				Number: b.Number, PrevHash: b.PrevHash, Hash: b.Hash,
				Transactions: b.Transactions, Channel: b.Channel,
				CutTime: b.CutTime, CongestionHint: b.CongestionHint,
			}
			for _, p := range nw.Peers() {
				p.DeliverBlock(replay)
			}
		})
		nw.Engine().RunUntil(nw.Engine().Now() + farFuture)
	})
	out["fabric.deliver_block.ns_per_tx"] = per(d, txs)

	for ch, chain := range nw.Chains() {
		if err := chain.Verify(); err != nil {
			return fmt.Errorf("channel %d: %w", ch, err)
		}
		want := capture.Chains()[ch]
		if chain.Height() != want.Height() {
			return fmt.Errorf("channel %d: replayed %d blocks, captured %d", ch, chain.Height(), want.Height())
		}
		for n, b := range chain.Blocks() {
			for i, code := range b.ValidationCodes {
				if code != want.Block(uint64(n)).ValidationCodes[i] {
					return fmt.Errorf("channel %d block %d tx %d: replay validated %v, capture %v",
						ch, n, i, code, want.Block(uint64(n)).ValidationCodes[i])
				}
			}
		}
	}
	return nil
}

// driveSubmit replays the captured transactions through
// OrderingService.Submit on a network at genesis state: ordering, block
// cutting, validation, delivery and commit, without clients or
// endorsement.
func driveSubmit(out layers, nw, capture *fabric.Network) error {
	txs := 0
	d := timeIt(func() {
		eachBlock(capture, func(b *ledger.Block) {
			for _, tx := range b.Transactions {
				nw.Orderers()[b.Channel].Submit(tx)
				txs++
			}
		})
		nw.Engine().RunUntil(nw.Engine().Now() + farFuture)
	})
	out["fabric.submit.ns_per_tx"] = per(d, txs)
	committed := 0
	for ch, chain := range nw.Chains() {
		if err := chain.Verify(); err != nil {
			return fmt.Errorf("channel %d: %w", ch, err)
		}
		committed += chain.TxCount()
	}
	if committed != txs {
		return fmt.Errorf("submitted %d transactions, %d reached a chain", txs, committed)
	}
	return nil
}
