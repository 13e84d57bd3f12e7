// Command bench is the repository's benchmark: a host-side,
// run-to-completion measurement of the simulator on five fixed
// workloads. It judges the system only from outside — it times calls
// into public functions and pins each run's observable results — so it
// changes none of the code it measures.
//
//	go run -C bench . -workload ehr-fireforget -seed 1 -seconds 25 -trace 0
//
// prints the end-to-end metrics of one workload (over the reps that fit
// in -seconds: the fastest sample for the three times, medians for the
// sizes) and, as its last line, one JSON object with the
// keys correct, attempted, failed and metrics. -trace 1 prints the
// per-layer metrics from one traced run instead and writes the spans
// and a CPU profile to out/. Without -workload every workload runs in
// turn. -selfcheck replays the acceptance procedure (ten seeds per
// workload, twice, each run in a fresh process) and exits 1 when two
// sets of runs of the same code disagree by more than a metric's
// bound. -update-expected rewrites expected.json. Any failed check
// exits non-zero. See README.md for the metric glossary.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"time"
)

// metricDef describes one end-to-end metric. BENCHMARK.json repeats
// this table; bench_test.go checks the two agree.
type metricDef struct {
	name  string
	unit  string
	bound float64 // share of the median by which it may worsen
	// fastest reports the smallest sample of the run instead of the
	// median, and is set for the times. The reps of a run are the same
	// deterministic computation, so what separates their times is
	// interference from the shared host, which only ever adds: the
	// fastest rep is the one it touched least, and it is what keeps a
	// run steady when the host is busy for most of it.
	fastest bool
	value   func(r rep) float64
}

func perSimtx(v float64, r rep) float64 { return v / float64(r.simtx) }

// endToEnd lists the end-to-end metrics; all are better when lower.
// Failed reps are not a metric (a metric may never read 0): they are
// the "failed" count of the result line and make "correct" false.
var endToEnd = []metricDef{
	{"us_per_simtx", "us", 0.25, true, func(r rep) float64 { return perSimtx(float64(r.wall.Nanoseconds())/1e3, r) }},
	{"cpu_us_per_simtx", "us", 0.25, true, func(r rep) float64 { return perSimtx(float64(r.cpu.Nanoseconds())/1e3, r) }},
	{"allocs_per_simtx", "count", 0.10, false, func(r rep) float64 { return perSimtx(float64(r.mallocs), r) }},
	{"bytes_per_simtx", "B", 0.10, false, func(r rep) float64 { return perSimtx(float64(r.bytes), r) }},
	{"peak_heap_mb", "MB", 0.15, false, func(r rep) float64 { return float64(r.peakHeap) / 1e6 }},
	{"setup_s", "s", 0.25, true, func(r rep) float64 { return r.setup.Seconds() }},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (res *result) fail(format string, args ...interface{}) {
	res.Failed++
	fmt.Fprintf(os.Stderr, "bench: FAIL: "+format+"\n", args...)
}

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 25

// minTimedReps is the fewest timed reps a run reports on, whatever
// -seconds says.
const minTimedReps = 3

// setupShare is the share of the run that set-ups timed alone may take:
// every rep times its own set-up, and after each timed rep one more
// sample is taken by setting up alone while the share lasts, so that
// the samples are spread over the whole run and not over one moment of
// the host's.
const setupShare = 20 // a twentieth

// measure runs the end-to-end benchmark of one workload: one warm-up
// rep, then timed reps until the next would overrun the budget, every
// rep checked against the pins.
func measure(w workload, seed int64, budget time.Duration, pins expected) result {
	start := time.Now()
	res := result{Metrics: map[string]metric{}}
	check := pins.checker(w.name, seed)

	var reps []rep
	var setups []float64
	var longest, alone time.Duration
	for n, t0 := 0, start; ; n++ {
		now := time.Now()
		if d := now.Sub(t0); d > longest {
			longest = d // of the iterations so far, set-up sample included
		}
		t0 = now
		if timed := n - 1; timed >= minTimedReps && now.Sub(start)+longest > budget {
			break
		}
		r, err := w.runRep(seed)
		res.Attempted++
		if err == nil {
			err = check(r)
		}
		if err != nil {
			res.fail("%s seed %d rep %d: %v", w.name, seed, n, err)
			continue
		}
		if n == 0 { // rep 0 warms up the heap and the caches
			continue
		}
		reps = append(reps, r)
		setups = append(setups, r.setup.Seconds())
		if alone < budget/setupShare {
			t0 := time.Now()
			d, err := w.setupOnly(seed)
			if err != nil {
				res.fail("%s seed %d set-up: %v", w.name, seed, err)
				continue
			}
			setups = append(setups, d.Seconds())
			alone += time.Since(t0)
		}
	}
	if len(reps) == 0 {
		return res
	}

	fmt.Printf("%s seed %d: %d timed reps, %d simtx each, digest %.12s\n",
		w.name, seed, len(reps), reps[0].simtx, reps[0].digest)
	for _, m := range endToEnd {
		vals := setups
		if m.name != "setup_s" {
			vals = make([]float64, len(reps))
			for i, r := range reps {
				vals[i] = m.value(r)
			}
		}
		q1, med, q3 := quartiles(vals)
		v, how := med, "median"
		if m.fastest {
			v, how = slices.Min(vals), "fastest"
		}
		res.Metrics[m.name] = metric{v, m.unit}
		fmt.Printf("  %-18s %12.4f %-5s  (%s of %d; q1 %.4f, median %.4f, q3 %.4f; bound %.0f%%)\n",
			m.name, v, m.unit, how, len(vals), q1, med, q3, 100*m.bound)
	}
	return res
}

// printResult writes the result line and reports whether it is clean.
func printResult(res result) bool {
	res.Correct = res.Failed == 0 && res.Attempted > 0
	line, err := json.Marshal(res)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	fmt.Println(string(line))
	return res.Correct
}

func main() {
	name := flag.String("workload", "", "workload to run (default: all, in turn)")
	seed := flag.Int64("seed", 1, "workload seed (Config.Seed)")
	seconds := flag.Int("seconds", defaultSeconds, "seconds one run measures for")
	trace := flag.Int("trace", 0, "1: print per-layer metrics from a traced run instead")
	selfcheck := flag.Bool("selfcheck", false, "run two sets of ten seeds per workload and compare them against the bounds")
	update := flag.Bool("update-expected", false, "rewrite expected.json from seeds 1 and 2 (benchmark changes only)")
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: bad arguments")
		flag.Usage()
		os.Exit(2)
	}

	selected := workloads
	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		selected = []workload{w}
	}

	switch {
	case *update:
		if err := updateExpected(selected); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	case *selfcheck:
		if !selfCheck(selected, *seconds) {
			os.Exit(1)
		}
		return
	}

	pins, err := loadExpected()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	budget := time.Duration(*seconds) * time.Second
	ok := true
	for _, w := range selected {
		var res result
		if *trace == 1 {
			res = traced(w, *seed, pins)
		} else {
			res = measure(w, *seed, budget, pins)
		}
		ok = printResult(res) && ok
	}
	if !ok {
		os.Exit(1)
	}
}
