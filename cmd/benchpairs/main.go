// Command benchpairs compares the working tree with a parent commit on
// the repository's benchmark (bench/, declared in BENCHMARK.json) by
// the alternating-pairs protocol of the choosing-metrics guide, the one
// PRs 15–18 carried out by hand:
//
//	go run ./cmd/benchpairs -parent HEAD -pairs 10 -seeds 1,2,3 -workloads ehr-controlplane,ehr-fireforget
//
// It exports the parent ref into a temporary directory (git archive —
// nothing is registered in .git, and nothing outlives the run), builds
// the benchmark binary there and in the working tree, and for every
// pair and workload runs both binaries from the working tree's bench/
// directory (one expected.json checks both sides), the parent first in
// even pairs and the change first in odd ones, seeds cycling with the
// pair. Every run's metrics — the JSON object the benchmark prints as
// its last line — are echoed as they arrive, and at the end each
// workload × end-to-end metric gets one row: both sides' medians and
// quartiles, the change of the median, and the pairs the change won
// and lost (a tie counts for neither). A gain claim needs at least nine pairs of ten won and
// a median difference beyond the parent's own quartile distance; the
// last column says whether the second half holds. The exit code is 1
// when any run reported incorrect results.
//
// Ten pairs of all five workloads at the default 25 s take about
// 45 minutes. No network is used.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// benchmark is what benchpairs reads of BENCHMARK.json.
type benchmark struct {
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
}

type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// runResult is the object a benchmark run prints as its last line.
type runResult struct {
	Correct bool `json:"correct"`
	Failed  int  `json:"failed"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// pair is one metric's reading on both sides of one pair of runs.
type pair struct{ parent, change float64 }

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchpairs:", err)
		os.Exit(1)
	}
}

func run() error {
	parent := flag.String("parent", "HEAD", "git ref of the parent commit to compare the working tree against")
	pairs := flag.Int("pairs", 10, "pairs of runs per workload")
	seedList := flag.String("seeds", "1,2,3", "comma-separated workload seeds, cycled over the pairs")
	workloadList := flag.String("workloads", "", "comma-separated workloads (default: every workload in BENCHMARK.json)")
	seconds := flag.Int("seconds", 0, "length of each run (default: BENCHMARK.json's run_seconds)")
	flag.Parse()

	root, err := output("", "git", "rev-parse", "--show-toplevel")
	if err != nil {
		return err
	}
	root = strings.TrimSpace(root)
	var bm benchmark
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, &bm); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if len(bm.Paths) != 1 {
		return fmt.Errorf("BENCHMARK.json: want one benchmark path, got %v", bm.Paths)
	}
	benchDir := bm.Paths[0]

	var workloads []string
	for _, w := range bm.Workloads {
		workloads = append(workloads, w.Name)
	}
	if *workloadList != "" {
		workloads = strings.Split(*workloadList, ",")
	}
	var seeds []string
	for _, s := range strings.Split(*seedList, ",") {
		if _, err := strconv.ParseInt(s, 10, 64); err != nil {
			return fmt.Errorf("-seeds: %w", err)
		}
		seeds = append(seeds, s)
	}
	if *pairs < 1 {
		return fmt.Errorf("-pairs must be >= 1, got %d", *pairs)
	}
	if *seconds == 0 {
		*seconds = bm.RunSeconds
	}

	tmp, err := os.MkdirTemp("", "benchpairs")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	parentTree := filepath.Join(tmp, "parent")
	if err := export(root, *parent, parentTree); err != nil {
		return err
	}
	sides := []struct{ name, tree, bin string }{
		{"parent", parentTree, filepath.Join(tmp, "bench_parent")},
		{"change", root, filepath.Join(tmp, "bench_change")},
	}
	for _, s := range sides {
		if _, err := output(filepath.Join(s.tree, benchDir), "go", "build", "-o", s.bin, "."); err != nil {
			return fmt.Errorf("building the %s benchmark: %w", s.name, err)
		}
	}

	// results[{workload, metric}] holds one reading per pair of runs.
	results := map[[2]string][]pair{}
	incorrect := 0
	for p := 0; p < *pairs; p++ {
		seed := seeds[p%len(seeds)]
		for _, w := range workloads {
			var got [2]runResult
			for k := 0; k < 2; k++ {
				side := (p + k) % 2 // the parent runs first in even pairs
				s := sides[side]
				out, err := output(filepath.Join(root, benchDir), s.bin,
					"-workload", w, "-seed", seed, "-seconds", strconv.Itoa(*seconds))
				// A failed check exits non-zero but still prints its result line.
				res, line, perr := lastResult(out)
				if perr != nil {
					return fmt.Errorf("%s %s seed %s: %w", s.name, w, seed, errors.Join(perr, err))
				}
				if !res.Correct || res.Failed > 0 {
					incorrect++
				}
				fmt.Printf("pair %d %s seed %s %s %s\n", p+1, w, seed, s.name, line)
				got[side] = res
			}
			for _, m := range bm.EndToEnd {
				key := [2]string{w, m.Name}
				results[key] = append(results[key],
					pair{got[0].Metrics[m.Name].Value, got[1].Metrics[m.Name].Value})
			}
		}
	}

	fmt.Printf("\n%-17s %-17s %36s %36s %8s %-9s %s\n", "workload", "metric",
		"parent median (q1–q3)", "change median (q1–q3)", "change", "won/lost", "beyond parent IQR")
	for _, w := range workloads {
		for _, m := range bm.EndToEnd {
			fmt.Println(summarize(w, m, results[[2]string{w, m.Name}]))
		}
	}
	if incorrect > 0 {
		return fmt.Errorf("%d runs reported incorrect results", incorrect)
	}
	return nil
}

// output runs a command in dir and returns its standard output;
// standard error passes through.
func output(dir, name string, args ...string) (string, error) {
	cmd := exec.Command(name, args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		err = fmt.Errorf("%s %s: %w", name, strings.Join(args, " "), err)
	}
	return string(out), err
}

// export unpacks ref's tree into dir.
func export(repo, ref, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tarball := dir + ".tar"
	if _, err := output(repo, "git", "archive", "--format=tar", "-o", tarball, ref); err != nil {
		return err
	}
	_, err := output(dir, "tar", "-xf", tarball)
	return err
}

// lastResult parses the last non-empty line of a benchmark run's
// output.
func lastResult(out string) (res runResult, line string, err error) {
	lines := strings.Split(strings.TrimSpace(out), "\n")
	line = lines[len(lines)-1]
	if err := json.Unmarshal([]byte(line), &res); err != nil || res.Metrics == nil {
		return res, line, fmt.Errorf("last output line is not a result object: %q", line)
	}
	return res, line, nil
}

// summarize renders one workload × metric row of the final table.
func summarize(workload string, m metricDef, ps []pair) string {
	var parent, change []float64
	won, lost := 0, 0
	for _, p := range ps {
		parent, change = append(parent, p.parent), append(change, p.change)
		better := p.change < p.parent
		if m.Better == "higher" {
			better = p.change > p.parent
		}
		switch {
		case p.change == p.parent: // a tie counts for neither
		case better:
			won++
		default:
			lost++
		}
	}
	pq1, pmed, pq3 := quartiles(parent)
	cq1, cmed, cq3 := quartiles(change)
	gain := pmed - cmed
	if m.Better == "higher" {
		gain = -gain
	}
	beyond := "no"
	if gain > pq3-pq1 {
		beyond = "yes"
	}
	side := func(q1, med, q3 float64) string {
		return fmt.Sprintf("%.4f (%.4f–%.4f) %-5s", med, q1, q3, m.Unit)
	}
	return fmt.Sprintf("%-17s %-17s %36s %36s %+7.1f%% %-9s %s", workload, m.Name,
		side(pq1, pmed, pq3), side(cq1, cmed, cq3), 100*(cmed-pmed)/pmed,
		fmt.Sprintf("%d/%d", won, lost), beyond)
}

// quartiles returns the quartiles of xs by linear interpolation between
// order statistics.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		pos := q * float64(len(s)-1)
		lo := int(pos)
		if lo+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return at(0.25), at(0.5), at(0.75)
}
