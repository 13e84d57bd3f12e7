package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fabric"
)

// ehrBuilder is a small valid cell for scheduler tests.
func ehrBuilder(t testing.TB, rate float64, bs int) Builder {
	t.Helper()
	return func(seed int64) fabric.Config {
		cfg := baseConfig(C1, EHR, 1, Fabric14)(seed)
		cfg.Rate = rate
		cfg.BlockSize = bs
		return cfg
	}
}

// TestParallelMatchesSequentialGolden is the acceptance check of the
// parallel harness: the EHR cells of the paper's locked QuickOptions
// base grid must produce an identical Result grid on one worker as the
// quick corpus, which runs them on eight.
func TestParallelMatchesSequentialGolden(t *testing.T) {
	var runs []namedRun
	var builds []Builder
	for _, r := range useCaseRuns() {
		if strings.HasPrefix(r.name, "ehr/") {
			runs, builds = append(runs, r), append(builds, r.build)
		}
	}
	seq := QuickOptions()
	seq.Parallelism = 1
	results, err := seq.RunAll(builds)
	if err != nil {
		t.Fatal(err)
	}
	par := quickReports(t)
	for i, r := range runs {
		if want := fromReport(par[r.name]); !reflect.DeepEqual(results[i], want) {
			t.Errorf("%s: sequential result differs from parallel:\nseq: %+v\npar: %+v", r.name, results[i], want)
		}
	}
}

// TestRunAllParallelRace exercises the pool with more workers than
// CPUs on a multi-seed batch; run with -race to verify the scheduler
// is data-race free.
func TestRunAllParallelRace(t *testing.T) {
	o := tinyOptions()
	o.Seeds = []int64{1, 2}
	o.Parallelism = 4
	builds := []Builder{
		ehrBuilder(t, 30, 10), ehrBuilder(t, 30, 50),
		ehrBuilder(t, 60, 10), ehrBuilder(t, 60, 50),
	}
	results, err := o.RunAll(builds)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(builds) {
		t.Fatalf("%d results for %d builders", len(results), len(builds))
	}
	for i, res := range results {
		if res.Total <= 0 {
			t.Errorf("cell %d: empty result %+v", i, res)
		}
	}
}

func TestRunAllResultsInInputOrder(t *testing.T) {
	o := tinyOptions()
	o.Parallelism = 3
	rates := []float64{20, 60, 120}
	results, err := o.RunAll([]Builder{
		ehrBuilder(t, rates[0], 50), ehrBuilder(t, rates[1], 50), ehrBuilder(t, rates[2], 50),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Higher arrival rate sends more transactions in the same window,
	// so totals must increase along the input axis regardless of which
	// worker finished first.
	for i := 1; i < len(results); i++ {
		if results[i].Total <= results[i-1].Total {
			t.Errorf("results out of input order: rate %.0f total %.0f <= rate %.0f total %.0f",
				rates[i], results[i].Total, rates[i-1], results[i-1].Total)
		}
	}
}

func TestRunAllErrorPropagation(t *testing.T) {
	o := tinyOptions()
	o.Parallelism = 4
	bad := func(seed int64) fabric.Config {
		cfg := ehrBuilder(t, 30, 10)(seed)
		cfg.Orgs = 0 // rejected by Config.Validate
		return cfg
	}
	_, err := o.RunAll([]Builder{ehrBuilder(t, 30, 10), bad, ehrBuilder(t, 30, 50)})
	if err == nil {
		t.Fatal("invalid cell accepted")
	}
	// 1-based coordinate, consistent with verbose progress lines.
	if !strings.Contains(err.Error(), "cell 2/3") {
		t.Errorf("error %q does not name the failing cell", err)
	}
}

func TestRunAllEmptyBatch(t *testing.T) {
	results, err := tinyOptions().RunAll(nil)
	if err != nil || results != nil {
		t.Errorf("empty batch = %v, %v; want nil, nil", results, err)
	}
}

func TestRunAllProgressFunnel(t *testing.T) {
	o := tinyOptions()
	o.Seeds = []int64{1, 2}
	o.Parallelism = 4
	// RunAll serializes Progress calls, so an unsynchronized append is
	// safe; the race detector enforces it.
	var lines []string
	o.Progress = func(line string) { lines = append(lines, line) }
	builds := []Builder{ehrBuilder(t, 30, 10), ehrBuilder(t, 30, 50)}
	if _, err := o.RunAll(builds); err != nil {
		t.Fatal(err)
	}
	if want := len(builds) * len(o.Seeds); len(lines) != want {
		t.Errorf("%d progress lines, want %d", len(lines), want)
	}
	for _, line := range lines {
		if !strings.Contains(line, "seed ") {
			t.Errorf("malformed progress line %q", line)
		}
	}
}

// TestRunKeepsSingleCellProgressFormat: Run is a batch of one cell,
// so its progress lines and errors carry the same 1-based cell
// coordinate as any batch's.
func TestRunKeepsSingleCellProgressFormat(t *testing.T) {
	o := tinyOptions()
	var lines []string
	o.Progress = func(line string) { lines = append(lines, line) }
	if _, err := o.Run(ehrBuilder(t, 30, 10)); err != nil {
		t.Fatal(err)
	}
	if len(lines) != 1 || !strings.HasPrefix(lines[0], "cell 1/1 seed 1: ") {
		t.Errorf("single-cell progress = %q, want one \"cell 1/1 seed 1: …\" line", lines)
	}
	_, err := o.Run(func(seed int64) fabric.Config {
		cfg := ehrBuilder(t, 30, 10)(seed)
		cfg.Orgs = 0
		return cfg
	})
	if err == nil || !strings.HasPrefix(err.Error(), "core: cell 1/1 seed 1: ") {
		t.Errorf("single-cell error = %v, want one prefixed \"core: cell 1/1 seed 1: \"", err)
	}
}

func TestWorkerCount(t *testing.T) {
	cases := []struct {
		parallelism, jobs, want int
	}{
		{1, 10, 1},
		{4, 10, 4},
		{4, 2, 2}, // never more workers than jobs
		{-3, 1, 1},
	}
	for _, c := range cases {
		o := Options{Parallelism: c.parallelism}
		if got := o.workerCount(c.jobs); got != c.want {
			t.Errorf("workerCount(parallelism=%d, jobs=%d) = %d, want %d",
				c.parallelism, c.jobs, got, c.want)
		}
	}
	if got := (Options{}).workerCount(1000); got < 1 {
		t.Errorf("default workerCount = %d, want >= 1", got)
	}
}

// BenchmarkBlockSizeSweepParallelism measures harness scaling: the
// EHR rate × block-size sweep at increasing Options.Parallelism. On a
// multi-core machine wall-clock should drop roughly with the worker
// count until the core count is reached.
func BenchmarkBlockSizeSweepParallelism(b *testing.B) {
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("parallel=%d", p), func(b *testing.B) {
			o := tinyOptions()
			o.Parallelism = p
			for i := 0; i < b.N; i++ {
				if _, err := blockSizeSweep(o, C1, EHR, Fabric14); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
