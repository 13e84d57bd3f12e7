package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fabric"
	"repro/internal/metrics"
)

// Builder produces the config for one seed of one experiment cell.
// The harness fills in Seed, Duration and Drain afterwards.
type Builder func(seed int64) fabric.Config

// RunAll executes every builder for every seed on a shared worker
// pool and returns the seed-averaged results in builder order. The
// unit of scheduling is one (builder, seed) cell, so a sweep with few
// rows but several seeds still saturates the pool. Output is
// byte-for-byte identical to the sequential path regardless of
// Parallelism: every simulation owns its own rng seed, and the
// per-builder averages accumulate in fixed seed order. After a builder
// error no new cell starts; the earliest failing cell in input order
// (not completion order) is the error returned.
func (o Options) RunAll(builds []Builder) ([]Result, error) {
	reports, err := o.runReports(builds)
	if err != nil || reports == nil {
		return nil, err
	}
	seeds := len(o.Seeds)
	results := make([]Result, len(builds))
	for c := range builds {
		var acc Result
		for s := 0; s < seeds; s++ {
			acc = acc.add(fromReport(reports[c*seeds+s]))
		}
		results[c] = acc.scale(1 / float64(seeds))
	}
	return results, nil
}

// runReports is RunAll's worker pool without the seed averaging: it
// returns one report per (builder, seed) job, builder i's seed s at
// index i*len(Seeds)+s.
func (o Options) runReports(builds []Builder) ([]metrics.Report, error) {
	if len(o.Seeds) == 0 {
		return nil, fmt.Errorf("core: no seeds configured")
	}
	if len(builds) == 0 {
		return nil, nil
	}

	// One job per (builder, seed) cell, in input order. Workers claim
	// the next index from one counter; nothing feeds them.
	seeds := len(o.Seeds)
	jobs := len(builds) * seeds
	reports := make([]metrics.Report, jobs)
	errs := make([]error, jobs)
	var (
		next     atomic.Int64
		failed   atomic.Bool
		progress sync.Mutex // Progress never runs concurrently with itself
		wg       sync.WaitGroup
	)
	for w := o.workerCount(jobs); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < jobs && !failed.Load(); i = int(next.Add(1)) - 1 {
				cell, seed := i/seeds, o.Seeds[i%seeds]
				cfg := builds[cell](seed)
				cfg.Seed = seed
				cfg.Duration = o.Duration
				cfg.Drain = o.Drain
				nw, err := fabric.NewNetwork(cfg)
				if err != nil {
					// 1-based, like the progress lines.
					errs[i] = fmt.Errorf("core: cell %d/%d seed %d: %w", cell+1, len(builds), seed, err)
					failed.Store(true)
					return
				}
				start := time.Now()
				reports[i] = nw.Run()
				if o.Progress != nil {
					ev := nw.Engine().Processed()
					progress.Lock()
					o.Progress(fmt.Sprintf("cell %d/%d seed %d: %v, %d events, %.0f events/s", cell+1, len(builds), seed, reports[i], ev, float64(ev)/time.Since(start).Seconds()))
					progress.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return reports, nil
}

// workerCount resolves the Parallelism knob against the job count:
// 0 (or negative) means one worker per CPU, and the pool never
// exceeds the number of jobs.
func (o Options) workerCount(jobs int) int {
	w := o.Parallelism
	if w <= 0 {
		w = runtime.NumCPU()
	}
	if w > jobs {
		w = jobs
	}
	if w < 1 {
		w = 1
	}
	return w
}
