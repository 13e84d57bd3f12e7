package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"

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
// per-builder averages accumulate in fixed seed order.
func (o Options) RunAll(builds []Builder) ([]Result, error) {
	return o.RunAllContext(context.Background(), builds)
}

// RunAllContext is RunAll with cancellation. When ctx is cancelled,
// in-flight simulations finish, queued ones are abandoned, and the
// context's error is returned; if every cell was already in flight
// (or finished) at cancellation time, the completed batch is
// returned with a nil error. A builder error cancels the remaining
// work; the earliest recorded error in input order (not completion
// order) propagates.
func (o Options) RunAllContext(ctx context.Context, builds []Builder) ([]Result, error) {
	if len(o.Seeds) == 0 {
		return nil, fmt.Errorf("core: no seeds configured")
	}
	if len(builds) == 0 {
		return nil, nil
	}

	// One job per (builder, seed) cell, in input order: job i covers
	// builder i/len(Seeds) with seed i%len(Seeds).
	seeds := len(o.Seeds)
	jobs := len(builds) * seeds
	reports := make([]metrics.Report, jobs)
	errs := make([]error, jobs)
	done := make([]bool, jobs)

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Serialized progress funnel: one drainer goroutine owns the
	// Progress callback, so lines from concurrent workers never
	// interleave.
	var progress chan string
	var progressWG sync.WaitGroup
	if o.Progress != nil {
		progress = make(chan string, o.workerCount(jobs))
		progressWG.Add(1)
		go func() {
			defer progressWG.Done()
			for line := range progress {
				o.Progress(line)
			}
		}()
	}

	next := make(chan int)
	go func() {
		defer close(next)
		for i := 0; i < jobs; i++ {
			select {
			case next <- i:
			case <-runCtx.Done():
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := o.workerCount(jobs); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if runCtx.Err() != nil {
					return
				}
				cell, seed := i/seeds, o.Seeds[i%seeds]
				cfg := builds[cell](seed)
				cfg.Seed = seed
				cfg.Duration = o.Duration
				cfg.Drain = o.Drain
				nw, err := fabric.NewNetwork(cfg)
				if err != nil {
					errs[i] = cellError(len(builds), cell, seed, err)
					cancel()
					continue
				}
				reports[i] = nw.Run()
				done[i] = true
				if progress != nil {
					progress <- progressLine(len(builds), cell, seed, reports[i])
				}
			}
		}()
	}
	wg.Wait()
	if progress != nil {
		close(progress)
		progressWG.Wait()
	}

	// First-error propagation: scan in input order so the reported
	// error favours the earliest failing cell over whichever worker
	// happened to finish first.
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for _, ok := range done {
		if !ok {
			// No builder failed, so an undone job means the parent
			// context was cancelled under us.
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			return nil, fmt.Errorf("core: batch aborted")
		}
	}

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

// progressLine keeps the historical single-cell format ("seed 1: …")
// and prefixes the cell coordinate only for real batches.
func progressLine(cells, cell int, seed int64, rep metrics.Report) string {
	if cells == 1 {
		return fmt.Sprintf("seed %d: %v", seed, rep)
	}
	return fmt.Sprintf("cell %d/%d seed %d: %v", cell+1, cells, seed, rep)
}

// cellError mirrors progressLine: a single-cell batch returns the
// bare cause (as the serial runner did), a real batch prefixes the
// 1-based cell coordinate and seed.
func cellError(cells, cell int, seed int64, err error) error {
	if cells == 1 {
		return err
	}
	return fmt.Errorf("core: cell %d/%d seed %d: %w", cell+1, cells, seed, err)
}
