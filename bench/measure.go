package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
	simmetrics "repro/internal/metrics"
)

// rep is what one repetition of a workload measured. Times are host
// time; simtx, events and digest are simulated results and repeat
// exactly for a given seed.
type rep struct {
	setup time.Duration // config construction + NewNetwork for every cell
	wall  time.Duration // Network.Run, or Options.RunAll for a sweep
	cpu   time.Duration // process user+sys CPU over the same interval

	mallocs  uint64 // MemStats.Mallocs delta over the run
	bytes    uint64 // MemStats.TotalAlloc delta over the run
	peakHeap uint64 // max live+unswept heap object bytes, set-up to end
	gc       gcStats

	simtx  int    // finished simulated transactions
	events uint64 // engine events processed; 0 for a sweep
	digest string // pins everything the run observably produced
}

// gcStats are runtime counters over the run interval.
type gcStats struct {
	cycles  uint32
	pause   time.Duration
	cpuSecs float64
}

// cpuTime returns the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("bench: getrusage: " + err.Error())
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

const (
	heapObjectsMetric = "/memory/classes/heap/objects:bytes"
	gcCPUMetric       = "/cpu/classes/gc/total:cpu-seconds"
)

// heapSampler records the maximum of the heap-objects gauge every 5 ms
// on its own goroutine until stop is called.
type heapSampler struct {
	quit chan struct{}
	done chan uint64
}

func startHeapSampler() *heapSampler {
	s := &heapSampler{quit: make(chan struct{}), done: make(chan uint64)}
	go func() {
		sample := []metrics.Sample{{Name: heapObjectsMetric}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		var peak uint64
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > peak {
				peak = v
			}
			select {
			case <-s.quit:
				s.done <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// stop ends the sampler, waits for it, and returns the peak.
func (s *heapSampler) stop() uint64 {
	close(s.quit)
	return <-s.done
}

// interval brackets the measured call: counters read at start and
// again at finish, which fills the rep.
type interval struct {
	t0   time.Time
	cpu0 time.Duration
	gc0  float64
	ms0  runtime.MemStats
}

func gcCPUSeconds() float64 {
	sample := []metrics.Sample{{Name: gcCPUMetric}}
	metrics.Read(sample)
	if sample[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return sample[0].Value.Float64()
}

func startInterval() *interval {
	iv := &interval{}
	runtime.ReadMemStats(&iv.ms0)
	iv.gc0 = gcCPUSeconds()
	iv.cpu0 = cpuTime()
	iv.t0 = time.Now()
	return iv
}

func (iv *interval) finish(r *rep) {
	r.wall = time.Since(iv.t0)
	r.cpu = cpuTime() - iv.cpu0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.mallocs = ms.Mallocs - iv.ms0.Mallocs
	r.bytes = ms.TotalAlloc - iv.ms0.TotalAlloc
	r.gc = gcStats{
		cycles:  ms.NumGC - iv.ms0.NumGC,
		pause:   time.Duration(ms.PauseTotalNs - iv.ms0.PauseTotalNs),
		cpuSecs: gcCPUSeconds() - iv.gc0,
	}
}

// finishNetwork runs a built network to completion, filling r with the
// run's measurements and simulated results (under a fabric.run span
// when t is not nil), and checks what a run must always satisfy:
// transactions finished, and the report's committed count is the
// number of transactions on the chains. With payloads kept
// (StripAfterCommit off) every channel's hash chain is also
// re-verified; stripped transactions no longer hash to their block's
// hash, so for them the tip hashes in the digest stand in.
func finishNetwork(nw *fabric.Network, payloads bool, t *tracer, r *rep) (simmetrics.Report, error) {
	iv := startInterval()
	var root int32
	if t != nil {
		root = t.begin(spRun)
	}
	report := nw.Run()
	if t != nil {
		t.end(root)
	}
	iv.finish(r)

	h := sha256.New()
	fmt.Fprintf(h, "%+v\n%d\n", report, nw.Engine().Processed())
	onChain := 0
	for ch, chain := range nw.Chains() {
		if payloads {
			if err := chain.Verify(); err != nil {
				return report, fmt.Errorf("channel %d: %w", ch, err)
			}
		}
		onChain += chain.TxCount()
		tip := chain.Block(chain.Height() - 1)
		h.Write(tip.Hash[:])
	}
	switch {
	case report.Total == 0:
		return report, fmt.Errorf("no transaction finished")
	case report.Committed != onChain:
		return report, fmt.Errorf("report counts %d committed transactions, the chains hold %d", report.Committed, onChain)
	}
	r.simtx = report.Total
	r.events = nw.Engine().Processed()
	r.digest = hex.EncodeToString(h.Sum(nil))
	return report, nil
}

// setUp does the work a rep needs before it can run: it builds every
// cell's config from the seed and its network (genesis Init, replica
// clones).
func (w workload) setUp(seed int64) ([]*fabric.Network, time.Duration, error) {
	t0 := time.Now()
	nets := make([]*fabric.Network, w.cells)
	for i := range nets {
		var err error
		if nets[i], err = fabric.NewNetwork(w.config(seed, i)); err != nil {
			return nil, 0, err
		}
	}
	return nets, time.Since(t0), nil
}

// minSetupSample is the shortest interval one set-up sample times.
const minSetupSample = 10 * time.Millisecond

// setupOnly takes one more set-up sample: the mean time of as many
// consecutive set-ups as it takes to fill minSetupSample, so that a
// millisecond set-up is not judged from single cold calls.
func (w workload) setupOnly(seed int64) (time.Duration, error) {
	runtime.GC()
	t0 := time.Now()
	for n := 1; ; n++ {
		if _, _, err := w.setUp(seed); err != nil {
			return 0, err
		}
		if d := time.Since(t0); d >= minSetupSample {
			return d / time.Duration(n), nil
		}
	}
}

// runRep executes one repetition of w. A panic in the program under
// test is reported as the rep's error.
func (w workload) runRep(seed int64) (r rep, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	// Start from a collected heap so that reps do not inherit each
	// other's garbage; the collection itself is not timed.
	runtime.GC()
	sampler := startHeapSampler()
	defer func() { r.peakHeap = sampler.stop() }()

	nets, setup, err := w.setUp(seed)
	if err != nil {
		return r, err
	}
	r.setup = setup

	if !w.sweep {
		_, err := finishNetwork(nets[0], false, nil, &r)
		return r, err
	}

	// The scheduler builds its own networks from the builders, so the
	// ones built above only measured set-up. Collect them now: as
	// garbage of unpredictable lifetime they made the peak heap of the
	// run jump by half from rep to rep.
	nets = nil
	runtime.GC()
	iv := startInterval()
	results, err := w.runAll(seed, 2)
	iv.finish(&r)
	if err != nil {
		return r, err
	}
	for _, res := range results {
		r.simtx += int(res.Total)
	}
	if r.simtx == 0 {
		return r, fmt.Errorf("no transaction finished")
	}
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", results)))
	r.digest = hex.EncodeToString(sum[:])
	return r, nil
}

// runAll runs a sweep's cells through core's scheduler.
func (w workload) runAll(seed int64, workers int) ([]core.Result, error) {
	builds := make([]core.Builder, w.cells)
	for i := range builds {
		i := i
		builds[i] = func(int64) fabric.Config { return w.cell(i) }
	}
	opts := core.Options{Duration: w.duration, Drain: drain, Seeds: []int64{seed}, Parallelism: workers}
	return opts.RunAll(builds)
}

// quartiles returns the first quartile, the median and the third
// quartile of xs as Python's statistics.quantiles(xs, n=4) computes
// them (the acceptance procedure's definition); a single value is its
// own quartiles.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}
