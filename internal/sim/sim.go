// Package sim provides a deterministic discrete-event simulation engine.
//
// All components of the simulated Fabric network (clients, peers,
// orderers, consensus nodes, network links) schedule work on a single
// virtual clock. Events execute in strict (time, sequence) order, so a
// run with a fixed seed is fully reproducible. This is the substitute
// substrate for the paper's Kubernetes testbed: the protocol logic runs
// for real, only elapsed time is virtual.
package sim

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"time"
)

// Time is a point in virtual time, measured as a duration since the
// start of the simulation.
type Time time.Duration

// String formats the virtual time as a duration.
func (t Time) String() string { return time.Duration(t).String() }

// Seconds returns the virtual time in seconds.
func (t Time) Seconds() float64 { return time.Duration(t).Seconds() }

// key is when a queued event runs. seq breaks ties so that events
// scheduled earlier run earlier, which keeps runs deterministic.
type key struct {
	at  Time
	seq uint64
}

// before reports whether a runs before b: (at, seq) is a total order,
// so the execution order does not depend on the queue's layout.
func (a *key) before(b *key) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// entry is a payload under the key it runs at: a callback in the
// engine's queue, a value in a Queue.
type entry[V any] struct {
	key
	v V
}

// keyHeap is a binary min-heap of entries held by value: scheduling an
// event allocates nothing beyond the occasional growth of the slice
// (container/heap would box every event into an interface).
type keyHeap[V any] []entry[V]

func (h *keyHeap[V]) push(x entry[V]) {
	q := append(*h, x)
	*h = q
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !x.before(&q[parent].key) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = x
}

// pop removes and returns the earliest entry.
func (h *keyHeap[V]) pop() entry[V] {
	q := *h
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = entry[V]{} // release the payload
	q = q[:n]
	*h = q
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if child+1 < n && q[child+1].before(&q[child].key) {
			child++
		}
		if !q[child].before(&last.key) {
			break
		}
		q[i] = q[child]
		i = child
	}
	if n > 0 {
		q[i] = last
	}
	return top
}

// lane queues the armed Tickers of one interval, linked through
// Ticker.link, each holding the key of its next tick. A tick is armed at
// (now + interval, fresh seq), so one interval's keys ascend in arming
// order and a FIFO holds them in run order without a heap's sifting.
type lane struct {
	interval   Time
	head, tail *Ticker
}

// Engine is a discrete-event simulation engine. The zero value is not
// usable; construct with NewEngine.
type Engine struct {
	now     Time
	seq     uint64
	pq      keyHeap[func()]
	lanes   []lane     // Tick's series, one FIFO per interval beside pq
	src     stream     // the generator; PermPrefix reads it directly
	rng     *rand.Rand // over src, for every other draw
	stopped bool
	// processed counts executed events, for diagnostics.
	processed uint64
	// fastmod[i] is Lemire's reciprocal of i+1, for PermPrefix's
	// Intn(i+1) draws.
	fastmod []uint64
}

// NewEngine returns an engine whose random stream is the one
// rand.NewSource(seed) produces.
func NewEngine(seed int64) *Engine {
	e := &Engine{}
	e.src.Seed(seed)
	e.rng = rand.New(&e.src)
	return e
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Processed reports how many events have been executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Rand exposes the engine's deterministic random stream. All random
// decisions in a simulation must come from here (or a source derived
// from it) to keep runs reproducible. Its values are, draw for draw,
// those of rand.New(rand.NewSource(seed)): the engine's source is its
// own copy of math/rand's generator, which PermPrefix also draws from.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// At schedules fn to run at absolute virtual time t. Scheduling in the
// past is treated as "now".
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	e.pq.push(entry[func()]{key{t, e.seq}, fn})
}

// After schedules fn to run d after the current virtual time. Negative
// delays are clamped to zero.
func (e *Engine) After(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	e.At(e.now+Time(d), fn)
}

// Stop halts the run loop after the currently executing event returns.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events until the queue is empty or Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped && e.step(math.MaxInt64) {
	}
}

// RunUntil executes events with timestamps <= deadline, then advances
// the clock to the deadline. Events scheduled beyond the deadline stay
// queued.
func (e *Engine) RunUntil(deadline Time) {
	e.stopped = false
	for !e.stopped && e.step(deadline) {
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// step runs the earliest queued event — the least by (at, seq) of the
// heap's top and the lanes' heads — if it is due by deadline, and
// reports whether it ran one.
func (e *Engine) step(deadline Time) bool {
	var next *key
	if len(e.pq) > 0 {
		next = &e.pq[0].key
	}
	from := -1 // the heap
	for i := range e.lanes {
		if h := e.lanes[i].head; h != nil && (next == nil || h.next.before(next)) {
			next, from = &h.next, i
		}
	}
	if next == nil || next.at > deadline {
		return false
	}
	if next.at > e.now {
		e.now = next.at
	}
	e.processed++
	if from < 0 {
		e.pq.pop().v()
		return true
	}
	l := &e.lanes[from]
	t := l.head
	if l.head, t.link = t.link, nil; l.head == nil {
		l.tail = nil
	}
	if t.fn != nil { // not cancelled
		t.fn()
		if t.fn != nil {
			e.arm(t, from)
		}
	}
	return true
}

// Pending reports the number of queued events.
func (e *Engine) Pending() int {
	n := len(e.pq)
	for _, l := range e.lanes {
		for t := l.head; t != nil; t = t.link {
			n++
		}
	}
	return n
}

// Exponential draws an exponentially distributed duration with the
// given mean. It is the inter-arrival distribution of the open-loop
// Poisson clients ("transaction arrival rate" in the paper).
func (e *Engine) Exponential(mean time.Duration) time.Duration {
	if mean <= 0 {
		return 0
	}
	return time.Duration(e.rng.ExpFloat64() * float64(mean))
}

// Normal draws a normally distributed duration (mean, stddev), clamped
// at zero. Used for jitter such as the ±10 ms of the Pumba emulation.
func (e *Engine) Normal(mean, stddev time.Duration) time.Duration {
	d := time.Duration(e.rng.NormFloat64()*float64(stddev) + float64(mean))
	if d < 0 {
		return 0
	}
	return d
}

// MaxLogNormal is the documented ceiling of a LogNormal draw: one
// virtual hour, far beyond any experiment window yet small enough to
// keep the event queue sane. An extreme-sigma sample saturates here.
// Without the clamp, a draw overflowing time.Duration would wrap the
// float→int64 conversion to the minimum int64 (on amd64), which the
// old negative-value guard then mapped to 0 — turning the heaviest
// tail draws into the *shortest* think times.
const MaxLogNormal = time.Hour

// LogNormal draws a log-normally distributed duration whose mean is
// mean and whose underlying normal has standard deviation sigma. The
// location parameter is derived as µ = ln(mean) − σ²/2 so that the
// distribution's expectation equals mean regardless of sigma. It
// models heavy-tailed client think times. Draws saturate at
// MaxLogNormal.
func (e *Engine) LogNormal(mean time.Duration, sigma float64) time.Duration {
	if mean <= 0 {
		return 0
	}
	if sigma <= 0 {
		return mean
	}
	mu := math.Log(float64(mean)) - sigma*sigma/2
	x := math.Exp(mu + sigma*e.rng.NormFloat64())
	if x >= float64(MaxLogNormal) {
		return MaxLogNormal
	}
	return time.Duration(x)
}

// Uniform draws a duration uniformly from [lo, hi).
func (e *Engine) Uniform(lo, hi time.Duration) time.Duration {
	if hi <= lo {
		return lo
	}
	return lo + time.Duration(e.rng.Int63n(int64(hi-lo)))
}

// PermPrefix fills prefix (len(prefix) <= n) with exactly what
// Rand().Perm(n)[:len(prefix)] would hold, and leaves Rand() in exactly
// the state Perm leaves it in — the same n Intn draws in the same order,
// rejections included — without building the other n-len(prefix)
// elements. Perm's inside-out Fisher–Yates step is m[i] = m[j]; m[j] = i
// with j <= i: a slot below len(prefix) is only ever assigned the loop
// index or the content of a slot at or below itself, never content from
// beyond the prefix, so the prefix can be tracked alone. The draws are
// read from the engine's stream buffer, not through rand.Rand and
// rand.Source. Int31n(d) rejects no draw below 1<<31-d, so every draw
// below 1<<31-n is accepted by all n of them and its Intn(d) is the
// remainder, taken with Lemire's fastmod reciprocal of d from a table
// that grows to the largest n asked for and is kept; a draw at or above
// that bound takes Int31n's rejection loop (divisor.int31n). The tail —
// the draws past the prefix — walks the buffer in runs up to its end, so
// the refill check sits outside the inner loop. n must be below 1<<31.
func (e *Engine) PermPrefix(n int, prefix []int) {
	for d := len(e.fastmod) + 1; d <= n; d++ {
		e.fastmod = append(e.fastmod, ^uint64(0)/uint64(d)+1)
	}
	k, accept := len(prefix), uint32(1<<31-n)
	pos := e.src.pos
	var j uint32
	for i := range prefix {
		j, pos = e.intn(i, accept, pos)
		prefix[i] = prefix[j]
		prefix[j] = i
	}
	for i := k; i < n; {
		if pos == streamLen {
			e.src.refill()
			pos = 0
		}
		run := e.src.buf[pos:min(streamLen, pos+n-i)]
		ms := e.fastmod[i : i+len(run)]
		r := 0
		for ; r < len(run); r++ {
			v := uint32(run[r]>>32) &^ (1 << 31)
			if v >= accept {
				break
			}
			if hi, _ := bits.Mul64(ms[r]*uint64(v), uint64(i+r+1)); hi < uint64(len(prefix)) {
				prefix[hi] = i + r
			}
		}
		i, pos = i+r, pos+r
		if r < len(run) {
			if j, pos = e.intn(i, accept, pos); int(j) < k {
				prefix[j] = i
			}
			i++
		}
	}
	e.src.pos = pos
}

// intn returns PermPrefix's i-th draw, Intn(i+1), from the stream
// outputs starting at buf[pos] (pos == streamLen refills first), and the
// position after the draws it used.
func (e *Engine) intn(i int, accept uint32, pos int) (uint32, int) {
	if pos == streamLen {
		e.src.refill()
		pos = 0
	}
	if v := uint32(e.src.buf[pos]>>32) &^ (1 << 31); v < accept {
		hi, _ := bits.Mul64(e.fastmod[i]*uint64(v), uint64(i+1))
		return uint32(hi), pos + 1
	}
	return newDivisor(uint32(i+1)).int31n(&e.src, pos)
}

// divisor is what rand.Int31n(d) computes with two 32-bit divisions per
// call: the largest draw it accepts and Lemire's fastmod reciprocal of d
// ("Faster remainder by direct computation", Lemire, Kaser & Kurz 2019),
// exact for every 32-bit dividend and divisor.
type divisor struct {
	d   uint32
	max uint32 // (1<<31 - 1) - (1<<31)%d: larger draws are rejected
	m   uint64 // ^uint64(0)/d + 1; v%d is the high word of (m*v)*d
}

func newDivisor(d uint32) divisor {
	return divisor{d: d, max: 1<<31 - 1 - (1<<31)%d, m: ^uint64(0)/uint64(d) + 1}
}

// int31n returns what Int31n(d) would from the outputs of s starting at
// buf[pos] (pos == streamLen refills first), and the position after the
// draws it used: PermPrefix's path for a draw near the top of the range.
// Int31n takes Int63()>>32 as its Int31 and masks instead when d is a
// power of two; there (1<<31)%d is 0, so nothing is rejected and the
// remainder is the mask.
func (dv divisor) int31n(s *stream, pos int) (uint32, int) {
	for {
		if pos == streamLen {
			s.refill()
			pos = 0
		}
		v := uint32(s.buf[pos]>>32) &^ (1 << 31)
		pos++
		if v <= dv.max {
			hi, _ := bits.Mul64(dv.m*uint64(v), uint64(dv.d))
			return uint32(hi), pos
		}
	}
}

// Jittered returns base scaled by a uniform factor in [1-frac, 1+frac].
// It models per-operation service-time variance.
func (e *Engine) Jittered(base time.Duration, frac float64) time.Duration {
	if frac <= 0 || base <= 0 {
		return base
	}
	f := 1 + frac*(2*e.rng.Float64()-1)
	d := time.Duration(math.Round(float64(base) * f))
	if d < 0 {
		return 0
	}
	return d
}

// Ticker repeatedly runs fn every interval until the engine stops or
// Cancel is invoked. The first tick fires one interval from now.
type Ticker struct {
	fn   func() // nil once cancelled
	next key    // of the armed tick
	link *Ticker
}

// Cancel stops future ticks. It is safe to call multiple times.
func (t *Ticker) Cancel() { t.fn = nil }

// Tick schedules fn every interval on the engine and returns a Ticker
// that can cancel the series. Each tick is one event: it runs fn unless
// the series was cancelled, then re-arms one interval later unless fn
// cancelled it. The series waits on its interval's lane, not the heap,
// and allocates nothing but the Ticker.
func (e *Engine) Tick(interval time.Duration, fn func()) *Ticker {
	if interval <= 0 {
		panic(fmt.Sprintf("sim: non-positive tick interval %v", interval))
	}
	i := 0
	for i < len(e.lanes) && e.lanes[i].interval != Time(interval) {
		i++
	}
	if i == len(e.lanes) {
		e.lanes = append(e.lanes, lane{interval: Time(interval)})
	}
	t := &Ticker{fn: fn}
	e.arm(t, i)
	return t
}

// arm queues t's next tick, one interval from now, on lane i.
func (e *Engine) arm(t *Ticker, i int) {
	l := &e.lanes[i]
	e.seq++
	t.next = key{e.now + l.interval, e.seq}
	if l.tail == nil {
		l.head = t
	} else {
		l.tail.link = t
	}
	l.tail = t
}
