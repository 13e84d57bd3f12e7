package sim

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

func TestEngineOrdersEventsByTime(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.At(Time(30*time.Millisecond), func() { got = append(got, 3) })
	e.At(Time(10*time.Millisecond), func() { got = append(got, 1) })
	e.At(Time(20*time.Millisecond), func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != Time(30*time.Millisecond) {
		t.Errorf("Now() = %v, want 30ms", e.Now())
	}
}

func TestEngineFIFOWithinSameTimestamp(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(Time(5*time.Millisecond), func() { got = append(got, i) })
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-timestamp events out of order: %v", got)
		}
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	e := NewEngine(1)
	var at Time
	e.After(time.Second, func() {
		e.After(2*time.Second, func() { at = e.Now() })
	})
	e.Run()
	if at != Time(3*time.Second) {
		t.Errorf("nested After fired at %v, want 3s", at)
	}
}

func TestSchedulingInPastRunsNow(t *testing.T) {
	e := NewEngine(1)
	var fired Time
	e.After(time.Second, func() {
		e.At(0, func() { fired = e.Now() })
	})
	e.Run()
	if fired != Time(time.Second) {
		t.Errorf("past event fired at %v, want 1s", fired)
	}
}

func TestRunUntilLeavesLaterEventsQueued(t *testing.T) {
	e := NewEngine(1)
	ran := 0
	e.At(Time(time.Second), func() { ran++ })
	e.At(Time(3*time.Second), func() { ran++ })
	e.RunUntil(Time(2 * time.Second))
	if ran != 1 {
		t.Fatalf("ran %d events, want 1", ran)
	}
	if e.Now() != Time(2*time.Second) {
		t.Errorf("Now() = %v, want 2s", e.Now())
	}
	if e.Pending() != 1 {
		t.Errorf("Pending() = %d, want 1", e.Pending())
	}
}

func TestStopHaltsRun(t *testing.T) {
	e := NewEngine(1)
	ran := 0
	e.At(Time(time.Second), func() { ran++; e.Stop() })
	e.At(Time(2*time.Second), func() { ran++ })
	e.Run()
	if ran != 1 {
		t.Fatalf("ran %d events, want 1 after Stop", ran)
	}
}

func TestTickerFiresAndCancels(t *testing.T) {
	e := NewEngine(1)
	ticks := 0
	var tk *Ticker
	tk = e.Tick(100*time.Millisecond, func() {
		ticks++
		if ticks == 5 {
			tk.Cancel()
		}
	})
	e.RunUntil(Time(10 * time.Second))
	if ticks != 5 {
		t.Errorf("ticks = %d, want 5", ticks)
	}
}

func TestTickPanicsOnNonPositiveInterval(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero interval")
		}
	}()
	NewEngine(1).Tick(0, func() {})
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func(seed int64) []time.Duration {
		e := NewEngine(seed)
		var out []time.Duration
		for i := 0; i < 100; i++ {
			out = append(out, e.Exponential(10*time.Millisecond))
		}
		return out
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical draws")
	}
}

func TestExponentialMean(t *testing.T) {
	e := NewEngine(7)
	const n = 20000
	mean := 10 * time.Millisecond
	var sum time.Duration
	for i := 0; i < n; i++ {
		sum += e.Exponential(mean)
	}
	got := float64(sum) / n
	if got < 0.9*float64(mean) || got > 1.1*float64(mean) {
		t.Errorf("empirical mean %v, want ~%v", time.Duration(got), mean)
	}
}

func TestExponentialZeroMean(t *testing.T) {
	e := NewEngine(7)
	if d := e.Exponential(0); d != 0 {
		t.Errorf("Exponential(0) = %v, want 0", d)
	}
}

func TestNormalClampsAtZero(t *testing.T) {
	e := NewEngine(7)
	for i := 0; i < 1000; i++ {
		if d := e.Normal(time.Millisecond, 100*time.Millisecond); d < 0 {
			t.Fatalf("Normal returned negative duration %v", d)
		}
	}
}

func TestUniformBounds(t *testing.T) {
	e := NewEngine(7)
	lo, hi := 5*time.Millisecond, 15*time.Millisecond
	for i := 0; i < 1000; i++ {
		d := e.Uniform(lo, hi)
		if d < lo || d >= hi {
			t.Fatalf("Uniform out of range: %v", d)
		}
	}
	if d := e.Uniform(hi, lo); d != hi {
		t.Errorf("degenerate Uniform = %v, want lo", d)
	}
}

func TestJitteredBounds(t *testing.T) {
	e := NewEngine(7)
	base := 10 * time.Millisecond
	for i := 0; i < 1000; i++ {
		d := e.Jittered(base, 0.2)
		if d < 8*time.Millisecond-time.Microsecond || d > 12*time.Millisecond+time.Microsecond {
			t.Fatalf("Jittered out of ±20%% band: %v", d)
		}
	}
	if d := e.Jittered(base, 0); d != base {
		t.Errorf("zero-jitter = %v, want base", d)
	}
}

// Property: for any set of scheduled offsets, events fire in
// non-decreasing time order and the clock ends at the max offset.
func TestEventOrderProperty(t *testing.T) {
	f := func(offsets []uint16) bool {
		if len(offsets) == 0 {
			return true
		}
		e := NewEngine(1)
		var fired []Time
		var max Time
		for _, off := range offsets {
			at := Time(time.Duration(off) * time.Microsecond)
			if at > max {
				max = at
			}
			e.At(at, func() { fired = append(fired, e.Now()) })
		}
		e.Run()
		if len(fired) != len(offsets) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return e.Now() == max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestLogNormalExtremeSigmaSaturates(t *testing.T) {
	// Regression: with a huge mean and sigma, draws routinely exceed
	// what a time.Duration can hold. The old float→int64 conversion
	// wrapped those to the minimum int64, and the d < 0 guard then
	// mapped the *heaviest* tail draws to 0 — the shortest think time.
	// They must saturate at the documented MaxLogNormal cap instead.
	eng := NewEngine(1)
	mean := time.Duration(5e18) // near the int64 ceiling: overflow is routine
	sawCap := false
	for i := 0; i < 1000; i++ {
		d := eng.LogNormal(mean, 1)
		if d < 0 {
			t.Fatalf("draw %d: negative duration %v", i, d)
		}
		if d == 0 {
			t.Fatalf("draw %d: overflow mapped to the 0 minimum", i)
		}
		if d > MaxLogNormal {
			t.Fatalf("draw %d: %v above the documented cap %v", i, d, MaxLogNormal)
		}
		if d == MaxLogNormal {
			sawCap = true
		}
	}
	if !sawCap {
		t.Fatal("extreme-sigma draws never reached the saturation cap")
	}
	// Ordinary parameters never touch the cap and keep their mean.
	for i := 0; i < 1000; i++ {
		if d := eng.LogNormal(time.Second, 1); d >= MaxLogNormal {
			t.Fatalf("sigma-1 second-mean draw hit the cap: %v", d)
		}
	}
}

func BenchmarkEngineScheduleRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := NewEngine(1)
		for j := 0; j < 1000; j++ {
			e.After(time.Duration(j)*time.Microsecond, func() {})
		}
		e.Run()
	}
}

// The queue is a hand-written heap plus one FIFO lane per tick
// interval. Interleave At, After and tick series of two intervals —
// from outside and from inside running events, with mostly equal
// timestamps, so ticks tie with heap events — and check every step
// against a reference: the event that runs is the least by (effective
// timestamp, scheduling order) among those scheduled so far and not yet
// run. A series ends by cancelling itself in its callback, or is
// cancelled by another event, which leaves its armed tick to run as an
// event with no callback. A RunUntil halfway must leave exactly the
// later events queued, ticks included, and Pending must count them;
// so must one on a lone series.
func TestHeapMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	e := NewEngine(1)
	var at []Time     // effective timestamp by event id; ids are in scheduling order
	var silent []bool // the tick of a series cancelled before it ran
	var ran []int     // event ids in execution order, silent ticks excepted
	var known []int   // known[k]: events scheduled before the k-th one ran
	schedule := func(when Time) int {
		at, silent = append(at, when), append(silent, false)
		return len(at) - 1
	}
	type series struct {
		tk   *Ticker
		next int // id of the armed tick
	}
	var live []*series
	var add func(depth int)
	startSeries := func() {
		interval := time.Duration(1+rng.Intn(2)) * time.Millisecond
		s, left := &series{}, 1+rng.Intn(5)
		s.next = schedule(e.Now() + Time(interval))
		s.tk = e.Tick(interval, func() {
			ran = append(ran, s.next)
			if rng.Intn(2) == 0 {
				add(2)
			}
			if left--; left == 0 {
				s.tk.Cancel()
			} else {
				s.next = schedule(e.Now() + Time(interval)) // re-armed after this returns
			}
			known = append(known, len(at))
		})
		live = append(live, s)
	}
	add = func(depth int) {
		id := len(at)
		fn := func() {
			ran = append(ran, id)
			// Events schedule more events while the queue is live, like
			// every component of the network does.
			for k := rng.Intn(3); depth < 3 && k > 0; k-- {
				add(depth + 1)
			}
			switch rng.Intn(8) {
			case 0:
				startSeries()
			case 1:
				if s := live[rng.Intn(len(live))]; !silent[s.next] && !slices.Contains(ran, s.next) {
					s.tk.Cancel()
					silent[s.next] = true
				}
			}
			known = append(known, len(at))
		}
		if rng.Intn(2) == 0 {
			d := time.Duration(rng.Intn(4)-1) * time.Millisecond // -1ms clamps to 0
			schedule(e.Now() + Time(max(d, 0)))
			e.After(d, fn)
			return
		}
		// A handful of distinct timestamps, so most events tie; those in
		// the past are clamped to now.
		when := Time(rng.Intn(8)) * Time(time.Millisecond)
		schedule(max(when, e.Now()))
		e.At(when, fn)
	}
	for i := 0; i < 400; i++ {
		if i%100 == 0 {
			startSeries()
		}
		add(0)
	}
	known = append(known, len(at))
	const mid = Time(5 * time.Millisecond)
	e.RunUntil(mid)
	later, silentRan, laneLater := 0, 0, 0
	for id, when := range at {
		switch {
		case when > mid:
			later++
		case silent[id]:
			silentRan++
		}
	}
	for _, s := range live {
		if at[s.next] > mid && !silent[s.next] {
			laneLater++
		}
	}
	if e.Pending() != later || int(e.Processed()) != len(ran)+silentRan || laneLater == 0 {
		t.Fatalf("after RunUntil(%v): %d pending, %d processed; want %d later events (%d armed ticks, want some) and %d processed",
			mid, e.Pending(), e.Processed(), later, laneLater, len(ran)+silentRan)
	}
	e.Run()
	silentRan = 0
	for _, s := range silent {
		if s {
			silentRan++
		}
	}
	if len(ran)+silentRan != len(at) || e.Pending() != 0 || int(e.Processed()) != len(at) {
		t.Fatalf("ran %d of %d events (%d silent ticks), %d processed, %d pending", len(ran), len(at), silentRan, e.Processed(), e.Pending())
	}
	done := make([]bool, len(at))
	for k, got := range ran {
		want := -1
		for id := 0; id < known[k]; id++ {
			if !done[id] && !silent[id] && (want < 0 || at[id] < at[want]) {
				want = id // ids ascend, so the first of equal timestamps wins
			}
		}
		if got != want {
			t.Fatalf("step %d ran event %d (at %v), reference says %d (at %v)", k, got, at[got], want, at[want])
		}
		done[got] = true
	}
	// With the heap empty, a tick past the deadline stays queued too.
	fired, start := 0, e.Now()
	var tk *Ticker
	tk = e.Tick(time.Millisecond, func() {
		if fired++; fired == 5 {
			tk.Cancel()
		}
	})
	if e.RunUntil(start + Time(2500*time.Microsecond)); fired != 2 || e.Pending() != 1 {
		t.Fatalf("RunUntil 2.5 intervals on: %d ticks ran, %d pending, want 2 and 1", fired, e.Pending())
	}
}

// Scheduling and running an event whose callback captures nothing must
// not allocate once the queue's backing array has grown.
func TestAtAndStepAllocateNothing(t *testing.T) {
	e := NewEngine(1)
	fn := func() {}
	for i := 0; i < 64; i++ { // steady-state queue depth
		e.At(Time(i), fn)
	}
	next := Time(64)
	allocs := testing.AllocsPerRun(1000, func() {
		e.At(next, fn)
		next++
		e.step(math.MaxInt64)
	})
	if allocs != 0 {
		t.Fatalf("At + step allocated %v objects per event, want 0", allocs)
	}
}

// A tick series re-arms by relinking its Ticker on its lane: once
// armed, series of two intervals, one of them cancelled while its tick
// waits, run and re-arm without allocating.
func TestTickAllocatesNothing(t *testing.T) {
	e := NewEngine(1)
	fn := func() {}
	for i := 0; i < 64; i++ {
		tk := e.Tick(time.Duration(1+i%2)*time.Millisecond, fn)
		if i == 7 {
			tk.Cancel()
		}
	}
	if allocs := testing.AllocsPerRun(1000, func() { e.step(math.MaxInt64) }); allocs != 0 {
		t.Fatalf("a tick allocated %v objects, want 0", allocs)
	}
	if e.Pending() != 63 {
		t.Fatalf("%d ticks pending, want the 63 live series", e.Pending())
	}
}

// PermPrefix is rand.Perm's head, draw for draw: for every mesh size
// and prefix length the prefix equals Perm(n)[:k] and the rng is left
// where Perm leaves it — which is what keeps every digest pinned before
// the table-driven draws existed valid. One engine per seed serves every
// size, so the divisor table grows between calls, and the prefix is
// reused dirty, as in a run.
func TestPermPrefixMatchesPerm(t *testing.T) {
	check := func(seed int64, sizes []int, maxK int) {
		e, want := NewEngine(seed), rand.New(rand.NewSource(seed))
		scratch := make([]int, maxK)
		for _, n := range sizes {
			for k := 0; k <= maxK && k <= n; k++ {
				prefix := scratch[:k]
				e.PermPrefix(n, prefix)
				if perm := want.Perm(n)[:k]; !slices.Equal(prefix, perm) {
					t.Fatalf("seed %d n %d k %d: prefix %v, Perm's head is %v", seed, n, k, prefix, perm)
				}
				if g, w := e.Rand().Int63(), want.Int63(); g != w {
					t.Fatalf("seed %d n %d k %d: rng diverged after sampling (%d vs %d)", seed, n, k, g, w)
				}
			}
		}
	}
	for seed := int64(1); seed <= 50; seed++ {
		check(seed, []int{1, 2, 3, 7, 64, 199, 1000, 4096}, 5)
	}
	every := make([]int, 260) // every size up to 260, prefixes up to 9
	for i := range every {
		every[i] = i + 1
	}
	for seed := int64(1); seed <= 4; seed++ {
		check(seed, every, 9)
	}
}

// A draw at or above 1<<31-n leaves PermPrefix's fast path for
// Int31n's rejection loop, which a random stream takes less than once in
// 2^31/n draws. Plant such draws in the engine's buffer — inside the
// prefix's draws, mid-run in the tail, at the last output before a
// refill and at the first one after it (planted through the slot the
// refill adds to it), singly and two in a row — and compare with Perm's
// head and the next Int63 of a rand.Rand over a copy of the stream.
func TestPermPrefixRejectionFallback(t *testing.T) {
	const n, k = 199, 3
	cases := []struct {
		name    string
		pos, at int // read position, and the draw planted (draw 0 is at pos)
	}{
		{"prefix draw", 10, 1},
		{"mid tail run", 10, 100},
		{"last before refill", streamLen - 50, 49},
		{"first after refill", streamLen - 50, 50},
	}
	for _, c := range cases {
		for _, v := range []uint64{1<<31 - 1, 1<<31 - n, 1<<31 - n + 1} {
			for _, twice := range []bool{false, true} {
				e := NewEngine(3)
				e.src.pos = c.pos
				plant := func(at int) {
					if i := c.pos + at; i < streamLen {
						e.src.buf[i] = v << 32
					} else { // the refill adds slot i+streamLen-streamTap to slot i
						i -= streamLen
						e.src.buf[i] = v<<32 - e.src.buf[i+streamLen-streamTap]
					}
				}
				plant(c.at)
				if twice {
					plant(c.at + 1)
				}
				cp := e.src
				want := rand.New(&cp)
				prefix := make([]int, k)
				e.PermPrefix(n, prefix)
				if perm := want.Perm(n)[:k]; !slices.Equal(prefix, perm) {
					t.Fatalf("%s, draw %d<<32, twice %v: prefix %v, Perm's head is %v", c.name, v, twice, prefix, perm)
				}
				if g, w := e.Rand().Int63(), want.Int63(); g != w {
					t.Fatalf("%s, draw %d<<32, twice %v: rng diverged after sampling (%d vs %d)", c.name, v, twice, g, w)
				}
			}
		}
	}
}

// A divisor near 3·2^29 rejects a quarter of all draws: the table's
// rejection threshold and fastmod remainder must give rand.Int31n's
// value from the same draws, loop iterations included.
func TestDivisorInt31nMatchesRand(t *testing.T) {
	const d = 3<<29 + 7
	s, want := &NewEngine(5).src, rand.New(rand.NewSource(5))
	dv := newDivisor(d)
	const draws = 100000
	used, pos := 0, s.pos
	for i := 0; i < draws; i++ {
		g, next := dv.int31n(s, pos)
		if w := want.Int31n(d); int32(g) != w {
			t.Fatalf("draw %d: %d, rand.Int31n says %d", i, g, w)
		}
		if used += next - pos; next <= pos { // refilled on the way
			used += streamLen
		}
		pos = next
	}
	s.pos = pos
	if g, w := s.Int63(), want.Int63(); g != w {
		t.Fatalf("rng diverged (%d vs %d)", g, w)
	}
	// Expected extra draws: draws/3 (each value takes 4/3 draws).
	if extra := used - draws; extra < draws*3/10 || extra > draws*37/100 {
		t.Fatalf("%d rejected draws in %d, want about a third as many", extra, draws)
	}
}

// scriptedSource replays Int31 values: Int63 returns v<<32 for each v
// in turn, cyclically.
type scriptedSource struct {
	vs []uint32
	i  int
}

func (s *scriptedSource) Int63() int64 { v := s.vs[s.i%len(s.vs)]; s.i++; return int64(v) << 32 }
func (s *scriptedSource) Seed(int64)   {}

// The draws at the edges of the accepted range, which a random stream
// all but never produces: the largest accepted value, the smallest
// rejected one (when there is one), the largest Int31 and zero. The
// stream's buffer holds the script as v<<32, cyclically, so its read
// position counts the draws.
func TestDivisorInt31nEdges(t *testing.T) {
	for _, d := range []uint32{1, 2, 3, 7, 199, 4096, 1 << 30, 3<<29 + 7, 1<<31 - 1} {
		dv := newDivisor(d)
		if (dv.max+1)%d != 0 || 1<<31-(uint64(dv.max)+1) >= uint64(d) {
			t.Fatalf("d %d: threshold %d does not end the last whole multiple of d below 1<<31", d, dv.max)
		}
		script := []uint32{dv.max, min(dv.max+1, 1<<31-1), 1<<31 - 1, 0, d - 1, d}
		s, b := new(stream), &scriptedSource{vs: script}
		for i := range s.buf {
			s.buf[i] = uint64(script[i%len(script)]) << 32
		}
		want := rand.New(b)
		pos := 0
		for k := range script {
			g, next := dv.int31n(s, pos)
			if w := want.Int31n(int32(d)); int32(g) != w || next != b.i {
				t.Fatalf("d %d draw %d: %d after %d values, rand.Int31n says %d after %d", d, k, g, next, w, b.i)
			}
			pos = next
		}
	}
}

// The stream is rand.NewSource's, draw for draw, across several refills
// entered mid-buffer, whichever of Int63 and Uint64 asks; Seed restarts
// it where a new source of that seed starts.
func TestStreamMatchesSource(t *testing.T) {
	const draws = 5*streamLen + 3
	for _, seed := range []int64{0, 1, -1, 7, 1 << 40, math.MinInt64, math.MaxInt64} {
		s := &NewEngine(seed).src
		for _, phase := range []string{"new", "reseeded"} {
			ref := rand.NewSource(seed).(rand.Source64)
			for i := 0; i < draws; i++ {
				if i%3 == 1 {
					if g, w := s.Int63(), ref.Int63(); g != w {
						t.Fatalf("seed %d, %s, draw %d: Int63 %d, rand.NewSource says %d", seed, phase, i, g, w)
					}
				} else if g, w := s.Uint64(), ref.Uint64(); g != w {
					t.Fatalf("seed %d, %s, draw %d: Uint64 %d, rand.NewSource says %d", seed, phase, i, g, w)
				}
			}
			s.Seed(seed)
		}
	}
}

// PermPrefix reads its draws from the engine's buffer and keeps its
// divisors: once the table has grown to the mesh, a call allocates
// nothing.
func TestPermPrefixAllocatesNothing(t *testing.T) {
	e := NewEngine(1)
	prefix := make([]int, 3)
	e.PermPrefix(199, prefix)
	if allocs := testing.AllocsPerRun(1000, func() { e.PermPrefix(199, prefix) }); allocs != 0 {
		t.Fatalf("PermPrefix allocated %v objects per call, want 0", allocs)
	}
}

// BenchmarkPermPrefix is one gossip round's peer sample on the
// ehr-controlplane mesh: 3 of the 199 other drivers, 199 draws.
func BenchmarkPermPrefix(b *testing.B) {
	e := NewEngine(1)
	prefix := make([]int, 3)
	e.PermPrefix(199, prefix)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.PermPrefix(199, prefix)
	}
}

// FuzzEngineRand runs each input byte as one draw on an engine and on
// rand.New(rand.NewSource(seed)), which must agree op by op. The byte's
// remainder mod 7 picks Int63, Uint64, Float64, Intn, ExpFloat64,
// NormFloat64 or PermPrefix (against Perm's head); its quotient sizes
// Intn's bound (up to 1.9e9, where an eighth of draws are rejected) and
// PermPrefix's mesh and prefix. Only the first maxOps bytes count.
func FuzzEngineRand(f *testing.F) {
	const maxOps = 4096
	every := make([]byte, 256)
	for i := range every {
		every[i] = byte(i)
	}
	f.Add(int64(1), []byte{})
	f.Add(int64(1), []byte{0, 1, 2, 3, 4, 5, 6})
	f.Add(int64(7), every)
	f.Add(int64(-1), bytes.Repeat([]byte{6 + 7*35}, 40)) // PermPrefix(281, 8): many refills
	f.Add(int64(math.MinInt64), bytes.Repeat([]byte{3 + 7*36}, 700))
	f.Add(int64(math.MaxInt64), bytes.Repeat(every, 12))
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		e, want := NewEngine(seed), rand.New(rand.NewSource(seed))
		got := e.Rand()
		var scratch [9]int
		for i, op := range ops[:min(len(ops), maxOps)] {
			arg := int(op / 7)
			var g, w any
			switch op % 7 {
			case 0:
				g, w = got.Int63(), want.Int63()
			case 1:
				g, w = got.Uint64(), want.Uint64()
			case 2:
				g, w = got.Float64(), want.Float64()
			case 3:
				n := 1 + arg*arg*arg*40000
				g, w = got.Intn(n), want.Intn(n)
			case 4:
				g, w = got.ExpFloat64(), want.ExpFloat64()
			case 5:
				g, w = got.NormFloat64(), want.NormFloat64()
			case 6:
				n := 1 + 8*arg
				prefix := scratch[:min(n, arg%len(scratch))]
				e.PermPrefix(n, prefix)
				g, w = fmt.Sprint(prefix), fmt.Sprint(want.Perm(n)[:len(prefix)])
			}
			if g != w {
				t.Fatalf("seed %d op %d (byte %d): engine %v, reference %v", seed, i, op, g, w)
			}
		}
		if g, w := got.Int63(), want.Int63(); g != w {
			t.Fatalf("seed %d: streams diverged after the ops (%d vs %d)", seed, g, w)
		}
	})
}
