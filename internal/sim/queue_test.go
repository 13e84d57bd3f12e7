package sim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"
)

// queueScript runs one random script of messages and plain events on a
// fresh engine and returns what was handled, in order, with the time of
// each, and the engine's event count. Messages go to three receivers
// through queues, or, with closures set, through one Engine.At closure
// per message, which is the reference a queue must match. Handlers and
// plain events send more messages, to their own receiver and to others,
// at times that tie, lie in the past or lie ahead, and schedule more
// plain events; halfway a RunUntil stops the run, as a measured window
// does.
func queueScript(seed int64, closures bool) ([]string, uint64) {
	e := NewEngine(1)
	rng := rand.New(rand.NewSource(seed))
	var log []string
	var send func(q int, t Time, v int)
	var act func(depth int)
	budget := 600
	handle := func(q, v int) {
		log = append(log, fmt.Sprintf("q%d:%d@%v", q, v, e.Now()))
		act(1)
	}
	if closures {
		send = func(q int, t Time, v int) { e.At(t, func() { handle(q, v) }) }
	} else {
		var qs [3]*Queue[int]
		for i := range qs {
			i := i
			qs[i] = NewQueue(e, func(v int) { handle(i, v) })
		}
		send = func(q int, t Time, v int) { qs[q].At(t, v) }
	}
	// when is a time on a coarse grid, so that many tie, and one in
	// four is absolute and often already past.
	when := func() Time {
		if rng.Intn(4) == 0 {
			return Time(rng.Intn(12)) * Time(time.Millisecond)
		}
		return e.Now() + Time(rng.Intn(4))*Time(time.Millisecond)
	}
	act = func(depth int) {
		for k := rng.Intn(3); k > 0 && budget > 0 && depth < 4; k-- {
			budget--
			if rng.Intn(4) == 0 {
				id := budget
				e.At(when(), func() {
					log = append(log, fmt.Sprintf("at:%d@%v", id, e.Now()))
					act(depth + 1)
				})
				continue
			}
			send(rng.Intn(3), when(), budget)
		}
	}
	for budget > 300 {
		act(0)
	}
	e.RunUntil(Time(6 * time.Millisecond))
	log = append(log, "until")
	for budget > 0 && rng.Intn(8) != 0 {
		act(0)
	}
	e.Run()
	return log, e.Processed()
}

// A queue hands its values over in exactly the order, and at exactly the
// times, that one closure per message would run, and the engine runs
// the same number of events.
func TestQueueMatchesClosures(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		want, wantN := queueScript(seed, true)
		got, gotN := queueScript(seed, false)
		if gotN != wantN || !slices.Equal(got, want) {
			i := 0
			for i < min(len(got), len(want)) && got[i] == want[i] {
				i++
			}
			t.Fatalf("seed %d: %d events, %d handled; closures ran %d, %d handled; first difference at %d:\n got %v\nwant %v",
				seed, gotN, len(got), wantN, len(want), i, got[i:min(i+3, len(got))], want[i:min(i+3, len(want))])
		}
		if wantN < 100 || !slices.Contains(want, "until") {
			t.Fatalf("seed %d ran only %d events", seed, wantN)
		}
	}
}

// The head check: an event of the queue's that runs before the head is
// due means the inbox and the engine are out of step, and panics.
func TestQueueOutOfStepPanics(t *testing.T) {
	e := NewEngine(1)
	q := NewQueue(e, func(int) {})
	q.At(Time(5*time.Millisecond), 1)
	e.At(Time(time.Millisecond), q.fire) // a stray event of the queue's
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "due at 5ms") || !strings.Contains(msg, "runs at 1ms") {
			t.Fatalf("recovered %q, want the out-of-step panic", msg)
		}
	}()
	e.Run()
}

// Filing a value and running its event allocate nothing once the
// inbox and the event heap have grown.
func TestQueueAllocs(t *testing.T) {
	e := NewEngine(1)
	handled := 0
	q := NewQueue(e, func(v int) { handled += v })
	for i := 0; i < 64; i++ { // steady-state depth, some out of order
		q.At(Time(i^3), 1)
	}
	next := Time(64)
	allocs := testing.AllocsPerRun(1000, func() {
		q.At(next^3, 1)
		next++
		e.step(math.MaxInt64)
	})
	if allocs != 0 {
		t.Fatalf("At + its run allocated %v objects per value, want 0", allocs)
	}
	if handled != 1001 {
		t.Fatalf("%d values handled, want 1001", handled)
	}
}
