package sim

import "fmt"

// Queue is one receiver's inbox of timed values. At files a value under
// the time it is due and schedules the queue's one callback, bound when
// the queue is built, where Engine.At would schedule a closure per
// message; so a message costs no allocation once the inbox has grown,
// and keeps the (time, seq) place in the run its closure had. The inbox
// is a heap keyed by that same (time, seq), so its head is always the
// value whose event is running, and that event hands it to the handler.
// It is a heap, like the engine's, because jittered arrivals file out of
// order: sorting a burst of k of them into a list would cost O(k) each.
type Queue[T any] struct {
	eng    *Engine
	handle func(T)
	fire   func() // q.pop, bound once
	heap   keyHeap[T]
}

// NewQueue returns an empty inbox on e whose values go to handle.
func NewQueue[T any](e *Engine, handle func(T)) *Queue[T] {
	q := &Queue[T]{eng: e, handle: handle}
	q.fire = q.pop
	return q
}

// At files v to be handled at t. Like Engine.At, a time in the past is
// treated as "now".
func (q *Queue[T]) At(t Time, v T) {
	q.eng.At(t, q.fire)
	q.heap.push(entry[T]{key{max(t, q.eng.now), q.eng.seq}, v}) // q.fire's key
}

// pop hands the head to the handler. It runs as the head's own event,
// so the head is due now; anything else means the inbox and the engine
// have fallen out of step.
func (q *Queue[T]) pop() {
	if at := q.heap[0].at; at != q.eng.now {
		panic(fmt.Sprintf("sim: queue head is due at %v, but its event runs at %v", at, q.eng.now))
	}
	q.handle(q.heap.pop().v)
}
