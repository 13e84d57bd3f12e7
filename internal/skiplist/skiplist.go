// Package skiplist implements an ordered in-memory key/value map with
// O(log n) expected search, insert and delete, plus forward iterators
// and half-open range scans.
//
// It is the index of the simulated state database: Hyperledger
// Fabric's default embedded store (LevelDB) keeps its working set in
// exactly this kind of sorted structure, and range queries (the source
// of phantom read conflicts in the paper) map to iterator scans here.
// The list is generic over its value so the database can store typed
// entries instead of encoded bytes.
//
// The list is not safe for concurrent use; in the discrete-event
// simulation every peer owns its replica and all events run on one
// goroutine.
package skiplist

import "math/rand"

const (
	maxHeight = 18
	// pBranch is the probability of promoting a node one level.
	pBranchDenom = 4
)

type node[V any] struct {
	key   string
	value V
	next  []*node[V]
}

// List is an ordered string→V map. Construct with New.
type List[V any] struct {
	head   *node[V]
	height int
	length int
	rng    *rand.Rand
}

// New returns an empty list. The seed fixes tower heights so that runs
// are deterministic.
func New[V any](seed int64) *List[V] {
	return &List[V]{
		head:   &node[V]{next: make([]*node[V], maxHeight)},
		height: 1,
		rng:    rand.New(rand.NewSource(seed)),
	}
}

// Len reports the number of keys stored.
func (l *List[V]) Len() int { return l.length }

func (l *List[V]) randomHeight() int {
	h := 1
	for h < maxHeight && l.rng.Intn(pBranchDenom) == 0 {
		h++
	}
	return h
}

// findGreaterOrEqual returns the first node with node.key >= key, and
// fills prev with the rightmost node before that position on every
// level (used for insert/delete splicing).
func (l *List[V]) findGreaterOrEqual(key string, prev []*node[V]) *node[V] {
	x := l.head
	for level := l.height - 1; level >= 0; level-- {
		for x.next[level] != nil && x.next[level].key < key {
			x = x.next[level]
		}
		if prev != nil {
			prev[level] = x
		}
	}
	return x.next[0]
}

// Get returns the value stored under key. The boolean reports whether
// the key was present. A returned slice or pointer must not be
// modified: values are shared between clones.
func (l *List[V]) Get(key string) (V, bool) {
	n := l.findGreaterOrEqual(key, nil)
	if n != nil && n.key == key {
		return n.value, true
	}
	var zero V
	return zero, false
}

// Has reports whether key is present.
func (l *List[V]) Has(key string) bool {
	_, ok := l.Get(key)
	return ok
}

// Put stores value under key, replacing any previous value.
func (l *List[V]) Put(key string, value V) {
	prev := make([]*node[V], maxHeight)
	n := l.findGreaterOrEqual(key, prev)
	if n != nil && n.key == key {
		n.value = value
		return
	}
	h := l.randomHeight()
	if h > l.height {
		for level := l.height; level < h; level++ {
			prev[level] = l.head
		}
		l.height = h
	}
	nn := &node[V]{key: key, value: value, next: make([]*node[V], h)}
	for level := 0; level < h; level++ {
		nn.next[level] = prev[level].next[level]
		prev[level].next[level] = nn
	}
	l.length++
}

// Delete removes key and reports whether it was present.
func (l *List[V]) Delete(key string) bool {
	prev := make([]*node[V], maxHeight)
	n := l.findGreaterOrEqual(key, prev)
	if n == nil || n.key != key {
		return false
	}
	for level := 0; level < len(n.next); level++ {
		if prev[level].next[level] == n {
			prev[level].next[level] = n.next[level]
		}
	}
	for l.height > 1 && l.head.next[l.height-1] == nil {
		l.height--
	}
	l.length--
	return true
}

// Iterator walks keys in ascending order. Use Valid/Next/Key/Value.
type Iterator[V any] struct {
	n   *node[V]
	end string // exclusive bound; empty means unbounded
}

// Valid reports whether the iterator is positioned on an entry.
func (it *Iterator[V]) Valid() bool {
	if it.n == nil {
		return false
	}
	return it.end == "" || it.n.key < it.end
}

// Next advances to the following entry.
func (it *Iterator[V]) Next() {
	if it.n != nil {
		it.n = it.n.next[0]
	}
}

// Key returns the current key. Only valid while Valid() is true.
func (it *Iterator[V]) Key() string { return it.n.key }

// Value returns the current value. Only valid while Valid() is true.
func (it *Iterator[V]) Value() V { return it.n.value }

// Iter returns an iterator over all entries in ascending key order.
func (l *List[V]) Iter() *Iterator[V] {
	return &Iterator[V]{n: l.head.next[0]}
}

// Range returns an iterator over the half-open interval [start, end).
// An empty start begins at the first key; an empty end is unbounded.
// This is the primitive behind Fabric's GetStateByRange.
func (l *List[V]) Range(start, end string) *Iterator[V] {
	var first *node[V]
	if start == "" {
		first = l.head.next[0]
	} else {
		first = l.findGreaterOrEqual(start, nil)
	}
	return &Iterator[V]{n: first, end: end}
}

// Keys returns all keys in ascending order. Intended for tests and
// post-run analysis, not the hot path.
func (l *List[V]) Keys() []string {
	out := make([]string, 0, l.length)
	for it := l.Iter(); it.Valid(); it.Next() {
		out = append(out, it.Key())
	}
	return out
}

// Clone returns a deep copy of the list structure (values are shared,
// which is safe because values are treated as immutable). The copy is
// the list Put would build from the keys in ascending order — the same
// towers from the same randomHeight draws — in linear time: each key is
// new and larger than every key before it, so its predecessor on every
// level is that level's tail, and no search is needed.
func (l *List[V]) Clone(seed int64) *List[V] {
	c := New[V](seed)
	var tail [maxHeight]*node[V]
	for level := range tail {
		tail[level] = c.head
	}
	for x := l.head.next[0]; x != nil; x = x.next[0] {
		h := c.randomHeight()
		c.height = max(c.height, h)
		nn := &node[V]{key: x.key, value: x.value, next: make([]*node[V], h)}
		for level := 0; level < h; level++ {
			tail[level].next[level] = nn
			tail[level] = nn
		}
	}
	c.length = l.length
	return c
}
