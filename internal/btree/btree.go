// Package btree implements an ordered in-memory string→V map as a
// B-tree, with point lookups, inserts and deletes in O(log n) and
// forward iterators over half-open key ranges.
//
// It is the index of the simulated state database: range queries (the
// source of phantom read conflicts in the paper) are iterator scans
// here. A node keeps up to 31 items in one sorted slice, so a lookup
// binary-searches a few contiguous arrays instead of chasing a pointer
// per key, and a clone copies one slice per node.
//
// A tree is not safe for concurrent use; in the discrete-event
// simulation a channel's peers read one index and all events run on
// one goroutine.
package btree

const (
	// degree is the minimum branching factor: a node other than the
	// root holds between degree-1 and 2*degree-1 items.
	degree   = 16
	maxItems = 2*degree - 1
	minItems = degree - 1
	// maxDepth bounds the height of any tree an iterator walks: with at
	// least degree children per inner node, 12 levels hold more than
	// 2^40 keys.
	maxDepth = 12
)

type item[V any] struct {
	key   string
	value V
}

// node is a leaf when children is nil; otherwise it has exactly
// len(items)+1 children, and children[i] holds the keys between
// items[i-1] and items[i].
type node[V any] struct {
	items    []item[V]
	children []*node[V]
}

// search returns the index of the first item whose key is >= key, and
// whether that item's key is key.
func (n *node[V]) search(key string) (int, bool) {
	lo, hi := 0, len(n.items)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if n.items[m].key < key {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(n.items) && n.items[lo].key == key
}

// Tree is an ordered string→V map. Construct with New.
type Tree[V any] struct {
	root   *node[V]
	length int
}

// New returns an empty tree.
func New[V any]() *Tree[V] {
	return &Tree[V]{root: &node[V]{}}
}

// Len reports the number of keys stored.
func (t *Tree[V]) Len() int { return t.length }

// Get returns the value stored under key. The boolean reports whether
// the key was present. A returned slice or pointer must not be
// modified: values are shared between clones.
func (t *Tree[V]) Get(key string) (V, bool) {
	n := t.root
	for {
		i, found := n.search(key)
		if found {
			return n.items[i].value, true
		}
		if n.children == nil {
			var zero V
			return zero, false
		}
		n = n.children[i]
	}
}

// Put stores value under key, replacing any previous value. Replacing
// a value changes no node's shape.
func (t *Tree[V]) Put(key string, value V) {
	mid, right, added := t.root.put(key, value)
	if added {
		t.length++
	}
	if right != nil {
		t.root = &node[V]{items: []item[V]{mid}, children: []*node[V]{t.root, right}}
	}
}

// put inserts into the subtree at n. If n overflowed it is split: n
// keeps the lower half, and the median item and the new upper node
// are returned for the parent to adopt.
func (n *node[V]) put(key string, value V) (mid item[V], right *node[V], added bool) {
	i, found := n.search(key)
	if found {
		n.items[i].value = value
		return mid, nil, false
	}
	if n.children == nil {
		n.items = insertAt(n.items, i, item[V]{key, value})
	} else {
		m, r, added := n.children[i].put(key, value)
		if r == nil {
			return mid, nil, added
		}
		n.items = insertAt(n.items, i, m)
		n.children = insertAt(n.children, i+1, r)
	}
	if len(n.items) > maxItems {
		mid, right = n.split()
	}
	return mid, right, true
}

// split moves the upper half of an overfull node into a new node.
// The new node gets its own arrays, so an append to either half
// never writes into the other.
func (n *node[V]) split() (item[V], *node[V]) {
	h := len(n.items) / 2
	mid := n.items[h]
	right := &node[V]{items: append(make([]item[V], 0, maxItems+1), n.items[h+1:]...)}
	clear(n.items[h:])
	n.items = n.items[:h]
	if n.children != nil {
		right.children = append(make([]*node[V], 0, maxItems+2), n.children[h+1:]...)
		clear(n.children[h+1:])
		n.children = n.children[:h+1]
	}
	return mid, right
}

// Delete removes key and reports whether it was present.
func (t *Tree[V]) Delete(key string) bool {
	if !t.root.delete(key) {
		return false
	}
	t.length--
	if len(t.root.items) == 0 && t.root.children != nil {
		t.root = t.root.children[0]
	}
	return true
}

// delete removes key from the subtree at n, which may leave n one item
// short of minItems; the caller rebalances it.
func (n *node[V]) delete(key string) bool {
	i, found := n.search(key)
	if n.children == nil {
		if found {
			n.items = removeAt(n.items, i)
		}
		return found
	}
	if found {
		n.items[i] = n.children[i].popMax()
	} else if !n.children[i].delete(key) {
		return false
	}
	n.rebalance(i)
	return true
}

// popMax removes and returns the largest item of the subtree at n.
func (n *node[V]) popMax() item[V] {
	if n.children == nil {
		last := n.items[len(n.items)-1]
		n.items = removeAt(n.items, len(n.items)-1)
		return last
	}
	i := len(n.children) - 1
	last := n.children[i].popMax()
	n.rebalance(i)
	return last
}

// rebalance restores minItems in children[i] after a deletion below
// it: borrow one item through the separator from a sibling that can
// spare one, or else merge the child with a sibling and the separator
// between them.
func (n *node[V]) rebalance(i int) {
	c := n.children[i]
	if len(c.items) >= minItems {
		return
	}
	if i > 0 && len(n.children[i-1].items) > minItems {
		left := n.children[i-1]
		c.items = insertAt(c.items, 0, n.items[i-1])
		n.items[i-1] = left.items[len(left.items)-1]
		left.items = removeAt(left.items, len(left.items)-1)
		if c.children != nil {
			c.children = insertAt(c.children, 0, left.children[len(left.children)-1])
			left.children = removeAt(left.children, len(left.children)-1)
		}
		return
	}
	if i < len(n.items) && len(n.children[i+1].items) > minItems {
		right := n.children[i+1]
		c.items = append(c.items, n.items[i])
		n.items[i] = right.items[0]
		right.items = removeAt(right.items, 0)
		if c.children != nil {
			c.children = append(c.children, right.children[0])
			right.children = removeAt(right.children, 0)
		}
		return
	}
	if i == len(n.items) {
		i--
	}
	left, right := n.children[i], n.children[i+1]
	left.items = append(append(left.items, n.items[i]), right.items...)
	left.children = append(left.children, right.children...)
	n.items = removeAt(n.items, i)
	n.children = removeAt(n.children, i+1)
}

// insertAt inserts v at index i, growing s by one.
func insertAt[T any](s []T, i int, v T) []T {
	var zero T
	s = append(s, zero)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// removeAt removes index i, clearing the vacated last slot so the
// array keeps no reference to what it held.
func removeAt[T any](s []T, i int) []T {
	copy(s[i:], s[i+1:])
	var zero T
	s[len(s)-1] = zero
	return s[:len(s)-1]
}

// Clone returns a copy of the tree structure (values are shared, which
// is safe because values are treated as immutable). Every node is
// copied at exact length; the first insert into one reallocates it.
func (t *Tree[V]) Clone() *Tree[V] {
	return &Tree[V]{root: t.root.clone(), length: t.length}
}

func (n *node[V]) clone() *node[V] {
	c := &node[V]{items: make([]item[V], len(n.items))}
	copy(c.items, n.items)
	if n.children != nil {
		c.children = make([]*node[V], len(n.children))
		for i, child := range n.children {
			c.children[i] = child.clone()
		}
	}
	return c
}

// Build returns a tree that maps keys[i] to values[i], built bottom-up
// without a search or a split. The keys must strictly ascend. The
// leaves are as few as hold the items, and each level above groups the
// one below into as few nodes as maxItems allows, with the sizes spread
// evenly, so every node but the root is between full and a little over
// half full: at least minItems. Like Clone, it gives every node arrays
// of exactly its length.
func Build[V any](keys []string, values []V) *Tree[V] {
	n := len(keys)
	// l leaves hold n-(l-1) items; the other l-1 separate them above.
	l := (n + maxItems + 1) / (maxItems + 1)
	nodes := make([]*node[V], l)
	seps := make([]item[V], l-1)
	for j, i := 0, 0; j < l; j++ {
		leaf := &node[V]{items: make([]item[V], share(n-(l-1), l, j))}
		for x := range leaf.items {
			leaf.items[x] = item[V]{keys[i], values[i]}
			i++
		}
		nodes[j] = leaf
		if j < l-1 {
			seps[j] = item[V]{keys[i], values[i]}
			i++
		}
	}
	// Each pass groups the m nodes of a level under as few parents as
	// take at most maxItems+1 children each. A parent is written over
	// a slot whose nodes it has already copied, so a level replaces the
	// one below in place.
	for m := l; m > 1; {
		parents := (m + maxItems) / (maxItems + 1)
		for p, c := 0, 0; p < parents; p++ {
			k := share(m, parents, p)
			parent := &node[V]{items: make([]item[V], k-1), children: make([]*node[V], k)}
			copy(parent.items, seps[c:c+k-1])
			copy(parent.children, nodes[c:c+k])
			c += k
			nodes[p] = parent
			if p < parents-1 {
				seps[p] = seps[c-1]
			}
		}
		m = parents
	}
	return &Tree[V]{root: nodes[0], length: n}
}

// share is the size of part j when total is split into parts as even
// as can be, the larger ones first.
func share(total, parts, j int) int {
	s := total / parts
	if j < total%parts {
		s++
	}
	return s
}

// frame is one level of an iterator's path: the item it is on, in the
// innermost frame, or else the child it descended into, which is the
// item it returns to.
type frame[V any] struct {
	n *node[V]
	i int
}

// Iterator walks keys in ascending order. Use Valid/Next/Key/Value.
// It is a value with its path inline, so walking a range allocates
// nothing; it is invalidated by any change to the tree.
type Iterator[V any] struct {
	path  [maxDepth]frame[V]
	depth int
	end   string // exclusive bound; empty means unbounded
}

// Iter returns an iterator over all entries in ascending key order.
func (t *Tree[V]) Iter() Iterator[V] { return t.Range("", "") }

// Range returns an iterator over the half-open interval [start, end).
// An empty start begins at the first key; an empty end is unbounded.
// This is the primitive behind Fabric's GetStateByRange.
func (t *Tree[V]) Range(start, end string) Iterator[V] {
	it := Iterator[V]{end: end}
	n := t.root
	for {
		i, found := n.search(start)
		it.path[it.depth] = frame[V]{n, i}
		it.depth++
		if found || n.children == nil {
			break
		}
		n = n.children[i]
	}
	it.climb()
	return it
}

// climb pops the frames that have run past their node's last item, so
// that the innermost frame is on an item or the walk is done.
func (it *Iterator[V]) climb() {
	for it.depth > 0 {
		f := &it.path[it.depth-1]
		if f.i < len(f.n.items) {
			return
		}
		it.depth--
	}
}

// Valid reports whether the iterator is positioned on an entry.
func (it *Iterator[V]) Valid() bool {
	return it.depth > 0 && (it.end == "" || it.Key() < it.end)
}

// Next advances to the following entry: the leftmost key of the
// subtree right of the current item, or else the next item up the path.
func (it *Iterator[V]) Next() {
	if it.depth == 0 {
		return
	}
	f := &it.path[it.depth-1]
	f.i++
	if f.n.children == nil {
		it.climb()
		return
	}
	for n := f.n.children[f.i]; ; n = n.children[0] {
		it.path[it.depth] = frame[V]{n, 0}
		it.depth++
		if n.children == nil {
			return
		}
	}
}

// Key returns the current key. Only valid while Valid() is true.
func (it *Iterator[V]) Key() string {
	f := &it.path[it.depth-1]
	return f.n.items[f.i].key
}

// Value returns the current value. Only valid while Valid() is true.
func (it *Iterator[V]) Value() V {
	f := &it.path[it.depth-1]
	return f.n.items[f.i].value
}

// Keys returns all keys in ascending order. Intended for tests and
// post-run analysis, not the hot path.
func (t *Tree[V]) Keys() []string {
	out := make([]string, 0, t.length)
	for it := t.Iter(); it.Valid(); it.Next() {
		out = append(out, it.Key())
	}
	return out
}
