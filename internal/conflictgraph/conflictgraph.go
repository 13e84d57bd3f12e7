// Package conflictgraph provides the dependency-graph machinery behind
// the Fabric++ reimplementation (internal/fabricpp): building the
// within-block conflict graph from read/write sets, Tarjan strongly
// connected components, a greedy approximation of the minimum feedback
// vertex set (cycle removal — the MFVS problem is NP-hard, §5.2.3),
// and deterministic topological serialization.
package conflictgraph

import (
	"sort"

	"repro/internal/ledger"
)

// Graph is a directed graph over transaction indices 0..N-1.
type Graph struct {
	n   int
	adj [][]int
}

// NewGraph returns an empty graph over n nodes.
func NewGraph(n int) *Graph {
	return &Graph{n: n, adj: make([][]int, n)}
}

// N returns the node count.
func (g *Graph) N() int { return g.n }

// AddEdge inserts the directed edge u -> v (u must precede v).
func (g *Graph) AddEdge(u, v int) {
	if u == v {
		return
	}
	g.adj[u] = append(g.adj[u], v)
}

// Succ returns u's successors.
func (g *Graph) Succ(u int) []int { return g.adj[u] }

// Edges counts directed edges.
func (g *Graph) Edges() int {
	n := 0
	for _, a := range g.adj {
		n += len(a)
	}
	return n
}

// BuildResult is a block's conflict graph and the work that built it.
type BuildResult struct {
	Graph *Graph
	// Lookups is the number of write-set probes performed while
	// building Graph: one per read key plus one per written key inside
	// a checked range. It is Fabric++'s dominant reordering cost, used
	// by the cost model to price the ordering phase (large range reads
	// make it explode, §5.2.3).
	Lookups int
}

// Build constructs the within-block conflict graph: an edge Ti -> Tj
// means Ti must be ordered before Tj. Fabric validates a block's
// transactions against the pre-block state plus earlier in-block
// writes, so a transaction that reads key k must precede any
// transaction that writes k — edge reader -> writer. Unchecked (rich
// query) range observations create no constraints. Every successor
// list is filled in a fixed order, so equal blocks give equal graphs.
func Build(rwsets []*ledger.RWSet) BuildResult {
	g := NewGraph(len(rwsets))
	writers := map[string][]int{}
	for i, rw := range rwsets {
		for _, w := range rw.Writes {
			writers[w.Key] = append(writers[w.Key], i)
		}
	}
	var keys []string // written keys, sorted on the first checked range
	lookups := 0
	addReaderEdges := func(i int, key string) {
		lookups++
		for _, j := range writers[key] {
			g.AddEdge(i, j) // drops i's own write
		}
	}
	for i, rw := range rwsets {
		for _, r := range rw.Reads {
			addReaderEdges(i, r.Key)
		}
		for _, rq := range rw.RangeQueries {
			if rq.Unchecked {
				continue
			}
			for _, r := range rq.Reads {
				addReaderEdges(i, r.Key)
			}
			// Writers inserting into the scanned interval
			// [StartKey, EndKey) would change the phantom
			// re-execution, so the scanner must also precede them.
			if keys == nil {
				keys = make([]string, 0, len(writers))
				for k := range writers {
					keys = append(keys, k)
				}
				sort.Strings(keys)
			}
			lo, hi := sort.SearchStrings(keys, rq.StartKey), len(keys)
			if rq.EndKey != "" {
				hi = max(lo, sort.SearchStrings(keys, rq.EndKey))
			}
			for _, key := range keys[lo:hi] {
				addReaderEdges(i, key)
			}
		}
	}
	return BuildResult{Graph: g, Lookups: lookups}
}

// SCCs returns the strongly connected components in reverse
// topological order (Tarjan). The result is deterministic: each
// component is sorted, and the component order follows from the
// successor lists alone, which Build fills in a fixed order.
func (g *Graph) SCCs() [][]int {
	index := make([]int, g.n)
	low := make([]int, g.n)
	onStack := make([]bool, g.n)
	for i := range index {
		index[i] = -1
	}
	var stack []int
	var out [][]int
	next := 0
	// Iterative Tarjan to survive large blocks without stack overflow.
	type frame struct {
		v, ei int
	}
	for start := 0; start < g.n; start++ {
		if index[start] != -1 {
			continue
		}
		frames := []frame{{v: start}}
		index[start], low[start] = next, next
		next++
		stack = append(stack, start)
		onStack[start] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.ei < len(g.adj[f.v]) {
				w := g.adj[f.v][f.ei]
				f.ei++
				if index[w] == -1 {
					index[w], low[w] = next, next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{v: w})
				} else if onStack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
				continue
			}
			// post-visit
			v := f.v
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := frames[len(frames)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] == index[v] {
				var comp []int
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp = append(comp, w)
					if w == v {
						break
					}
				}
				sort.Ints(comp)
				out = append(out, comp)
			}
		}
	}
	return out
}

// BreakCycles removes nodes until the graph is acyclic, using the
// greedy MFVS approximation Fabric++ describes: within every strongly
// connected component of size > 1, repeatedly drop the node with the
// highest degree among the component's surviving nodes (duplicate
// edges counted, ties to the lowest index) until Kahn's algorithm
// drains what is left. Returns the removed node set (aborted
// transactions), sorted.
func (g *Graph) BreakCycles() []int {
	var aborted, queue []int
	live := make([]bool, g.n)
	deg := make([]int, g.n)   // in+out degree among live nodes
	indeg := make([]int, g.n) // Kahn's remaining in-degree
	for _, comp := range g.SCCs() {
		if len(comp) == 1 {
			continue // AddEdge stores no self-loop
		}
		for _, v := range comp {
			live[v] = true
		}
		for alive := len(comp); ; alive-- {
			for _, v := range comp {
				deg[v], indeg[v] = 0, 0
			}
			for _, v := range comp {
				if !live[v] {
					continue
				}
				for _, w := range g.adj[v] {
					if live[w] {
						deg[v]++
						deg[w]++
						indeg[w]++
					}
				}
			}
			queue = queue[:0]
			for _, v := range comp {
				if live[v] && indeg[v] == 0 {
					queue = append(queue, v)
				}
			}
			for h := 0; h < len(queue); h++ {
				for _, w := range g.adj[queue[h]] {
					if live[w] {
						if indeg[w]--; indeg[w] == 0 {
							queue = append(queue, w)
						}
					}
				}
			}
			if len(queue) == alive {
				break
			}
			best := -1
			for _, v := range comp {
				if live[v] && (best < 0 || deg[v] > deg[best]) {
					best = v
				}
			}
			live[best] = false
			aborted = append(aborted, best)
		}
		for _, v := range comp {
			live[v] = false
		}
	}
	sort.Ints(aborted)
	return aborted
}

// TopoOrder returns a deterministic topological order of the graph
// with the given nodes removed. It must only be called once the
// remaining graph is acyclic (after BreakCycles); it panics otherwise.
// Ties are broken by original index, so the serialization is stable.
func (g *Graph) TopoOrder(removed []int) []int {
	gone := make([]bool, g.n)
	want := g.n // nodes left to serialize
	for _, v := range removed {
		if !gone[v] {
			gone[v] = true
			want--
		}
	}
	indeg := make([]int, g.n)
	for u := 0; u < g.n; u++ {
		if gone[u] {
			continue
		}
		for _, v := range g.adj[u] {
			if !gone[v] {
				indeg[v]++
			}
		}
	}
	// Min-heap by index for stability; a sorted slice suffices here.
	var ready []int
	for v := 0; v < g.n; v++ {
		if !gone[v] && indeg[v] == 0 {
			ready = append(ready, v)
		}
	}
	var order []int
	for len(ready) > 0 {
		sort.Ints(ready)
		v := ready[0]
		ready = ready[1:]
		order = append(order, v)
		for _, w := range g.adj[v] {
			if gone[w] {
				continue
			}
			indeg[w]--
			if indeg[w] == 0 {
				ready = append(ready, w)
			}
		}
	}
	if len(order) != want {
		panic("conflictgraph: TopoOrder called on a cyclic graph")
	}
	return order
}
