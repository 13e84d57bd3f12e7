package conflictgraph

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/ledger"
)

func rw(reads []string, writes []string) *ledger.RWSet {
	s := &ledger.RWSet{}
	for _, k := range reads {
		s.Reads = append(s.Reads, ledger.KVRead{Key: k})
	}
	for _, k := range writes {
		s.Writes = append(s.Writes, ledger.KVWrite{Key: k})
	}
	return s
}

func TestBuildReaderBeforeWriter(t *testing.T) {
	// T0 reads a; T1 writes a  =>  edge 0 -> 1.
	res := Build([]*ledger.RWSet{
		rw([]string{"a"}, nil),
		rw(nil, []string{"a"}),
	})
	g := res.Graph
	if g.Edges() != 1 || len(g.Succ(0)) != 1 || g.Succ(0)[0] != 1 {
		t.Fatalf("edges wrong: %+v", g.adj)
	}
	if res.Lookups == 0 {
		t.Error("lookups not counted")
	}
}

func TestBuildRangeConstraint(t *testing.T) {
	// T0 scans [k1,k5); T1 writes k3 (inside), T2 writes k9 (outside).
	scan := &ledger.RWSet{RangeQueries: []ledger.RangeQueryInfo{{
		StartKey: "k1", EndKey: "k5",
		Reads: []ledger.KVRead{{Key: "k2"}},
	}}}
	res := Build([]*ledger.RWSet{
		scan,
		rw(nil, []string{"k3"}),
		rw(nil, []string{"k9"}),
	})
	succ := res.Graph.Succ(0)
	if len(succ) != 1 || succ[0] != 1 {
		t.Fatalf("scan edges = %v, want [1]", succ)
	}
}

func TestUncheckedRangeNoConstraint(t *testing.T) {
	scan := &ledger.RWSet{RangeQueries: []ledger.RangeQueryInfo{{
		StartKey: "a", EndKey: "z", Unchecked: true,
		Reads: []ledger.KVRead{{Key: "m"}},
	}}}
	res := Build([]*ledger.RWSet{scan, rw(nil, []string{"m"})})
	if res.Graph.Edges() != 0 {
		t.Fatal("unchecked range produced constraints")
	}
}

func TestRMWPairIsCycle(t *testing.T) {
	// Two read-modify-writes of the same key form a 2-cycle.
	res := Build([]*ledger.RWSet{
		rw([]string{"a"}, []string{"a"}),
		rw([]string{"a"}, []string{"a"}),
	})
	aborted := res.Graph.BreakCycles()
	if len(aborted) != 1 {
		t.Fatalf("aborted = %v, want exactly one", aborted)
	}
	order := res.Graph.TopoOrder(aborted)
	if len(order) != 1 {
		t.Fatalf("order = %v", order)
	}
}

func TestDisjointTxsNoCycles(t *testing.T) {
	var sets []*ledger.RWSet
	for i := 0; i < 10; i++ {
		k := fmt.Sprintf("k%d", i)
		sets = append(sets, rw([]string{k}, []string{k}))
	}
	res := Build(sets)
	if got := res.Graph.BreakCycles(); len(got) != 0 {
		t.Fatalf("disjoint txs aborted: %v", got)
	}
	if order := res.Graph.TopoOrder(nil); len(order) != 10 {
		t.Fatalf("order = %v", order)
	}
}

func TestReorderableChainKept(t *testing.T) {
	// T0 reads a; T1 writes a; T2 reads b; T3 writes b. No cycles:
	// everyone survives, readers ordered before writers.
	res := Build([]*ledger.RWSet{
		rw([]string{"a"}, nil),
		rw(nil, []string{"a"}),
		rw([]string{"b"}, nil),
		rw(nil, []string{"b"}),
	})
	if ab := res.Graph.BreakCycles(); len(ab) != 0 {
		t.Fatalf("aborted %v from an acyclic graph", ab)
	}
	order := res.Graph.TopoOrder(nil)
	pos := map[int]int{}
	for i, v := range order {
		pos[v] = i
	}
	if pos[0] > pos[1] || pos[2] > pos[3] {
		t.Fatalf("order %v violates reader-before-writer", order)
	}
}

func TestSCCsFindCycle(t *testing.T) {
	g := NewGraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 0)
	g.AddEdge(2, 3)
	comps := g.SCCs()
	var big []int
	for _, c := range comps {
		if len(c) > 1 {
			big = c
		}
	}
	if len(big) != 3 || big[0] != 0 || big[2] != 2 {
		t.Fatalf("SCCs = %v", comps)
	}
}

func TestTopoOrderPanicsOnCycle(t *testing.T) {
	g := NewGraph(2)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("TopoOrder on a cycle did not panic")
		}
	}()
	g.TopoOrder(nil)
}

func TestSelfLoopIgnoredByAddEdge(t *testing.T) {
	g := NewGraph(1)
	g.AddEdge(0, 0)
	if g.Edges() != 0 {
		t.Fatal("self edge stored")
	}
}

// Property: after BreakCycles, TopoOrder succeeds (graph acyclic) and
// respects every remaining edge.
func TestBreakCyclesProperty(t *testing.T) {
	f := func(edges []struct{ U, V uint8 }) bool {
		const n = 12
		g := NewGraph(n)
		for _, e := range edges {
			g.AddEdge(int(e.U)%n, int(e.V)%n)
		}
		aborted := g.BreakCycles()
		gone := map[int]bool{}
		for _, v := range aborted {
			gone[v] = true
		}
		order := g.TopoOrder(aborted) // panics -> quick reports failure
		pos := map[int]int{}
		for i, v := range order {
			pos[v] = i
		}
		for u := 0; u < n; u++ {
			if gone[u] {
				continue
			}
			for _, v := range g.Succ(u) {
				if gone[v] || v == u {
					continue
				}
				if pos[u] > pos[v] {
					return false
				}
			}
		}
		return len(order)+len(aborted) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(41))}); err != nil {
		t.Error(err)
	}
}

// Property: Build lookups grows with read-set size (the Fabric++ cost
// driver).
func TestLookupsScaleWithReads(t *testing.T) {
	mk := func(reads int) int {
		var sets []*ledger.RWSet
		for i := 0; i < 20; i++ {
			var rs []string
			for j := 0; j < reads; j++ {
				rs = append(rs, fmt.Sprintf("k%d", j))
			}
			sets = append(sets, rw(rs, []string{fmt.Sprintf("w%d", i)}))
		}
		return Build(sets).Lookups
	}
	small, large := mk(2), mk(100)
	if large <= small {
		t.Errorf("lookups small=%d large=%d, want growth", small, large)
	}
}

// block100 is the fixed 100-transaction block of the benchmark and the
// allocation pin: one read and one write each over 50 keys.
func block100() []*ledger.RWSet {
	rng := rand.New(rand.NewSource(1))
	var sets []*ledger.RWSet
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("k%d", rng.Intn(50))
		k2 := fmt.Sprintf("k%d", rng.Intn(50))
		sets = append(sets, rw([]string{k}, []string{k2}))
	}
	return sets
}

func buildAndBreak(sets []*ledger.RWSet) {
	res := Build(sets)
	ab := res.Graph.BreakCycles()
	res.Graph.TopoOrder(ab)
}

func BenchmarkBuildAndBreak100Txs(b *testing.B) {
	sets := block100()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buildAndBreak(sets)
	}
}

// raceDetector is set by race_test.go, which only -race builds.
var raceDetector bool

// TestBuildAndBreakAllocs pins the objects one ordering pass over the
// benchmark block allocates: the writer index, successor lists, Tarjan's
// components and the cycle breaker's scratch slices, allocated once per
// call rather than once per removed node.
func TestBuildAndBreakAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector allocates on its own account")
	}
	sets := block100()
	got := testing.AllocsPerRun(20, func() { buildAndBreak(sets) })
	if got > 435 {
		t.Errorf("%.0f allocations per block, want <= 435", got)
	}
	t.Logf("%.0f allocations per block", got)
}

// randomBlock draws a block of 1-200 transactions over a key space
// small enough to collide: point reads and writes with repeated keys,
// and checked and unchecked range scans whose EndKey is open, past
// StartKey, between two keys, or at or before StartKey.
func randomBlock(rng *rand.Rand) []*ledger.RWSet {
	space := 1 + rng.Intn(400)
	key := func() string { return fmt.Sprintf("k%03d", rng.Intn(space)) }
	sets := make([]*ledger.RWSet, 1+rng.Intn(200))
	for i := range sets {
		s := &ledger.RWSet{}
		for j := rng.Intn(4); j > 0; j-- {
			s.Reads = append(s.Reads, ledger.KVRead{Key: key()})
		}
		for j := rng.Intn(3); j > 0; j-- {
			s.Writes = append(s.Writes, ledger.KVWrite{Key: key()})
		}
		if rng.Intn(6) == 0 {
			rq := ledger.RangeQueryInfo{StartKey: key(), Unchecked: rng.Intn(4) == 0}
			if rng.Intn(10) == 0 {
				rq.StartKey = ""
			}
			switch rng.Intn(3) {
			case 1:
				rq.EndKey = key() // may be at or before StartKey
			case 2:
				rq.EndKey = key() + "~" // between two keys
			}
			for j := rng.Intn(3); j > 0; j-- {
				rq.Reads = append(rq.Reads, ledger.KVRead{Key: key()})
			}
			s.RangeQueries = append(s.RangeQueries, rq)
		}
		sets[i] = s
	}
	return sets
}

// TestMatchesMapReference checks Build, BreakCycles and TopoOrder
// against the map-based reference on seeded random blocks: equal
// Lookups, equal successor multisets per node, equal aborted sets and
// equal serialization orders.
func TestMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var ranged, aborting int
	for b := 0; b < 2000; b++ {
		sets := randomBlock(rng)
		got, want := Build(sets), refBuild(sets)
		if got.Lookups != want.Lookups {
			t.Fatalf("block %d: Lookups %d, reference %d", b, got.Lookups, want.Lookups)
		}
		for u := 0; u < len(sets); u++ {
			gs := append([]int(nil), got.Graph.Succ(u)...)
			ws := append([]int(nil), want.Graph.Succ(u)...)
			sort.Ints(gs)
			sort.Ints(ws)
			if !reflect.DeepEqual(gs, ws) {
				t.Fatalf("block %d node %d: successors %v, reference %v", b, u, gs, ws)
			}
		}
		ab, refAb := got.Graph.BreakCycles(), want.Graph.refBreakCycles()
		if !reflect.DeepEqual(ab, refAb) {
			t.Fatalf("block %d: aborted %v, reference %v", b, ab, refAb)
		}
		if order, refOrder := got.Graph.TopoOrder(ab), want.Graph.refTopoOrder(refAb); !reflect.DeepEqual(order, refOrder) {
			t.Fatalf("block %d: order %v, reference %v", b, order, refOrder)
		}
		for _, s := range sets {
			if len(s.RangeQueries) > 0 {
				ranged++
				break
			}
		}
		if len(ab) > 0 {
			aborting++
		}
	}
	if ranged == 0 || aborting == 0 {
		t.Fatalf("vacuous: %d blocks with range scans, %d with aborts", ranged, aborting)
	}
	t.Logf("%d blocks with range scans, %d with aborts", ranged, aborting)
}

// TestBuildIsDeterministic builds a scanner whose checked range covers
// twelve keys, each written by a different transaction, and requires
// every rebuild to list the scanner's successors — and so Tarjan's
// component order — identically.
func TestBuildIsDeterministic(t *testing.T) {
	sets := []*ledger.RWSet{{RangeQueries: []ledger.RangeQueryInfo{{StartKey: "k00", EndKey: "k99"}}}}
	for i := 1; i <= 12; i++ {
		sets = append(sets, rw(nil, []string{fmt.Sprintf("k%02d", i)}))
	}
	first := Build(sets).Graph
	for i := 1; i < 50; i++ {
		g := Build(sets).Graph
		if !reflect.DeepEqual(g.Succ(0), first.Succ(0)) {
			t.Fatalf("build %d: Succ(0) = %v, first build %v", i, g.Succ(0), first.Succ(0))
		}
		if !reflect.DeepEqual(g.SCCs(), first.SCCs()) {
			t.Fatalf("build %d: SCCs = %v, first build %v", i, g.SCCs(), first.SCCs())
		}
	}
}

// The map-based Build, BreakCycles and TopoOrder that the slice-based
// versions replaced, kept unchanged as the oracle of
// TestMatchesMapReference: they rebuild their scratch state in maps
// (BreakCycles re-derives the induced subgraph after every removal),
// and Build visits a range scan's writers in map order.

// refBuild constructs the within-block conflict graph: an edge Ti -> Tj
// means Ti must be ordered before Tj. Fabric validates a block's
// transactions against the pre-block state plus earlier in-block
// writes, so a transaction that reads key k must precede any
// transaction that writes k — edge reader -> writer. Unchecked (rich
// query) range observations create no constraints.
func refBuild(rwsets []*ledger.RWSet) BuildResult {
	g := NewGraph(len(rwsets))
	writers := map[string][]int{}
	for i, rw := range rwsets {
		for _, w := range rw.Writes {
			writers[w.Key] = append(writers[w.Key], i)
		}
	}
	lookups := 0
	addReaderEdges := func(i int, key string) {
		lookups++
		for _, j := range writers[key] {
			if j != i {
				g.AddEdge(i, j)
			}
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
			// Writers inserting into the scanned interval would
			// change the phantom re-execution, so the scanner must
			// also precede them.
			for key, ws := range writers {
				if key >= rq.StartKey && (rq.EndKey == "" || key < rq.EndKey) {
					lookups++
					for _, j := range ws {
						if j != i {
							g.AddEdge(i, j)
						}
					}
				}
			}
		}
	}
	return BuildResult{Graph: g, Lookups: lookups}
}

// refBreakCycles removes nodes until the graph is acyclic, using the
// greedy MFVS approximation Fabric++ describes: within every strongly
// connected component of size > 1, repeatedly drop the node with the
// highest internal degree. Returns the removed node set (aborted
// transactions), deterministically.
func (g *Graph) refBreakCycles() []int {
	removed := map[int]bool{}
	var aborted []int
	comps := g.SCCs()
	for _, comp := range comps {
		if len(comp) == 1 {
			v := comp[0]
			if !hasSelfLoop(g, v) {
				continue
			}
		}
		// Work on the subgraph induced by comp, removing greedily.
		in := map[int]bool{}
		for _, v := range comp {
			in[v] = true
		}
		for {
			sub := subgraph(g, in, removed)
			if sub.acyclic() {
				break
			}
			v := sub.maxDegreeNode()
			removed[v] = true
			aborted = append(aborted, v)
		}
	}
	sort.Ints(aborted)
	return aborted
}

func hasSelfLoop(g *Graph, v int) bool {
	for _, w := range g.adj[v] {
		if w == v {
			return true
		}
	}
	return false
}

// sub is an induced subgraph view used during cycle breaking.
type sub struct {
	nodes []int
	adj   map[int][]int
}

func subgraph(g *Graph, in map[int]bool, removed map[int]bool) *sub {
	s := &sub{adj: map[int][]int{}}
	for v := range in {
		if removed[v] {
			continue
		}
		s.nodes = append(s.nodes, v)
	}
	sort.Ints(s.nodes)
	member := map[int]bool{}
	for _, v := range s.nodes {
		member[v] = true
	}
	for _, v := range s.nodes {
		for _, w := range g.adj[v] {
			if member[w] && w != v {
				s.adj[v] = append(s.adj[v], w)
			}
		}
	}
	return s
}

func (s *sub) acyclic() bool {
	indeg := map[int]int{}
	for _, v := range s.nodes {
		indeg[v] += 0
		for _, w := range s.adj[v] {
			indeg[w]++
		}
	}
	queue := []int{}
	for _, v := range s.nodes {
		if indeg[v] == 0 {
			queue = append(queue, v)
		}
	}
	seen := 0
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		seen++
		for _, w := range s.adj[v] {
			indeg[w]--
			if indeg[w] == 0 {
				queue = append(queue, w)
			}
		}
	}
	return seen == len(s.nodes)
}

func (s *sub) maxDegreeNode() int {
	best, bestDeg := -1, -1
	indeg := map[int]int{}
	for _, v := range s.nodes {
		for _, w := range s.adj[v] {
			indeg[w]++
		}
	}
	for _, v := range s.nodes {
		deg := len(s.adj[v]) + indeg[v]
		if deg > bestDeg {
			best, bestDeg = v, deg
		}
	}
	return best
}

// refTopoOrder returns a deterministic topological order of the graph
// with the given nodes removed. It must only be called once the
// remaining graph is acyclic (after BreakCycles); it panics otherwise.
// Ties are broken by original index, so the serialization is stable.
func (g *Graph) refTopoOrder(removed []int) []int {
	gone := map[int]bool{}
	for _, v := range removed {
		gone[v] = true
	}
	indeg := make([]int, g.n)
	for u := 0; u < g.n; u++ {
		if gone[u] {
			continue
		}
		for _, v := range g.adj[u] {
			if !gone[v] && v != u {
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
			if gone[w] || w == v {
				continue
			}
			indeg[w]--
			if indeg[w] == 0 {
				ready = append(ready, w)
			}
		}
	}
	want := 0
	for v := 0; v < g.n; v++ {
		if !gone[v] {
			want++
		}
	}
	if len(order) != want {
		panic("conflictgraph: TopoOrder called on a cyclic graph")
	}
	return order
}
