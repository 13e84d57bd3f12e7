package btree

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// checkInvariants walks the whole tree: keys strictly ascend in order,
// every node but the root holds minItems to maxItems items, an inner
// node has one child more than items, all leaves sit at one depth, and
// Len counts what the walk finds.
func checkInvariants[V any](t *Tree[V]) error {
	var last *string
	count, leafDepth := 0, -1
	var walk func(n *node[V], depth int) error
	walk = func(n *node[V], depth int) error {
		if n != t.root && (len(n.items) < minItems || len(n.items) > maxItems) {
			return fmt.Errorf("depth %d: node holds %d items, want %d..%d", depth, len(n.items), minItems, maxItems)
		}
		if n.children == nil {
			if leafDepth >= 0 && depth != leafDepth {
				return fmt.Errorf("leaves at depths %d and %d", leafDepth, depth)
			}
			leafDepth = depth
		} else if len(n.children) != len(n.items)+1 {
			return fmt.Errorf("depth %d: %d children for %d items", depth, len(n.children), len(n.items))
		}
		for i := range n.items {
			if n.children != nil {
				if err := walk(n.children[i], depth+1); err != nil {
					return err
				}
			}
			if last != nil && *last >= n.items[i].key {
				return fmt.Errorf("key %q follows %q", n.items[i].key, *last)
			}
			last = &n.items[i].key
			count++
		}
		if n.children != nil {
			return walk(n.children[len(n.items)], depth+1)
		}
		return nil
	}
	if err := walk(t.root, 0); err != nil {
		return err
	}
	if count != t.Len() {
		return fmt.Errorf("walk counts %d keys, Len reports %d", count, t.Len())
	}
	return nil
}

func mustHold[V any](t *testing.T, tr *Tree[V]) {
	t.Helper()
	if err := checkInvariants(tr); err != nil {
		t.Fatal(err)
	}
}

func has[V any](tr *Tree[V], key string) bool {
	_, ok := tr.Get(key)
	return ok
}

func rangeKeys[V any](tr *Tree[V], start, end string) []string {
	var out []string
	for it := tr.Range(start, end); it.Valid(); it.Next() {
		out = append(out, it.Key())
	}
	return out
}

func TestPutGetDelete(t *testing.T) {
	l := New[[]byte]()
	if _, ok := l.Get("a"); ok {
		t.Fatal("empty tree returned a value")
	}
	l.Put("a", []byte("1"))
	l.Put("b", []byte("2"))
	l.Put("a", []byte("3")) // overwrite
	if v, ok := l.Get("a"); !ok || string(v) != "3" {
		t.Fatalf("Get(a) = %q,%v want 3,true", v, ok)
	}
	if l.Len() != 2 {
		t.Fatalf("Len = %d, want 2", l.Len())
	}
	if !l.Delete("a") {
		t.Fatal("Delete(a) = false")
	}
	if l.Delete("a") {
		t.Fatal("second Delete(a) = true")
	}
	if has(l, "a") {
		t.Fatal("deleted key still present")
	}
	if l.Len() != 1 {
		t.Fatalf("Len = %d, want 1", l.Len())
	}
}

func TestIterAscending(t *testing.T) {
	l := New[[]byte]()
	keys := []string{"delta", "alpha", "charlie", "bravo", "echo"}
	for i, k := range keys {
		l.Put(k, []byte{byte(i)})
	}
	got := l.Keys()
	want := append([]string(nil), keys...)
	sort.Strings(want)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Keys() = %v, want %v", got, want)
	}
}

func TestRangeHalfOpen(t *testing.T) {
	l := New[[]byte]()
	for i := 0; i < 10; i++ {
		l.Put(fmt.Sprintf("k%02d", i), nil)
	}
	got := rangeKeys(l, "k03", "k07")
	want := []string{"k03", "k04", "k05", "k06"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Range = %v, want %v", got, want)
	}
}

func TestRangeOpenEnds(t *testing.T) {
	l := New[[]byte]()
	for i := 0; i < 5; i++ {
		l.Put(fmt.Sprintf("k%d", i), nil)
	}
	if n := len(rangeKeys(l, "", "")); n != 5 {
		t.Fatalf("unbounded range saw %d keys, want 5", n)
	}
	if n := len(rangeKeys(l, "k3", "")); n != 2 {
		t.Fatalf("range from k3 saw %d keys, want 2", n)
	}
	if got := rangeKeys(l, "zzz", ""); got != nil {
		t.Fatalf("range beyond last key yielded %v", got)
	}
}

func TestRangeStartNotPresent(t *testing.T) {
	l := New[[]byte]()
	l.Put("b", nil)
	l.Put("d", nil)
	it := l.Range("c", "")
	if !it.Valid() || it.Key() != "d" {
		t.Fatalf("Range(c) starts at %v, want d", rangeKeys(l, "c", ""))
	}
}

func TestCloneIsIndependent(t *testing.T) {
	l := New[[]byte]()
	l.Put("a", []byte("1"))
	c := l.Clone()
	c.Put("b", []byte("2"))
	l.Delete("a")
	if !has(c, "a") || !has(c, "b") {
		t.Fatal("clone lost entries after mutating original")
	}
	if has(l, "b") {
		t.Fatal("original gained entries from clone")
	}
}

// A clone and its source share no array: after splits and merges have
// shaped the source, each side is mutated — inserts into the clone's
// exact-length nodes, deletes that merge — and each must still equal
// its own reference, whichever side moved.
func TestCloneIndependentAfterSplitsAndMerges(t *testing.T) {
	for _, mutateClone := range []bool{true, false} {
		src := New[int]()
		ref := map[string]int{}
		for i := 0; i < 3000; i++ {
			k := fmt.Sprintf("k%05d", i*2)
			src.Put(k, i)
			ref[k] = i
		}
		for i := 0; i < 3000; i += 3 { // merges and borrows
			k := fmt.Sprintf("k%05d", i*2)
			src.Delete(k)
			delete(ref, k)
		}
		mustHold(t, src)
		c := src.Clone()
		mustHold(t, c)
		frozen := map[string]int{}
		for k, v := range ref {
			frozen[k] = v
		}
		moved, still := c, src
		if !mutateClone {
			moved, still = src, c
		}
		for i := 0; i < 3000; i++ {
			moved.Put(fmt.Sprintf("k%05d", i*2+1), -i) // between existing keys: fills exact-length nodes
			moved.Put(fmt.Sprintf("k%05d", i*2), -i)   // overwrites or re-inserts
			if i%2 == 0 {
				moved.Delete(fmt.Sprintf("k%05d", i*2+2))
			}
		}
		mustHold(t, moved)
		mustHold(t, still)
		if still.Len() != len(frozen) {
			t.Fatalf("mutateClone=%v: untouched side has %d keys, want %d", mutateClone, still.Len(), len(frozen))
		}
		for it := still.Iter(); it.Valid(); it.Next() {
			if v, ok := frozen[it.Key()]; !ok || v != it.Value() {
				t.Fatalf("mutateClone=%v: untouched side holds %d under %s, want %d (present %v)",
					mutateClone, it.Value(), it.Key(), v, ok)
			}
		}
	}
}

// builtKeys returns n ascending keys and the values 0..n-1.
func builtKeys(n int) ([]string, []int) {
	keys, vals := make([]string, n), make([]int, n)
	for i := range keys {
		keys[i], vals[i] = fmt.Sprintf("k%06d", i), i
	}
	return keys, vals
}

// Build meets every invariant at each size where the tree gains a
// level (a full tree of height h holds 32^(h+1)-1 keys), holds exactly
// its input, packs its leaves as densely as maxItems allows and gives
// every node exact-length arrays.
func TestBuild(t *testing.T) {
	for _, n := range []int{0, 1, 31, 32, 1023, 1024, 32767, 32768, 100000} {
		keys, vals := builtKeys(n)
		tr := Build(keys, vals)
		if err := checkInvariants(tr); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if got := tr.Keys(); !slices.Equal(got, keys) {
			t.Fatalf("n=%d: Keys() has %d keys, want %d", n, len(got), n)
		}
		for i, k := range keys {
			if v, ok := tr.Get(k); !ok || v != i {
				t.Fatalf("n=%d: Get(%s) = %d,%v, want %d,true", n, k, v, ok, i)
			}
		}
		leaves := 0
		var walk func(nd *node[int])
		walk = func(nd *node[int]) {
			if cap(nd.items) != len(nd.items) || cap(nd.children) != len(nd.children) {
				t.Fatalf("n=%d: a node of %d items has capacity %d (children %d of %d)",
					n, len(nd.items), cap(nd.items), len(nd.children), cap(nd.children))
			}
			if nd.children == nil {
				leaves++
			}
			for _, c := range nd.children {
				walk(c)
			}
		}
		walk(tr.root)
		if want := (n + maxItems + 1) / (maxItems + 1); leaves != want {
			t.Errorf("n=%d: %d leaves, want the %d that hold the keys", n, leaves, want)
		}
	}
}

// A built tree and its clone stay valid under random puts and deletes,
// whichever side moves, and the other side keeps exactly what it held.
func TestBuiltTreeMutates(t *testing.T) {
	for _, n := range []int{31, 1024, 5000} {
		for _, mutateClone := range []bool{true, false} {
			keys, vals := builtKeys(n)
			src := Build(keys, vals)
			moved, still := src.Clone(), src
			if !mutateClone {
				moved, still = src, src.Clone()
			}
			m := &model{vals: map[string]int{}}
			for i, k := range keys {
				m.put(k, vals[i])
			}
			rng := rand.New(rand.NewSource(int64(n)))
			bound := func(a int) string { return fmt.Sprintf("k%06d", a) }
			for i := 0; i < 4*n; i++ {
				a := rng.Intn(n + n/4)
				if err := diffKey(moved, m, rng.Intn(4), bound(a), bound(a+rng.Intn(20)), i); err != nil {
					t.Fatalf("n=%d mutateClone=%v op %d: %v", n, mutateClone, i, err)
				}
			}
			mustHold(t, moved)
			mustHold(t, still)
			if got := still.Keys(); !slices.Equal(got, keys) {
				t.Fatalf("n=%d mutateClone=%v: the untouched side has %d keys, want %d", n, mutateClone, len(got), n)
			}
			for i, k := range keys {
				if v, _ := still.Get(k); v != i {
					t.Fatalf("n=%d mutateClone=%v: the untouched side holds %d under %s, want %d", n, mutateClone, v, k, i)
				}
			}
		}
	}
}

// Property: the tree agrees with a reference map under a random
// sequence of put/delete operations, and iteration is sorted.
func TestAgainstReferenceMap(t *testing.T) {
	type op struct {
		Key    uint8
		Val    uint16
		Delete bool
	}
	f := func(ops []op) bool {
		l := New[[]byte]()
		ref := map[string]string{}
		for _, o := range ops {
			k := fmt.Sprintf("key%03d", o.Key)
			if o.Delete {
				delete(ref, k)
				l.Delete(k)
			} else {
				v := fmt.Sprint(o.Val)
				ref[k] = v
				l.Put(k, []byte(v))
			}
		}
		if l.Len() != len(ref) || checkInvariants(l) != nil {
			return false
		}
		for k, v := range ref {
			got, ok := l.Get(k)
			if !ok || string(got) != v {
				return false
			}
		}
		return sort.StringsAreSorted(l.Keys())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Error(err)
	}
}

// Property: every range scan [a,b) returns exactly the reference keys
// in that interval, in order.
func TestRangeProperty(t *testing.T) {
	f := func(keys []uint8, a, b uint8) bool {
		l := New[[]byte]()
		ref := map[string]bool{}
		for _, k := range keys {
			s := fmt.Sprintf("k%03d", k)
			l.Put(s, nil)
			ref[s] = true
		}
		lo, hi := fmt.Sprintf("k%03d", a), fmt.Sprintf("k%03d", b)
		var want []string
		for k := range ref {
			if k >= lo && k < hi {
				want = append(want, k)
			}
		}
		sort.Strings(want)
		return fmt.Sprint(rangeKeys(l, lo, hi)) == fmt.Sprint(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(6))}); err != nil {
		t.Error(err)
	}
}

func TestLargeVolume(t *testing.T) {
	l := New[[]byte]()
	const n = 20000
	for i := 0; i < n; i++ {
		l.Put(fmt.Sprintf("key%06d", i), []byte{byte(i)})
	}
	if l.Len() != n {
		t.Fatalf("Len = %d, want %d", l.Len(), n)
	}
	for i := 0; i < n; i += 997 {
		k := fmt.Sprintf("key%06d", i)
		if !has(l, k) {
			t.Fatalf("missing %s", k)
		}
	}
	for i := 0; i < n; i += 2 {
		l.Delete(fmt.Sprintf("key%06d", i))
	}
	if l.Len() != n/2 {
		t.Fatalf("Len after deletes = %d, want %d", l.Len(), n/2)
	}
	mustHold(t, l)
}

// model is the reference the tree is checked against: a map for
// values and a sorted key slice for ranges.
type model struct {
	vals   map[string]int
	sorted []string
}

func (m *model) put(k string, v int) {
	if _, ok := m.vals[k]; !ok {
		i := sort.SearchStrings(m.sorted, k)
		m.sorted = append(m.sorted, "")
		copy(m.sorted[i+1:], m.sorted[i:])
		m.sorted[i] = k
	}
	m.vals[k] = v
}

func (m *model) delete(k string) bool {
	if _, ok := m.vals[k]; !ok {
		return false
	}
	delete(m.vals, k)
	i := sort.SearchStrings(m.sorted, k)
	m.sorted = append(m.sorted[:i], m.sorted[i+1:]...)
	return true
}

func (m *model) rangeKeys(start, end string) []string {
	lo := sort.SearchStrings(m.sorted, start)
	hi := len(m.sorted)
	if end != "" {
		hi = max(lo, sort.SearchStrings(m.sorted, end))
	}
	if lo == hi {
		return nil
	}
	return m.sorted[lo:hi]
}

// diff applies one operation to the tree and the model alike and
// reports the first disagreement. bound draws a range end: present
// and absent keys, and the empty string.
func diff(tr *Tree[int], m *model, op, a, b int, v int, bound func(int) string) error {
	if op == 3 {
		start := bound(a)
		return diffKey(tr, m, op, start, bound(b), v)
	}
	return diffKey(tr, m, op, fmt.Sprintf("k%04d", a), "", v)
}

// diffKey is diff on key k: a put of v, a delete, a get, or a range
// scan [k, end).
func diffKey(tr *Tree[int], m *model, op int, k, end string, v int) error {
	switch op {
	case 0:
		tr.Put(k, v)
		m.put(k, v)
	case 1:
		if got, want := tr.Delete(k), m.delete(k); got != want {
			return fmt.Errorf("Delete(%s) = %v, want %v", k, got, want)
		}
	case 2:
		got, ok := tr.Get(k)
		want, wok := m.vals[k]
		if got != want || ok != wok {
			return fmt.Errorf("Get(%s) = %d,%v, want %d,%v", k, got, ok, want, wok)
		}
	default:
		start := k
		if got, want := rangeKeys(tr, start, end), m.rangeKeys(start, end); !slices.Equal(got, want) {
			i := 0
			for i < min(len(got), len(want)) && got[i] == want[i] {
				i++
			}
			return fmt.Errorf("Range(%q, %q) yields %d keys, want %d; they part at index %d: %v vs %v",
				start, end, len(got), len(want), i, got[i:min(i+3, len(got))], want[i:min(i+3, len(want))])
		}
	}
	if tr.Len() != len(m.vals) {
		return fmt.Errorf("Len = %d, want %d", tr.Len(), len(m.vals))
	}
	return nil
}

// Differential: 30 seeds of 20,000 random operations over 3,000 keys
// against the reference model, with the invariants checked as the tree
// grows through splits and shrinks through merges.
func TestDifferentialAgainstSortedMap(t *testing.T) {
	const keys, ops = 3000, 20000
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr, m := New[int](), &model{vals: map[string]int{}}
		bound := func(n int) string {
			switch rng.Intn(8) {
			case 0:
				return ""
			case 1:
				return fmt.Sprintf("k%04dx", n) // absent, between two keys
			case 2:
				return fmt.Sprintf("k%04d", keys+n) // absent, past every key
			}
			return fmt.Sprintf("k%04d", n)
		}
		// Phases bias towards growth, then shrinkage, then churn.
		for i := 0; i < ops; i++ {
			op := rng.Intn(3) // put, delete or get
			switch r := rng.Intn(10); {
			case r == 0:
				op = 3 // range
			case r < 7 && i < ops/3:
				op = 0
			case r < 7 && i < 2*ops/3:
				op = 1
			}
			a := rng.Intn(keys)
			b := a + rng.Intn(40) - 5 // mostly short, sometimes empty or inverted
			if err := diff(tr, m, op, a, b, i, bound); err != nil {
				t.Fatalf("seed %d op %d: %v", seed, i, err)
			}
			if i%1000 == 999 {
				if err := checkInvariants(tr); err != nil {
					t.Fatalf("seed %d op %d: %v", seed, i, err)
				}
			}
		}
	}
}

// FuzzTree starts from a tree built from the first built of 256 keys
// (an empty one at 0), decodes ops as three-byte operations (kind,
// key, key) over those keys, enough to split and merge nodes, and
// checks every result and the invariants against the reference model.
// Only the first maxOps operations count, which keeps each execution
// (and the minimization of a long input) cheap.
func FuzzTree(f *testing.F) {
	const maxOps = 1024
	var grow, shrink, churn []byte
	for i := 0; i < 256; i++ {
		grow = append(grow, 0, byte(i), 0)
		shrink = append(shrink, 1, byte(i*7), 0)
		churn = append(churn, byte(i%4), byte(i*37), byte(i*11))
	}
	f.Add(uint8(0), []byte{})
	f.Add(uint8(0), []byte{0, 1, 0, 3, 0, 9})
	f.Add(uint8(0), grow)
	f.Add(uint8(0), append(append([]byte{}, grow...), shrink...))
	f.Add(uint8(0), append(append([]byte{}, grow...), churn...))
	f.Add(uint8(255), append(append([]byte{}, shrink...), churn...))
	f.Fuzz(func(t *testing.T, built uint8, ops []byte) {
		keys := make([]string, built)
		vals := make([]int, built)
		m := &model{vals: map[string]int{}}
		for i := range keys {
			keys[i], vals[i] = fmt.Sprintf("k%04d", i), -i
			m.put(keys[i], vals[i])
		}
		tr := Build(keys, vals)
		bound := func(n int) string {
			if n%17 == 0 {
				return ""
			}
			return fmt.Sprintf("k%04d", n)
		}
		ops = ops[:min(len(ops), 3*maxOps)]
		for i := 0; i+2 < len(ops); i += 3 {
			if err := diff(tr, m, int(ops[i]%4), int(ops[i+1]), int(ops[i+2]), i, bound); err != nil {
				t.Fatalf("op %d: %v", i/3, err)
			}
		}
		if err := checkInvariants(tr); err != nil {
			t.Fatal(err)
		}
	})
}

// raceDetector is set by race_test.go, which only -race builds.
var raceDetector bool

var sink int

// The hot operations of a world-state replica allocate nothing: a read
// hit or miss, a write that replaces a value, and a range walk, whose
// iterator lives on the caller's stack.
func TestHotPathsDoNotAllocate(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector allocates on its own account")
	}
	tr := New[*int]()
	v := new(int)
	var hit, miss *int
	for i := 0; i < 100000; i++ {
		tr.Put(fmt.Sprintf("key_%06d", i), v)
	}
	pins := []struct {
		name string
		fn   func()
	}{
		{"Get hit", func() { hit, _ = tr.Get("key_054321") }},
		{"Get miss", func() { miss, _ = tr.Get("key_054321x") }},
		{"overwriting Put", func() { tr.Put("key_054321", v) }},
		{"10-key Range walk", func() {
			for it := tr.Range("key_054321", "key_054331"); it.Valid(); it.Next() {
				sink++
			}
		}},
	}
	for _, p := range pins {
		if n := testing.AllocsPerRun(100, p.fn); n != 0 {
			t.Errorf("%s allocates %.0f objects, want 0", p.name, n)
		}
	}
	if hit != v || miss != nil {
		t.Errorf("Get returned %p on a hit and %p on a miss, want %p and nil", hit, miss, v)
	}
}

func BenchmarkPut(b *testing.B) {
	l := New[[]byte]()
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("key%06d", i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Put(keys[i%1024], nil)
	}
}

func BenchmarkGet(b *testing.B) {
	l := New[[]byte]()
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("key%06d", i)
		l.Put(keys[i], nil)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Get(keys[i%1024])
	}
}
