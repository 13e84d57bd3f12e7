package skiplist

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestPutGetDelete(t *testing.T) {
	l := New[[]byte](1)
	if _, ok := l.Get("a"); ok {
		t.Fatal("empty list returned a value")
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
	if l.Has("a") {
		t.Fatal("deleted key still present")
	}
	if l.Len() != 1 {
		t.Fatalf("Len = %d, want 1", l.Len())
	}
}

func TestIterAscending(t *testing.T) {
	l := New[[]byte](1)
	keys := []string{"delta", "alpha", "charlie", "bravo", "echo"}
	for i, k := range keys {
		l.Put(k, []byte{byte(i)})
	}
	got := l.Keys()
	want := append([]string(nil), keys...)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("got %d keys, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Keys() = %v, want %v", got, want)
		}
	}
}

func TestRangeHalfOpen(t *testing.T) {
	l := New[[]byte](1)
	for i := 0; i < 10; i++ {
		l.Put(fmt.Sprintf("k%02d", i), nil)
	}
	var got []string
	for it := l.Range("k03", "k07"); it.Valid(); it.Next() {
		got = append(got, it.Key())
	}
	want := []string{"k03", "k04", "k05", "k06"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Range = %v, want %v", got, want)
	}
}

func TestRangeOpenEnds(t *testing.T) {
	l := New[[]byte](1)
	for i := 0; i < 5; i++ {
		l.Put(fmt.Sprintf("k%d", i), nil)
	}
	count := 0
	for it := l.Range("", ""); it.Valid(); it.Next() {
		count++
	}
	if count != 5 {
		t.Fatalf("unbounded range saw %d keys, want 5", count)
	}
	count = 0
	for it := l.Range("k3", ""); it.Valid(); it.Next() {
		count++
	}
	if count != 2 {
		t.Fatalf("range from k3 saw %d keys, want 2", count)
	}
	for it := l.Range("zzz", ""); it.Valid(); it.Next() {
		t.Fatal("range beyond last key yielded entries")
	}
}

func TestRangeStartNotPresent(t *testing.T) {
	l := New[[]byte](1)
	l.Put("b", nil)
	l.Put("d", nil)
	it := l.Range("c", "")
	if !it.Valid() || it.Key() != "d" {
		t.Fatalf("Range(c) starts at %v, want d", it)
	}
}

func TestCloneIsIndependent(t *testing.T) {
	l := New[[]byte](1)
	l.Put("a", []byte("1"))
	c := l.Clone(2)
	c.Put("b", []byte("2"))
	l.Delete("a")
	if !c.Has("a") || !c.Has("b") {
		t.Fatal("clone lost entries after mutating original")
	}
	if l.Has("b") {
		t.Fatal("original gained entries from clone")
	}
}

// levels lists the keys on every level of l, bottom first.
func levels[V any](l *List[V]) [][]string {
	out := make([][]string, l.height)
	for level := range out {
		for x := l.head.next[level]; x != nil; x = x.next[level] {
			out[level] = append(out[level], x.key)
		}
	}
	return out
}

// Clone builds, without searching, the list ascending Puts build from
// the same seed: the same keys on every level, the same height and
// length, and an rng at the same position, so the next Put on each
// draws the same tower.
func TestCloneEqualsAscendingPuts(t *testing.T) {
	src := New[int](7)
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 3000; i++ {
		k := fmt.Sprintf("k%05d", rng.Intn(5000))
		if rng.Intn(4) == 0 {
			src.Delete(k)
		} else {
			src.Put(k, i)
		}
	}
	for seed := int64(1); seed <= 5; seed++ {
		c, ref := src.Clone(seed), New[int](seed)
		for it := src.Iter(); it.Valid(); it.Next() {
			ref.Put(it.Key(), it.Value())
		}
		if c.Len() != ref.Len() || c.height != ref.height {
			t.Fatalf("seed %d: clone has %d keys in %d levels, ascending Puts %d in %d",
				seed, c.Len(), c.height, ref.Len(), ref.height)
		}
		if got, want := levels(c), levels(ref); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("seed %d: clone's levels differ from ascending Puts'", seed)
		}
		for it := c.Iter(); it.Valid(); it.Next() {
			if v, _ := src.Get(it.Key()); v != it.Value() {
				t.Fatalf("seed %d: clone holds %d under %s, source %d", seed, it.Value(), it.Key(), v)
			}
		}
		c.Put("k02500x", -1)
		ref.Put("k02500x", -1)
		if got, want := levels(c), levels(ref); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("seed %d: the Put after cloning drew a different tower", seed)
		}
	}
}

// Property: the skip list agrees with a reference map under a random
// sequence of put/delete operations, and iteration is sorted.
func TestAgainstReferenceMap(t *testing.T) {
	type op struct {
		Key    uint8
		Val    uint16
		Delete bool
	}
	f := func(ops []op) bool {
		l := New[[]byte](99)
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
		if l.Len() != len(ref) {
			return false
		}
		for k, v := range ref {
			got, ok := l.Get(k)
			if !ok || string(got) != v {
				return false
			}
		}
		keys := l.Keys()
		if !sort.StringsAreSorted(keys) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Error(err)
	}
}

// Property: every range scan [a,b) returns exactly the reference keys
// in that interval, in order.
func TestRangeProperty(t *testing.T) {
	f := func(keys []uint8, a, b uint8) bool {
		l := New[[]byte](3)
		ref := map[string]bool{}
		for _, k := range keys {
			s := fmt.Sprintf("k%03d", k)
			l.Put(s, nil)
			ref[s] = true
		}
		lo, hi := fmt.Sprintf("k%03d", a), fmt.Sprintf("k%03d", b)
		var want []string
		for k := range ref {
			if k >= lo && (hi == "" || k < hi) {
				want = append(want, k)
			}
		}
		sort.Strings(want)
		var got []string
		for it := l.Range(lo, hi); it.Valid(); it.Next() {
			got = append(got, it.Key())
		}
		return fmt.Sprint(got) == fmt.Sprint(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(6))}); err != nil {
		t.Error(err)
	}
}

func TestLargeVolume(t *testing.T) {
	l := New[[]byte](4)
	const n = 20000
	for i := 0; i < n; i++ {
		l.Put(fmt.Sprintf("key%06d", i), []byte{byte(i)})
	}
	if l.Len() != n {
		t.Fatalf("Len = %d, want %d", l.Len(), n)
	}
	for i := 0; i < n; i += 997 {
		k := fmt.Sprintf("key%06d", i)
		if !l.Has(k) {
			t.Fatalf("missing %s", k)
		}
	}
	for i := 0; i < n; i += 2 {
		l.Delete(fmt.Sprintf("key%06d", i))
	}
	if l.Len() != n/2 {
		t.Fatalf("Len after deletes = %d, want %d", l.Len(), n/2)
	}
}

func BenchmarkPut(b *testing.B) {
	l := New[[]byte](1)
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
	l := New[[]byte](1)
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
