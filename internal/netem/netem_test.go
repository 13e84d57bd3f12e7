package netem

import (
	"slices"
	"testing"
	"time"

	"repro/internal/sim"
)

func TestSendPaysLatency(t *testing.T) {
	eng := sim.NewEngine(1)
	m := New(eng, Link{Base: 10 * time.Millisecond})
	var arrived sim.Time
	m.Send("a", "b", func() { arrived = eng.Now() })
	eng.Run()
	if arrived != sim.Time(10*time.Millisecond) {
		t.Errorf("arrived at %v, want 10ms", arrived)
	}
}

// Arrival is Send's decision without the callback: on a lossy link, the
// same seed drops the same messages, draws the same latencies and leaves
// the rng in the same place.
func TestArrivalMatchesSend(t *testing.T) {
	engA, engB := sim.NewEngine(3), sim.NewEngine(3)
	a := New(engA, Link{Base: 5 * time.Millisecond, Jitter: 2 * time.Millisecond})
	b := New(engB, Link{Base: 5 * time.Millisecond, Jitter: 2 * time.Millisecond})
	a.SetLoss("n", 0.3)
	b.SetLoss("n", 0.3)
	var sent, arrived []sim.Time
	for i := 0; i < 200; i++ {
		i := i
		a.Send("m", "n", func() { sent = append(sent, engA.Now()+sim.Time(i)<<40) })
		if at, ok := b.Arrival("m", "n"); ok {
			arrived = append(arrived, at+sim.Time(i)<<40)
		}
	}
	engA.Run()
	slices.Sort(sent)
	if !slices.Equal(sent, arrived) || a.Drops() != b.Drops() || a.Drops() == 0 {
		t.Fatalf("Send delivered %d (%d drops), Arrival %d (%d drops); want the same messages at the same times",
			len(sent), a.Drops(), len(arrived), b.Drops())
	}
	if x, y := engA.Rand().Int63(), engB.Rand().Int63(); x != y {
		t.Fatal("Arrival left the rng elsewhere than Send")
	}
}

func TestJitterWithinBounds(t *testing.T) {
	eng := sim.NewEngine(2)
	m := New(eng, Link{Base: 10 * time.Millisecond, Jitter: 2 * time.Millisecond})
	for i := 0; i < 500; i++ {
		d := m.sample("a", "b")
		if d < 8*time.Millisecond || d >= 12*time.Millisecond {
			t.Fatalf("sample %v outside 10±2ms", d)
		}
	}
}

func TestInjectAddsDelayBothDirections(t *testing.T) {
	eng := sim.NewEngine(3)
	m := New(eng, Link{Base: time.Millisecond})
	m.Inject("Org1-peer0", Link{Base: 100 * time.Millisecond})
	if d := m.sample("client", "Org1-peer0"); d != 101*time.Millisecond {
		t.Errorf("to injected node: %v, want 101ms", d)
	}
	if d := m.sample("Org1-peer0", "client"); d != 101*time.Millisecond {
		t.Errorf("from injected node: %v, want 101ms", d)
	}
	if d := m.sample("client", "Org0-peer0"); d != time.Millisecond {
		t.Errorf("untouched link: %v, want 1ms", d)
	}
}

func TestInjectRemoval(t *testing.T) {
	eng := sim.NewEngine(4)
	m := New(eng, Link{Base: time.Millisecond})
	m.Inject("n", Link{Base: 50 * time.Millisecond})
	m.Inject("n", Link{})
	if d := m.sample("n", "x"); d != time.Millisecond {
		t.Errorf("delay after removal: %v", d)
	}
}

func TestInjectedJitterEmulatesPumba(t *testing.T) {
	// The paper's emulation: 100 ± 10 ms on one organization.
	eng := sim.NewEngine(5)
	m := New(eng, Link{Base: 500 * time.Microsecond})
	m.Inject("Org0-peer0", Link{Base: 100 * time.Millisecond, Jitter: 10 * time.Millisecond})
	for i := 0; i < 200; i++ {
		d := m.sample("client", "Org0-peer0")
		min := 500*time.Microsecond + 90*time.Millisecond
		max := 500*time.Microsecond + 110*time.Millisecond
		if d < min || d >= max {
			t.Fatalf("sample %v outside Pumba band", d)
		}
	}
}

func TestRTTisTwoSamples(t *testing.T) {
	eng := sim.NewEngine(6)
	m := New(eng, Link{Base: 3 * time.Millisecond})
	if rtt := m.RTT("a", "b"); rtt != 6*time.Millisecond {
		t.Errorf("RTT = %v, want 6ms", rtt)
	}
}

func TestDefaultLANSane(t *testing.T) {
	l := DefaultLAN()
	if l.Base <= 0 || l.Jitter <= 0 || l.Jitter >= l.Base {
		t.Errorf("DefaultLAN = %+v", l)
	}
}

func TestOrderedArrivalFIFO(t *testing.T) {
	eng := sim.NewEngine(7)
	m := New(eng, Link{Base: 5 * time.Millisecond, Jitter: 4 * time.Millisecond})
	var got []int
	var at []sim.Time
	q := sim.NewQueue(eng, func(i int) { got, at = append(got, i), append(at, eng.Now()) })
	// A burst of messages on one link must arrive in send order, each
	// strictly after the one before, even though each samples
	// independent jitter.
	for i := 0; i < 200; i++ {
		q.At(m.OrderedArrival("a", "b"), i)
	}
	eng.Run()
	if len(got) != 200 {
		t.Fatalf("%d of 200 messages arrived", len(got))
	}
	for i, v := range got {
		if v != i || i > 0 && at[i] <= at[i-1] {
			t.Fatalf("message %d arrived at position %d, at %v after %v", v, i, at[i], at[max(i-1, 0)])
		}
	}
}

// raceDetector is set by race_test.go, which only -race builds.
var raceDetector bool

// An ordered message on a link that has carried one before allocates
// nothing of its own: the FIFO table is keyed by value, and the
// receiver's queue and the event heap have room once the message
// before it was delivered.
func TestOrderedArrivalWarmLinkAllocatesNothing(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector allocates on its own account")
	}
	eng := sim.NewEngine(8)
	m := New(eng, DefaultLAN())
	m.Inject("b", Link{Base: time.Millisecond, Jitter: time.Millisecond})
	delivered := 0
	q := sim.NewQueue(eng, func(n int) { delivered += n })
	q.At(m.OrderedArrival("a", "b"), 1)
	eng.Run()
	if n := testing.AllocsPerRun(100, func() { q.At(m.OrderedArrival("a", "b"), 1); eng.Run() }); n != 0 {
		t.Errorf("an ordered message on a warm link: %v allocations, want 0", n)
	}
	if delivered != 102 {
		t.Errorf("%d messages delivered, want 102", delivered)
	}
}

func TestInjectReplacesInsteadOfStacking(t *testing.T) {
	// Documented semantics: a second Inject on the same node replaces
	// the first — the extras never accumulate.
	eng := sim.NewEngine(20)
	m := New(eng, Link{Base: time.Millisecond})
	m.Inject("n", Link{Base: 100 * time.Millisecond})
	m.Inject("n", Link{Base: 30 * time.Millisecond})
	if d := m.sample("n", "x"); d != 31*time.Millisecond {
		t.Errorf("after re-inject: %v, want 31ms (replace, not 131ms stack)", d)
	}
}

func TestInjectBothEndpointsPayBothExtras(t *testing.T) {
	// Documented semantics: the extra applies to the node as source AND
	// destination, so a link between two injected nodes pays both.
	eng := sim.NewEngine(21)
	m := New(eng, Link{Base: time.Millisecond})
	m.Inject("a", Link{Base: 10 * time.Millisecond})
	m.Inject("b", Link{Base: 20 * time.Millisecond})
	if d := m.sample("a", "b"); d != 31*time.Millisecond {
		t.Errorf("between two injected nodes: %v, want 31ms", d)
	}
}

func TestSetDownDropsBothDirections(t *testing.T) {
	eng := sim.NewEngine(22)
	m := New(eng, Link{Base: time.Millisecond})
	m.SetDown("peer", true)
	delivered := 0
	m.Send("client", "peer", func() { delivered++ })
	m.Send("peer", "client", func() { delivered++ })
	m.Send("client", "other", func() { delivered++ })
	eng.Run()
	if delivered != 1 {
		t.Errorf("delivered %d messages with peer down, want 1 (the untouched link)", delivered)
	}
	if m.Drops() != 2 {
		t.Errorf("Drops() = %d, want 2", m.Drops())
	}
	m.SetDown("peer", false)
	m.Send("client", "peer", func() { delivered++ })
	eng.Run()
	if delivered != 2 {
		t.Errorf("message to recovered node dropped")
	}
}

func TestPartitionCutsIslandBoundaryOnly(t *testing.T) {
	eng := sim.NewEngine(23)
	m := New(eng, Link{Base: time.Millisecond})
	m.Partition([]string{"p0", "p1"})
	var got []string
	send := func(from, to string) {
		m.Send(from, to, func() { got = append(got, from+">"+to) })
	}
	send("p0", "p1")          // intra-island: flows
	send("client", "client2") // outside the island: flows
	send("client", "p0")      // crosses the boundary: dropped
	send("p1", "orderer0")    // crosses the boundary: dropped
	eng.Run()
	if len(got) != 2 {
		t.Fatalf("delivered %v, want intra-island and outside traffic only", got)
	}
	m.Heal()
	send("client", "p0")
	eng.Run()
	if len(got) != 3 {
		t.Errorf("message after Heal dropped")
	}
}

func TestSetLossDropsFraction(t *testing.T) {
	eng := sim.NewEngine(24)
	m := New(eng, Link{Base: time.Millisecond})
	m.SetLoss("p", 0.5)
	delivered := 0
	for i := 0; i < 1000; i++ {
		m.Send("client", "p", func() { delivered++ })
	}
	eng.Run()
	if delivered < 350 || delivered > 650 {
		t.Errorf("delivered %d/1000 at 50%% loss", delivered)
	}
	m.SetLoss("p", 0)
	before := delivered
	for i := 0; i < 100; i++ {
		m.Send("client", "p", func() { delivered++ })
	}
	eng.Run()
	if delivered != before+100 {
		t.Errorf("loss regime not removed: %d/100 delivered", delivered-before)
	}
}

func TestOrderedArrivalIgnoresFaults(t *testing.T) {
	// The block-delivery stream models Fabric's re-fetching deliver
	// service: reliable end-to-end even across down nodes, partitions
	// and lossy links, where the unreliable path drops the same message.
	eng := sim.NewEngine(25)
	m := New(eng, Link{Base: time.Millisecond})
	m.SetDown("peer", true)
	m.Partition([]string{"orderer0"})
	m.SetLoss("peer", 1)
	if _, ok := m.Arrival("orderer0", "peer"); ok {
		t.Fatal("the unreliable path delivered across the faults")
	}
	drops := m.Drops()
	if at := m.OrderedArrival("orderer0", "peer"); at != eng.Now()+sim.Time(time.Millisecond) {
		t.Errorf("ordered message across the faults arrives at %v, want one link delay on", at)
	}
	if m.Drops() != drops {
		t.Errorf("the ordered stream counted %d drops", m.Drops()-drops)
	}
}

func TestFaultFreeFastPathDrawsNoRng(t *testing.T) {
	// A model whose fault primitives were used and then cleared must
	// behave exactly like a fresh model: same samples, no drops.
	engA := sim.NewEngine(26)
	a := New(engA, Link{Base: 5 * time.Millisecond, Jitter: 2 * time.Millisecond})
	engB := sim.NewEngine(26)
	b := New(engB, Link{Base: 5 * time.Millisecond, Jitter: 2 * time.Millisecond})
	b.SetDown("x", true)
	b.SetLoss("y", 0.5)
	b.Partition([]string{"z"})
	b.SetDown("x", false)
	b.SetLoss("y", 0)
	b.Heal()
	var arrA, arrB []sim.Time
	for i := 0; i < 50; i++ {
		a.Send("m", "n", func() { arrA = append(arrA, engA.Now()) })
		b.Send("m", "n", func() { arrB = append(arrB, engB.Now()) })
	}
	engA.Run()
	engB.Run()
	if len(arrA) != len(arrB) {
		t.Fatalf("delivery counts differ: %d vs %d", len(arrA), len(arrB))
	}
	for i := range arrA {
		if arrA[i] != arrB[i] {
			t.Fatalf("arrival %d differs: %v vs %v (cleared fault state perturbs rng)", i, arrA[i], arrB[i])
		}
	}
}

// Each directed link is its own FIFO: a message on one link is not
// bumped behind a message on another.
func TestOrderedArrivalIndependentLinks(t *testing.T) {
	eng := sim.NewEngine(8)
	m := New(eng, Link{Base: time.Millisecond})
	slow := m.OrderedArrival("a", "slow")
	m.Inject("fast", Link{}) // no-op injection, different link key
	fast := m.OrderedArrival("a", "fast")
	back := m.OrderedArrival("slow", "a")
	if slow != fast || slow != back {
		t.Fatalf("arrivals %v, %v and %v on three links, want one link delay each", slow, fast, back)
	}
	if again := m.OrderedArrival("a", "slow"); again != slow+1 {
		t.Fatalf("second message on a link arrives at %v, want the FIFO bump to %v", again, slow+1)
	}
}
