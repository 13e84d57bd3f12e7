package consensus

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/netem"
	"repro/internal/sim"
)

func collect() (func(interface{}), *[]int) {
	var got []int
	return func(p interface{}) { got = append(got, p.(int)) }, &got
}

func inOrder(got []int, n int) error {
	if len(got) != n {
		return fmt.Errorf("delivered %d entries, want %d", len(got), n)
	}
	for i, v := range got {
		if v != i {
			return fmt.Errorf("entry %d = %d, out of order (%v)", i, v, got)
		}
	}
	return nil
}

func TestSoloDeliversInOrder(t *testing.T) {
	eng := sim.NewEngine(1)
	s := NewSolo(eng, 3*time.Millisecond)
	fn, got := collect()
	s.OnCommit(fn)
	for i := 0; i < 50; i++ {
		i := i
		eng.At(sim.Time(time.Duration(i)*time.Millisecond), func() { s.Submit(i) })
	}
	eng.Run()
	if err := inOrder(*got, 50); err != nil {
		t.Fatal(err)
	}
	if s.Name() != "solo" {
		t.Error("name wrong")
	}
}

func TestSoloPanicsWithoutCallback(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSolo(sim.NewEngine(1), time.Millisecond).Submit(1)
}

func newKafka(seed int64) (*sim.Engine, *Kafka) {
	eng := sim.NewEngine(seed)
	net := netem.New(eng, netem.DefaultLAN())
	return eng, NewKafka(eng, net, DefaultKafkaConfig())
}

func TestKafkaDeliversInOrder(t *testing.T) {
	eng, k := newKafka(2)
	fn, got := collect()
	k.OnCommit(fn)
	for i := 0; i < 200; i++ {
		i := i
		eng.At(sim.Time(time.Duration(i)*500*time.Microsecond), func() { k.Submit(i) })
	}
	eng.Run()
	if err := inOrder(*got, 200); err != nil {
		t.Fatal(err)
	}
}

func TestKafkaLeaderFailover(t *testing.T) {
	eng, k := newKafka(3)
	fn, got := collect()
	k.OnCommit(fn)
	next := 0
	submitBatch := func(n int) {
		for i := 0; i < n; i++ {
			k.Submit(next)
			next++
		}
	}
	eng.At(sim.Time(10*time.Millisecond), func() { submitBatch(10) })
	eng.At(sim.Time(100*time.Millisecond), func() { k.Crash(k.Leader()) })
	// Submissions during the leadership gap are buffered.
	eng.At(sim.Time(200*time.Millisecond), func() { submitBatch(10) })
	eng.Run()
	if err := inOrder(*got, 20); err != nil {
		t.Fatal(err)
	}
	if k.Leader() == 0 {
		t.Error("leader did not change after crash")
	}
}

func TestKafkaRecoverWhenAllDown(t *testing.T) {
	eng, k := newKafka(4)
	fn, got := collect()
	k.OnCommit(fn)
	eng.At(sim.Time(time.Millisecond), func() {
		k.Crash(0)
		k.Crash(1)
		k.Crash(2)
	})
	eng.At(sim.Time(10*time.Second), func() { k.Submit(0) })
	eng.At(sim.Time(11*time.Second), func() { k.Recover(1) })
	eng.Run()
	if err := inOrder(*got, 1); err != nil {
		t.Fatal(err)
	}
}

func TestKafkaConfigValidation(t *testing.T) {
	eng := sim.NewEngine(1)
	net := netem.New(eng, netem.DefaultLAN())
	defer func() {
		if recover() == nil {
			t.Fatal("bad config accepted")
		}
	}()
	NewKafka(eng, net, KafkaConfig{Brokers: 2, MinISR: 3})
}

func newRaft(seed int64) (*sim.Engine, *Raft) {
	eng := sim.NewEngine(seed)
	net := netem.New(eng, netem.DefaultLAN())
	return eng, NewRaft(eng, net, DefaultRaftConfig())
}

func TestRaftElectsALeader(t *testing.T) {
	eng, r := newRaft(5)
	r.OnCommit(func(interface{}) {})
	eng.RunUntil(sim.Time(2 * time.Second))
	if r.Leader() < 0 {
		t.Fatal("no leader after 2s")
	}
	leaders := 0
	for _, n := range r.nodes {
		if n.role == leader {
			leaders++
		}
	}
	if leaders != 1 {
		t.Fatalf("%d concurrent leaders", leaders)
	}
}

func TestRaftDeliversInOrder(t *testing.T) {
	eng, r := newRaft(6)
	fn, got := collect()
	r.OnCommit(fn)
	for i := 0; i < 100; i++ {
		i := i
		eng.At(sim.Time(time.Second+time.Duration(i)*2*time.Millisecond), func() { r.Submit(i) })
	}
	eng.RunUntil(sim.Time(10 * time.Second))
	if err := inOrder(*got, 100); err != nil {
		t.Fatal(err)
	}
}

func TestRaftSubmitBeforeLeaderRetries(t *testing.T) {
	eng, r := newRaft(7)
	fn, got := collect()
	r.OnCommit(fn)
	// Submit immediately, before any election finished.
	r.Submit(0)
	eng.RunUntil(sim.Time(5 * time.Second))
	if err := inOrder(*got, 1); err != nil {
		t.Fatal(err)
	}
}

func TestRaftLeaderCrashReElection(t *testing.T) {
	eng, r := newRaft(8)
	fn, got := collect()
	r.OnCommit(fn)
	next := 0
	eng.At(sim.Time(time.Second), func() {
		for i := 0; i < 5; i++ {
			r.Submit(next)
			next++
		}
	})
	var crashed int
	eng.At(sim.Time(2*time.Second), func() {
		crashed = r.Leader()
		r.Crash(crashed)
	})
	eng.At(sim.Time(4*time.Second), func() {
		for i := 0; i < 5; i++ {
			r.Submit(next)
			next++
		}
	})
	eng.RunUntil(sim.Time(10 * time.Second))
	if err := inOrder(*got, 10); err != nil {
		t.Fatal(err)
	}
	if l := r.Leader(); l == crashed || l < 0 {
		t.Fatalf("leader after crash = %d (crashed %d)", l, crashed)
	}
	if r.Term() == 0 {
		t.Error("term never advanced")
	}
}

func TestRaftRecoveredNodeCatchesUp(t *testing.T) {
	eng, r := newRaft(9)
	fn, _ := collect()
	r.OnCommit(fn)
	eng.At(sim.Time(time.Second), func() {
		// Crash a follower, then write entries.
		l := r.Leader()
		for i := range r.nodes {
			if i != l {
				r.Crash(i)
				break
			}
		}
		for i := 0; i < 20; i++ {
			r.Submit(i)
		}
	})
	var down int
	eng.At(sim.Time(3*time.Second), func() {
		for i, n := range r.nodes {
			if !n.alive {
				down = i
				r.Recover(i)
				break
			}
		}
	})
	eng.RunUntil(sim.Time(8 * time.Second))
	n := r.nodes[down]
	if len(n.log) != 20 {
		t.Fatalf("recovered follower has %d entries, want 20", len(n.log))
	}
}

func TestRaftNoDuplicateDeliveries(t *testing.T) {
	eng, r := newRaft(10)
	seen := map[int]int{}
	r.OnCommit(func(p interface{}) { seen[p.(int)]++ })
	eng.At(sim.Time(time.Second), func() {
		for i := 0; i < 50; i++ {
			r.Submit(i)
		}
	})
	// Churn leadership twice.
	eng.At(sim.Time(2*time.Second), func() { r.Crash(r.Leader()) })
	eng.At(sim.Time(4*time.Second), func() {
		for i, n := range r.nodes {
			if !n.alive {
				r.Recover(i)
				break
			}
		}
	})
	eng.RunUntil(sim.Time(10 * time.Second))
	for v, c := range seen {
		if c != 1 {
			t.Fatalf("entry %d delivered %d times", v, c)
		}
	}
	if len(seen) != 50 {
		t.Fatalf("delivered %d distinct entries, want 50", len(seen))
	}
}

func TestRaftConfigValidation(t *testing.T) {
	eng := sim.NewEngine(1)
	net := netem.New(eng, netem.DefaultLAN())
	defer func() {
		if recover() == nil {
			t.Fatal("bad config accepted")
		}
	}()
	NewRaft(eng, net, RaftConfig{Nodes: 3, ElectionMin: time.Second, ElectionMax: time.Second})
}

// Property: under a random crash/recover schedule that always keeps a
// majority alive, Raft never loses or duplicates a committed entry and
// all live logs agree on the committed prefix.
func TestRaftChurnSafetyProperty(t *testing.T) {
	for seed := int64(20); seed < 26; seed++ {
		eng := sim.NewEngine(seed)
		net := netem.New(eng, netem.DefaultLAN())
		r := NewRaft(eng, net, DefaultRaftConfig())
		var delivered []int
		r.OnCommit(func(p interface{}) { delivered = append(delivered, p.(int)) })

		next := 0
		eng.Tick(200*time.Millisecond, func() {
			if next < 60 {
				r.Submit(next)
				next++
			}
		})
		// Random churn: crash one node, recover it, never losing
		// majority (only one node down at a time).
		down := -1
		eng.Tick(1100*time.Millisecond, func() {
			if down >= 0 {
				r.Recover(down)
				down = -1
				return
			}
			victim := int(eng.Rand().Int63n(int64(len(r.nodes))))
			r.Crash(victim)
			down = victim
		})
		eng.RunUntil(sim.Time(60 * time.Second))

		// Submission order is NOT preserved across failover (retried
		// envelopes may overtake) — the guarantee is no loss and no
		// duplication of committed entries.
		seen := map[int]int{}
		for _, v := range delivered {
			seen[v]++
		}
		if len(delivered) != 60 || len(seen) != 60 {
			t.Fatalf("seed %d: %d delivered, %d distinct", seed, len(delivered), len(seen))
		}
		for v, c := range seen {
			if c != 1 {
				t.Fatalf("seed %d: entry %d delivered %d times", seed, v, c)
			}
		}
		// Committed prefixes agree across live nodes.
		for _, n := range r.nodes {
			if !n.alive {
				continue
			}
			for i := 0; i < n.commitIndex; i++ {
				if got := n.log[i].payload.(int); got != delivered[i] {
					t.Fatalf("seed %d: node %d log[%d] = %d, global %d",
						seed, n.id, i, got, delivered[i])
				}
			}
		}
	}
}
