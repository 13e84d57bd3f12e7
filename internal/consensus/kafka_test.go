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

// A leader that dies with payloads on their way to it loses them on
// arrival, as its inbox hands them over one by one, and they are
// buffered for the next leader: each commits exactly once, in
// submission order, after the election.
func TestKafkaLeaderDiesWithInboxQueued(t *testing.T) {
	eng, k := newKafka(5)
	var got []int
	var at []sim.Time
	k.OnCommit(func(p interface{}) { got, at = append(got, p.(int)), append(at, eng.Now()) })
	crash := sim.Time(50 * time.Millisecond)
	eng.At(sim.Time(10*time.Millisecond), func() { k.Submit(0) })
	eng.At(crash, func() {
		for i := 1; i <= 4; i++ {
			k.Submit(i) // in the leader's inbox, one link delay out
		}
		k.Crash(k.Leader())
	})
	eng.Run()
	if err := inOrder(got, 5); err != nil {
		t.Fatal(err)
	}
	if at[0] >= crash {
		t.Errorf("payload 0 committed at %v, after the crash", at[0])
	}
	for i, when := range at[1:] {
		if elected := crash + sim.Time(DefaultKafkaConfig().ElectionDelay); when < elected {
			t.Errorf("payload %d committed at %v, before the election at %v", i+1, when, elected)
		}
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
