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
