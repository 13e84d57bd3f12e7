// Package consensus implements the ordering service's total-order
// broadcast: the Kafka-backed substrate, the one the paper deploys
// (§4.2, Table 3) and every study here runs on. It runs on the
// discrete-event engine and delivers submitted payloads exactly once,
// in a single total order, to a registered callback.
package consensus

import (
	"fmt"
	"time"

	"repro/internal/netem"
	"repro/internal/sim"
)

// Kafka models the Kafka-backed ordering service the paper deploys
// (§4.2): a broker cluster with one partition leader that appends
// submissions to a replicated log. An entry commits once the in-sync
// replicas have acknowledged it. Broker failure triggers controller
// re-election of a partition leader among the surviving in-sync
// replicas; submissions made during the leadership gap are buffered
// and replayed, preserving total order.
type Kafka struct {
	eng     *sim.Engine
	net     *netem.Model
	fn      func(interface{})
	brokers []*broker
	leader  int
	// minISR is the number of replica acks (including the leader)
	// required to commit.
	minISR int
	// electionDelay is the controller failover time.
	electionDelay time.Duration
	pending       []interface{} // buffered while leaderless
	nextSeq       uint64
	// holdback reorders ack completions back into submission order.
	holdback  map[uint64]interface{}
	delivered uint64
	// acks holds the entries whose replication round trip is under way,
	// each under the time the ISR has acknowledged it.
	acks *sim.Queue[entry]
}

type broker struct {
	id    string
	alive bool
	// lag is this broker's replication latency to the leader.
	lag time.Duration
	// inbox holds the payloads on the producer stream to this broker.
	inbox *sim.Queue[interface{}]
}

// entry is a payload the leader appended at seq.
type entry struct {
	seq     uint64
	payload interface{}
}

// KafkaConfig tunes the broker cluster.
type KafkaConfig struct {
	Brokers       int
	MinISR        int
	ReplicaLag    time.Duration // mean follower ack latency
	ElectionDelay time.Duration
}

// DefaultKafkaConfig mirrors the paper's three-orderer Kafka setup.
func DefaultKafkaConfig() KafkaConfig {
	return KafkaConfig{
		Brokers:       3,
		MinISR:        2,
		ReplicaLag:    2 * time.Millisecond,
		ElectionDelay: 5 * time.Second,
	}
}

// NewKafka builds the broker cluster.
func NewKafka(eng *sim.Engine, net *netem.Model, cfg KafkaConfig) *Kafka {
	if cfg.Brokers < 1 || cfg.MinISR < 1 || cfg.MinISR > cfg.Brokers {
		panic(fmt.Sprintf("consensus: bad kafka config %+v", cfg))
	}
	k := &Kafka{
		eng: eng, net: net,
		minISR:        cfg.MinISR,
		electionDelay: cfg.ElectionDelay,
		holdback:      map[uint64]interface{}{},
	}
	k.acks = sim.NewQueue(eng, k.commit)
	for i := 0; i < cfg.Brokers; i++ {
		b := &broker{
			id:    fmt.Sprintf("kafka%d", i),
			alive: true,
			lag:   cfg.ReplicaLag,
		}
		b.inbox = sim.NewQueue(eng, func(payload interface{}) { k.append(b, payload) })
		k.brokers = append(k.brokers, b)
	}
	return k
}

// OnCommit registers the delivery callback, which fires once per
// payload, in order, at the virtual time the payload becomes final. It
// must be set before the first Submit.
func (k *Kafka) OnCommit(fn func(interface{})) { k.fn = fn }

// Leader returns the current partition leader's broker id, or -1 when
// leaderless.
func (k *Kafka) Leader() int { return k.leader }

// Submit enqueues a payload for ordering: it travels to the leader,
// replicates to the ISR, then commits.
func (k *Kafka) Submit(payload interface{}) {
	if k.fn == nil {
		panic("consensus: Submit before OnCommit")
	}
	if k.leader < 0 || !k.brokers[k.leader].alive {
		k.pending = append(k.pending, payload)
		return
	}
	// Producer -> leader hop.
	leader := k.brokers[k.leader]
	leader.inbox.At(k.net.OrderedArrival("producer", leader.id), payload)
}

// append is payload reaching broker b, which was the leader when it was
// sent.
func (k *Kafka) append(b *broker, payload interface{}) {
	if !b.alive {
		// Lost mid-flight: buffer for the next leader.
		k.pending = append(k.pending, payload)
		return
	}
	// Replication: the commit happens after the (minISR-1)'th follower
	// ack round trip.
	ackDelay := time.Duration(0)
	if k.minISR > 1 {
		ackDelay = k.eng.Jittered(2*b.lag, 0.3)
	}
	k.acks.At(k.eng.Now()+sim.Time(ackDelay), entry{k.nextSeq, payload})
	k.nextSeq++
}

// commit delivers entries in sequence order even if ack timers fire
// out of order.
func (k *Kafka) commit(e entry) {
	// Sequence numbers are assigned in submission order at the
	// leader; deliveries with jittered ack delays could overtake each
	// other, so hold back until predecessors are in.
	k.holdback[e.seq] = e.payload
	for {
		p, ok := k.holdback[k.delivered]
		if !ok {
			return
		}
		delete(k.holdback, k.delivered)
		k.delivered++
		k.fn(p)
	}
}

// Crash kills a broker. If it was the leader, a controller election
// starts; pending submissions resume under the new leader.
func (k *Kafka) Crash(i int) {
	if i < 0 || i >= len(k.brokers) || !k.brokers[i].alive {
		return
	}
	k.brokers[i].alive = false
	if i != k.leader {
		return
	}
	k.leader = -1
	k.eng.After(k.electionDelay, func() {
		for j, b := range k.brokers {
			if b.alive {
				k.leader = j
				break
			}
		}
		if k.leader >= 0 {
			replay := k.pending
			k.pending = nil
			for _, p := range replay {
				k.Submit(p)
			}
		}
	})
}

// Recover restarts a crashed broker (it rejoins as a follower).
func (k *Kafka) Recover(i int) {
	if i < 0 || i >= len(k.brokers) {
		return
	}
	k.brokers[i].alive = true
	if k.leader < 0 {
		k.leader = i
		replay := k.pending
		k.pending = nil
		for _, p := range replay {
			k.Submit(p)
		}
	}
}
