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
// replicas have acknowledged it.
type Kafka struct {
	eng *sim.Engine
	net *netem.Model
	fn  func(interface{})
	// minISR is the number of replica acks (including the leader)
	// required to commit.
	minISR int
	// lag is a follower's replication latency to the leader.
	lag time.Duration
	// inbox holds the payloads on the producer stream to the leader.
	inbox   *sim.Queue[interface{}]
	nextSeq uint64
	// holdback reorders ack completions back into submission order.
	holdback  map[uint64]interface{}
	delivered uint64
	// acks holds the entries whose replication round trip is under way,
	// each under the time the ISR has acknowledged it.
	acks *sim.Queue[entry]
}

// leader is the partition leader's broker id.
const leader = "kafka0"

// entry is a payload the leader appended at seq.
type entry struct {
	seq     uint64
	payload interface{}
}

// KafkaConfig tunes the broker cluster.
type KafkaConfig struct {
	Brokers    int
	MinISR     int
	ReplicaLag time.Duration // mean follower ack latency
}

// DefaultKafkaConfig mirrors the paper's three-orderer Kafka setup.
func DefaultKafkaConfig() KafkaConfig {
	return KafkaConfig{
		Brokers:    3,
		MinISR:     2,
		ReplicaLag: 2 * time.Millisecond,
	}
}

// NewKafka builds the broker cluster.
func NewKafka(eng *sim.Engine, net *netem.Model, cfg KafkaConfig) *Kafka {
	if cfg.Brokers < 1 || cfg.MinISR < 1 || cfg.MinISR > cfg.Brokers {
		panic(fmt.Sprintf("consensus: bad kafka config %+v", cfg))
	}
	k := &Kafka{
		eng: eng, net: net,
		minISR:   cfg.MinISR,
		lag:      cfg.ReplicaLag,
		holdback: map[uint64]interface{}{},
	}
	k.acks = sim.NewQueue(eng, k.commit)
	k.inbox = sim.NewQueue(eng, k.append)
	return k
}

// OnCommit registers the delivery callback, which fires once per
// payload, in order, at the virtual time the payload becomes final. It
// must be set before the first Submit.
func (k *Kafka) OnCommit(fn func(interface{})) { k.fn = fn }

// Submit enqueues a payload for ordering: it travels to the leader,
// replicates to the ISR, then commits.
func (k *Kafka) Submit(payload interface{}) {
	if k.fn == nil {
		panic("consensus: Submit before OnCommit")
	}
	// Producer -> leader hop.
	k.inbox.At(k.net.OrderedArrival("producer", leader), payload)
}

// append is payload reaching the leader.
func (k *Kafka) append(payload interface{}) {
	// Replication: the commit happens after the (minISR-1)'th follower
	// ack round trip.
	ackDelay := time.Duration(0)
	if k.minISR > 1 {
		ackDelay = k.eng.Jittered(2*k.lag, 0.3)
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
