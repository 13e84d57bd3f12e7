// Package netem models the cluster network: per-link latency with
// jitter, targeted delay injection in the style of Pumba, the Docker
// chaos tool the paper uses to emulate a geographically remote
// organization (§4.5, §5.1.7: an additional 100 ± 10 ms for one org),
// and the fault primitives of the adversity pack — node down states,
// partitions and probabilistic message loss — that the fabric layer's
// fault scheduler drives (Config.Faults).
//
// All fault state is inert by default: a model on which no fault
// primitive has ever been used draws exactly the rng stream and
// schedules exactly the events of the pre-fault implementation, so
// fault-free runs stay byte-identical.
package netem

import (
	"time"

	"repro/internal/sim"
)

// Link describes one directed hop's latency distribution.
type Link struct {
	Base   time.Duration // mean latency
	Jitter time.Duration // uniform ± jitter
}

// link names one directed hop. It keys the FIFO table by value, so an
// ordered message builds no key (the Kafka producer hop is one
// OrderedArrival per transaction).
type link struct{ from, to string }

// Model is the cluster network model. Delays compose: base LAN latency
// plus any injected delay on either endpoint.
type Model struct {
	eng      *sim.Engine
	lan      Link
	injected map[string]Link // node id -> extra delay on all its links
	// lastArrival enforces FIFO per directed link for OrderedArrival.
	lastArrival map[link]sim.Time

	// Fault state (all empty by default — see faulty). down nodes drop
	// every unreliable message they send or receive; island, when
	// non-nil, is the current partition's island set (messages crossing
	// the island boundary are dropped); loss maps a node to the
	// probability that an unreliable message touching it is dropped.
	down   map[string]bool
	island map[string]bool
	loss   map[string]float64
	// faulty caches whether any fault state is active, so the
	// fault-free fast path costs one boolean test and draws no rng.
	faulty bool
	// drops counts unreliable messages dropped by faults (diagnostics).
	drops int
}

// New returns a model with the given LAN profile. A Kubernetes-pod
// network is well below a millisecond; the default experiments use
// {500µs, 200µs}.
func New(eng *sim.Engine, lan Link) *Model {
	return &Model{
		eng:         eng,
		lan:         lan,
		injected:    map[string]Link{},
		lastArrival: map[link]sim.Time{},
		down:        map[string]bool{},
		loss:        map[string]float64{},
	}
}

// DefaultLAN is the intra-cluster link profile.
func DefaultLAN() Link {
	return Link{Base: 500 * time.Microsecond, Jitter: 200 * time.Microsecond}
}

// Inject adds an extra delay distribution to every link that touches
// node (Pumba's `netem delay`), in both directions: the extra is
// sampled once per message for which node is the source and once per
// message for which it is the destination, on top of the base LAN
// sample — a message between two injected nodes therefore pays both
// extras. Injections do not stack: injecting the same node again
// replaces the previous Link (the last call wins), and a zero Link
// removes the injection entirely. Inject returns the Link it replaced
// (zero when there was none), which is what a straggler window
// re-injects when it ends.
func (m *Model) Inject(node string, extra Link) (replaced Link) {
	replaced = m.injected[node]
	if extra == (Link{}) {
		delete(m.injected, node)
	} else {
		m.injected[node] = extra
	}
	return replaced
}

// SetDown marks a node crashed (down=true) or recovered (down=false).
// While down, every unreliable message (Send, Arrival) from or to the
// node is dropped — in-flight RPCs die with the process. Ordered
// streams still deliver; see OrderedArrival for why.
func (m *Model) SetDown(node string, down bool) {
	if down {
		m.down[node] = true
	} else {
		delete(m.down, node)
	}
	m.refault()
}

// Partition installs a network partition: island is the set of node
// names cut off from the rest of the cluster. Unreliable messages with
// exactly one endpoint inside the island are dropped; traffic within
// the island, and among the remaining nodes, flows normally. A new
// call replaces the previous partition; an empty set heals it.
func (m *Model) Partition(island []string) {
	if len(island) == 0 {
		m.Heal()
		return
	}
	m.island = make(map[string]bool, len(island))
	for _, n := range island {
		m.island[n] = true
	}
	m.refault()
}

// Heal removes the current partition.
func (m *Model) Heal() {
	m.island = nil
	m.refault()
}

// SetLoss sets the probability in (0,1] that an unreliable message
// from or to node is dropped (Pumba's `netem loss`). Each endpoint's
// probability is drawn independently. p <= 0 removes the loss regime
// from the node.
func (m *Model) SetLoss(node string, p float64) {
	if p <= 0 {
		delete(m.loss, node)
	} else {
		m.loss[node] = p
	}
	m.refault()
}

// Drops reports how many unreliable messages faults have dropped.
func (m *Model) Drops() int { return m.drops }

// refault recomputes the fast-path flag after a fault mutation.
func (m *Model) refault() {
	m.faulty = len(m.down) > 0 || m.island != nil || len(m.loss) > 0
}

// dropped decides whether an unreliable message from->to is lost to
// the active fault state. The decision is made at send time — down
// and partition windows are orders of magnitude longer than a link
// delay, so the difference from a delivery-time check is negligible
// and the FIFO bookkeeping stays untouched. Loss probabilities draw
// from the engine rng, like every other random decision; with no
// fault state active the method returns before any map lookup or rng
// draw.
func (m *Model) dropped(from, to string) bool {
	if !m.faulty {
		return false
	}
	if m.down[from] || m.down[to] {
		m.drops++
		return true
	}
	if m.island != nil && m.island[from] != m.island[to] {
		m.drops++
		return true
	}
	for _, n := range [2]string{from, to} {
		if p := m.loss[n]; p > 0 && m.eng.Rand().Float64() < p {
			m.drops++
			return true
		}
	}
	return false
}

// sample draws one latency for a link between from and to.
func (m *Model) sample(from, to string) time.Duration {
	d := m.one(m.lan)
	if extra, ok := m.injected[from]; ok {
		d += m.one(extra)
	}
	if extra, ok := m.injected[to]; ok {
		d += m.one(extra)
	}
	return d
}

func (m *Model) one(l Link) time.Duration {
	if l.Jitter <= 0 {
		return l.Base
	}
	return m.eng.Uniform(l.Base-l.Jitter, l.Base+l.Jitter)
}

// Send schedules fn on the engine after one sampled link delay from
// from to to. Send and Arrival are the unreliable datagram/RPC path —
// endorsement requests and responses, envelope submissions, commit
// events, gossip — and are subject to the fault primitives: a down
// endpoint, a partition boundary or a loss regime silently drops the
// message.
func (m *Model) Send(from, to string, fn func()) {
	if at, ok := m.Arrival(from, to); ok {
		m.eng.At(at, fn)
	}
}

// Arrival is Send for a receiver that queues its own messages
// (sim.Queue): it makes Send's drop decision and latency draw and
// returns when the message arrives, or false if it is dropped.
func (m *Model) Arrival(from, to string) (sim.Time, bool) {
	if m.dropped(from, to) {
		return 0, false
	}
	return m.eng.Now() + sim.Time(m.sample(from, to)), true
}

// OrderedArrival returns when a message sent now from from to to over a
// FIFO stream arrives: messages on the same directed link never
// overtake each other, like frames on one TCP connection. Use it for
// ordered protocols — producer → broker submission and orderer → peer
// block delivery.
//
// OrderedArrival deliberately ignores the fault primitives: it models
// Fabric's deliver service, where a peer's client re-fetches any block
// range it missed, so the stream is reliable end-to-end even across
// crashes and partitions. Crash semantics for block delivery live at
// the receiving node instead — a crashed peer queues delivered blocks
// as its missed ledger suffix and replays them on restart.
func (m *Model) OrderedArrival(from, to string) sim.Time {
	key := link{from, to}
	at := m.eng.Now() + sim.Time(m.sample(from, to))
	if last := m.lastArrival[key]; at <= last {
		at = last + 1 // nanosecond bump keeps strict FIFO
	}
	m.lastArrival[key] = at
	return at
}

// RTT estimates a round trip between two nodes (two samples).
func (m *Model) RTT(a, b string) time.Duration {
	return m.sample(a, b) + m.sample(b, a)
}
