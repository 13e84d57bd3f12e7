package consensus

import (
	"fmt"
	"time"

	"repro/internal/netem"
	"repro/internal/sim"
)

// Raft is a full Raft implementation (leader election, heartbeats, log
// replication, majority commit) running on the discrete-event engine —
// the consensus protocol the paper cites for the ordering service
// ([31], Ongaro & Ousterhout). Messages travel over the netem model so
// elections and replication pay real (virtual) network latency.
type Raft struct {
	eng   *sim.Engine
	net   *netem.Model
	fn    func(interface{})
	nodes []*raftNode
	cfg   RaftConfig
	// exactly-once global delivery: entries are identical on every
	// node at a given index, so the first apply of an index wins.
	applied uint64
}

// RaftConfig tunes timeouts.
type RaftConfig struct {
	Nodes          int
	HeartbeatEvery time.Duration
	ElectionMin    time.Duration
	ElectionMax    time.Duration
	ForwardRetry   time.Duration // client retry while leaderless
}

// DefaultRaftConfig mirrors a three-node orderer set with standard
// Raft timeouts.
func DefaultRaftConfig() RaftConfig {
	return RaftConfig{
		Nodes:          3,
		HeartbeatEvery: 50 * time.Millisecond,
		ElectionMin:    150 * time.Millisecond,
		ElectionMax:    300 * time.Millisecond,
		ForwardRetry:   50 * time.Millisecond,
	}
}

type raftRole int

const (
	follower raftRole = iota
	candidate
	leader
)

type raftEntry struct {
	term    uint64
	payload interface{}
}

type raftNode struct {
	r     *Raft
	id    int
	name  string
	alive bool
	role  raftRole

	currentTerm uint64
	votedFor    int // -1 none
	log         []raftEntry
	commitIndex int // highest committed (1-based length semantics: index into log+1)
	lastApplied int

	nextIndex  []int
	matchIndex []int
	votes      map[int]bool

	electionDeadline sim.Time
}

// NewRaft constructs and starts the cluster: all nodes begin as
// followers with randomized election timers.
func NewRaft(eng *sim.Engine, net *netem.Model, cfg RaftConfig) *Raft {
	if cfg.Nodes < 1 || cfg.ElectionMin <= 0 || cfg.ElectionMax <= cfg.ElectionMin {
		panic(fmt.Sprintf("consensus: bad raft config %+v", cfg))
	}
	r := &Raft{eng: eng, net: net, cfg: cfg}
	for i := 0; i < cfg.Nodes; i++ {
		n := &raftNode{
			r: r, id: i, name: fmt.Sprintf("raft%d", i),
			alive: true, votedFor: -1,
			commitIndex: 0, lastApplied: 0,
		}
		r.nodes = append(r.nodes, n)
	}
	for _, n := range r.nodes {
		n.resetElectionTimer()
	}
	// A single cluster ticker drives timeout checks and heartbeats.
	eng.Tick(cfg.HeartbeatEvery/2, r.tick)
	return r
}

// Name implements Consenter.
func (r *Raft) Name() string { return "raft" }

// OnCommit implements Consenter.
func (r *Raft) OnCommit(fn func(interface{})) { r.fn = fn }

// Leader returns the current leader id, or -1.
func (r *Raft) Leader() int {
	for _, n := range r.nodes {
		if n.alive && n.role == leader {
			return n.id
		}
	}
	return -1
}

// Term returns the highest term among live nodes (diagnostics).
func (r *Raft) Term() uint64 {
	var t uint64
	for _, n := range r.nodes {
		if n.alive && n.currentTerm > t {
			t = n.currentTerm
		}
	}
	return t
}

// Submit implements Consenter: the payload is forwarded to the leader;
// while leaderless it retries until a leader emerges.
func (r *Raft) Submit(payload interface{}) {
	if r.fn == nil {
		panic("consensus: Submit before OnCommit")
	}
	l := r.Leader()
	if l < 0 {
		r.eng.After(r.cfg.ForwardRetry, func() { r.Submit(payload) })
		return
	}
	ln := r.nodes[l]
	r.net.SendOrdered("producer", ln.name, func() {
		if !ln.alive || ln.role != leader {
			r.eng.After(r.cfg.ForwardRetry, func() { r.Submit(payload) })
			return
		}
		ln.log = append(ln.log, raftEntry{term: ln.currentTerm, payload: payload})
		ln.replicate()
	})
}

// Crash stops a node; its timers are ignored until Recover.
func (r *Raft) Crash(i int) {
	if i >= 0 && i < len(r.nodes) {
		r.nodes[i].alive = false
	}
}

// Recover restarts a node as a follower; Raft's log reconciliation
// brings it back up to date.
func (r *Raft) Recover(i int) {
	if i < 0 || i >= len(r.nodes) {
		return
	}
	n := r.nodes[i]
	n.alive = true
	n.role = follower
	n.votedFor = -1
	n.resetElectionTimer()
}

func (r *Raft) tick() {
	now := r.eng.Now()
	for _, n := range r.nodes {
		if !n.alive {
			continue
		}
		switch n.role {
		case leader:
			n.replicate() // heartbeat + catch-up
		default:
			if now >= n.electionDeadline {
				n.startElection()
			}
		}
	}
}

func (n *raftNode) resetElectionTimer() {
	d := n.r.eng.Uniform(n.r.cfg.ElectionMin, n.r.cfg.ElectionMax)
	n.electionDeadline = n.r.eng.Now() + sim.Time(d)
}

func (n *raftNode) lastLogIndex() int { return len(n.log) }
func (n *raftNode) lastLogTerm() uint64 {
	if len(n.log) == 0 {
		return 0
	}
	return n.log[len(n.log)-1].term
}

func (n *raftNode) startElection() {
	n.role = candidate
	n.currentTerm++
	n.votedFor = n.id
	n.votes = map[int]bool{n.id: true}
	n.resetElectionTimer()
	term := n.currentTerm
	lli, llt := n.lastLogIndex(), n.lastLogTerm()
	for _, peer := range n.r.nodes {
		if peer.id == n.id {
			continue
		}
		peer := peer
		n.r.net.Send(n.name, peer.name, func() {
			granted, replyTerm := peer.handleRequestVote(term, n.id, lli, llt)
			n.r.net.Send(peer.name, n.name, func() {
				n.handleVoteReply(term, peer.id, granted, replyTerm)
			})
		})
	}
}

func (n *raftNode) handleRequestVote(term uint64, candidateID, lli int, llt uint64) (bool, uint64) {
	if !n.alive {
		return false, 0
	}
	if term > n.currentTerm {
		n.stepDown(term)
	}
	if term < n.currentTerm {
		return false, n.currentTerm
	}
	upToDate := llt > n.lastLogTerm() ||
		(llt == n.lastLogTerm() && lli >= n.lastLogIndex())
	if (n.votedFor == -1 || n.votedFor == candidateID) && upToDate {
		n.votedFor = candidateID
		n.resetElectionTimer()
		return true, n.currentTerm
	}
	return false, n.currentTerm
}

func (n *raftNode) handleVoteReply(term uint64, voterID int, granted bool, replyTerm uint64) {
	if !n.alive || n.role != candidate || n.currentTerm != term {
		return
	}
	if replyTerm > n.currentTerm {
		n.stepDown(replyTerm)
		return
	}
	if !granted {
		return
	}
	n.votes[voterID] = true
	if len(n.votes) > len(n.r.nodes)/2 {
		n.becomeLeader()
	}
}

func (n *raftNode) becomeLeader() {
	n.role = leader
	n.nextIndex = make([]int, len(n.r.nodes))
	n.matchIndex = make([]int, len(n.r.nodes))
	for i := range n.nextIndex {
		n.nextIndex[i] = n.lastLogIndex() + 1
	}
	n.matchIndex[n.id] = n.lastLogIndex()
	n.replicate()
}

func (n *raftNode) stepDown(term uint64) {
	n.currentTerm = term
	n.role = follower
	n.votedFor = -1
	n.resetElectionTimer()
}

// replicate sends AppendEntries to every follower (empty = heartbeat).
func (n *raftNode) replicate() {
	if n.role != leader || !n.alive {
		return
	}
	n.matchIndex[n.id] = n.lastLogIndex()
	for _, peer := range n.r.nodes {
		if peer.id == n.id {
			continue
		}
		peer := peer
		prevIndex := n.nextIndex[peer.id] - 1
		if prevIndex > len(n.log) {
			prevIndex = len(n.log)
		}
		var prevTerm uint64
		if prevIndex > 0 {
			prevTerm = n.log[prevIndex-1].term
		}
		entries := append([]raftEntry(nil), n.log[prevIndex:]...)
		term := n.currentTerm
		leaderCommit := n.commitIndex
		n.r.net.Send(n.name, peer.name, func() {
			ok, replyTerm, matched := peer.handleAppendEntries(term, n.id, prevIndex, prevTerm, entries, leaderCommit)
			n.r.net.Send(peer.name, n.name, func() {
				n.handleAppendReply(peer.id, term, ok, replyTerm, matched)
			})
		})
	}
}

func (n *raftNode) handleAppendEntries(term uint64, leaderID, prevIndex int, prevTerm uint64, entries []raftEntry, leaderCommit int) (bool, uint64, int) {
	if !n.alive {
		return false, 0, 0
	}
	if term < n.currentTerm {
		return false, n.currentTerm, 0
	}
	if term > n.currentTerm || n.role != follower {
		n.stepDown(term)
	}
	n.resetElectionTimer()
	if prevIndex > len(n.log) {
		return false, n.currentTerm, 0
	}
	if prevIndex > 0 && n.log[prevIndex-1].term != prevTerm {
		n.log = n.log[:prevIndex-1]
		return false, n.currentTerm, 0
	}
	// Append/overwrite from prevIndex.
	n.log = append(n.log[:prevIndex], entries...)
	if leaderCommit > n.commitIndex {
		ci := leaderCommit
		if ci > len(n.log) {
			ci = len(n.log)
		}
		n.commitIndex = ci
		n.applyCommitted()
	}
	return true, n.currentTerm, len(n.log)
}

func (n *raftNode) handleAppendReply(peerID int, term uint64, ok bool, replyTerm uint64, matched int) {
	if !n.alive || n.role != leader || n.currentTerm != term {
		return
	}
	if replyTerm > n.currentTerm {
		n.stepDown(replyTerm)
		return
	}
	if !ok {
		if n.nextIndex[peerID] > 1 {
			n.nextIndex[peerID]--
		}
		return
	}
	n.matchIndex[peerID] = matched
	n.nextIndex[peerID] = matched + 1
	// Advance commitIndex: highest index replicated on a majority
	// with an entry from the current term.
	for idx := len(n.log); idx > n.commitIndex; idx-- {
		if n.log[idx-1].term != n.currentTerm {
			break
		}
		count := 0
		for _, m := range n.matchIndex {
			if m >= idx {
				count++
			}
		}
		if count > len(n.r.nodes)/2 {
			n.commitIndex = idx
			n.applyCommitted()
			break
		}
	}
}

// applyCommitted fires the global callback exactly once per index.
func (n *raftNode) applyCommitted() {
	for n.lastApplied < n.commitIndex {
		n.lastApplied++
		idx := uint64(n.lastApplied)
		if idx > n.r.applied {
			n.r.applied = idx
			n.r.fn(n.log[n.lastApplied-1].payload)
		}
	}
}
