package fabric

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"time"

	"repro/internal/costmodel"
	"repro/internal/netem"
	"repro/internal/sim"
)

// Faults is the deterministic fault-injection schedule
// (Config.Faults): the adverse regimes of the ChackoMJ21 failure
// taxonomy — node crashes, partitions, message loss, stragglers, a
// slow state database — expressed as timed windows on the virtual
// clock plus client-side deadlines. Every window is virtual-time
// driven, never wall-clock, so a faulted run is byte-identical at any
// experiment parallelism.
//
// A schedule is either a named Scenario — expanded into concrete
// events at network construction from the run's seed and duration —
// or an explicit Events list; the two are mutually exclusive. Nil
// (the default) disables the subsystem completely: no events are
// scheduled, no rng is drawn, and runs are byte-identical to a build
// without it, so every pre-fault golden is unchanged.
type Faults struct {
	// Scenario names a predefined fault script (see FaultScenarios):
	// "crash", "partition", "flaky", "straggler", "slowdb" or "chaos".
	// It expands into Events at NewNetwork time, with window positions
	// fixed as fractions of Config.Duration and targets drawn from a
	// seed-derived rng separate from the simulation stream. Empty means
	// Events are given explicitly.
	Scenario string

	// Events is the explicit fault schedule. Mutually exclusive with
	// Scenario.
	Events []FaultEvent

	// EndorseTimeout is the client-side deadline on collecting a
	// policy-satisfying endorsement set: when it expires before every
	// endorser answered, the attempt fails as CLIENT_TIMEOUT and feeds
	// the retry path. 0 disables the deadline. The crash, partition,
	// flaky and chaos scenarios default it to 1s. Requires outcome
	// tracking (a retry policy or closed-loop mode), like every other
	// client reaction.
	EndorseTimeout time.Duration

	// SubmitTimeout is the client-side deadline between envelope
	// submission and the commit (or abort) event: when it expires
	// first, the attempt fails as CLIENT_TIMEOUT and is retried —
	// a transaction that later commits anyway is counted orphaned.
	// 0 disables the deadline. The crash, partition, flaky and chaos
	// scenarios default it to 4s.
	SubmitTimeout time.Duration
}

// FaultKind names one fault primitive.
type FaultKind string

const (
	// FaultCrashPeer crashes one peer: its in-flight endorsements and
	// queued commits are dropped, unreliable messages from and to it
	// are black-holed, and on restart it replays the block suffix it
	// missed from the (durable) ledger stream.
	FaultCrashPeer FaultKind = "crash-peer"
	// FaultCrashOrderer crashes one channel's ordering service: the
	// pending batch and everything in flight is lost (clients recover
	// via SubmitTimeout); the cut chain itself is durable, so the
	// restarted service continues at the same block number and prev
	// hash.
	FaultCrashOrderer FaultKind = "crash-orderer"
	// FaultPartition cuts one organization's peers off from the rest
	// of the cluster for the window.
	FaultPartition FaultKind = "partition"
	// FaultStraggler injects an extra delay distribution (Extra) on
	// one peer's links for the window — the Pumba emulation of §5.1.7
	// as a transient regime.
	FaultStraggler FaultKind = "straggler"
	// FaultLoss drops each unreliable message touching one peer with
	// probability Factor for the window.
	FaultLoss FaultKind = "loss"
	// FaultSlowDB multiplies every state-database operation cost by
	// Factor for the window — a compacting/overloaded CouchDB.
	FaultSlowDB FaultKind = "slowdb"
)

// FaultEvent is one timed fault window: Kind applied at At for For,
// then reverted. Targets index into the network's topology (peer
// index, channel index for the orderer, org index for partitions) and
// wrap modulo the respective count, so schedules stay valid across
// cluster sizes.
//
// A window saves the state it overrides and restores it when it ends,
// so two windows of one kind on one victim must not intersect or touch
// (Config.Validate rejects them): the inner window's end would lift the
// outer fault early and the outer one's saved state would be lost.
// Victims compare after wrapping; every partition shares the one
// network cut and every slowdb the one cost table, so any two of
// either count as the same victim. Windows of different kinds overlap
// freely.
type FaultEvent struct {
	Kind FaultKind
	At   time.Duration // window start, virtual time
	For  time.Duration // window length

	// Target selects the victim: peer index (crash-peer, straggler,
	// loss), channel index (crash-orderer), or org index (partition).
	// Ignored by slowdb.
	Target int

	// Factor parameterizes loss (drop probability in (0,1]) and slowdb
	// (cost multiplier >= 1).
	Factor float64

	// Extra is the straggler's injected delay distribution.
	Extra netem.Link
}

// FaultScenarios lists the predefined scenario names in display order.
func FaultScenarios() []string {
	return []string{"crash", "partition", "flaky", "straggler", "slowdb", "chaos"}
}

// Validate reports configuration errors with the offending values and
// their units.
func (f *Faults) Validate() error {
	if f.Scenario != "" && !slices.Contains(FaultScenarios(), f.Scenario) {
		return fmt.Errorf("fabric: unknown fault scenario %q, want one of %s",
			f.Scenario, strings.Join(FaultScenarios(), ", "))
	}
	if f.Scenario != "" && len(f.Events) > 0 {
		return fmt.Errorf("fabric: fault scenario %q and %d explicit events are mutually exclusive",
			f.Scenario, len(f.Events))
	}
	if f.EndorseTimeout < 0 {
		return fmt.Errorf("fabric: endorsement timeout must be >= 0, got %v", f.EndorseTimeout)
	}
	if f.SubmitTimeout < 0 {
		return fmt.Errorf("fabric: submission timeout must be >= 0, got %v", f.SubmitTimeout)
	}
	for i, ev := range f.Events {
		if err := ev.validate(); err != nil {
			return fmt.Errorf("fabric: fault event %d: %w", i, err)
		}
	}
	return nil
}

func (ev FaultEvent) validate() error {
	switch ev.Kind {
	case FaultCrashPeer, FaultCrashOrderer, FaultPartition, FaultStraggler, FaultLoss, FaultSlowDB:
	default:
		return fmt.Errorf("unknown fault kind %q", string(ev.Kind))
	}
	switch {
	case ev.At < 0:
		return fmt.Errorf("window start must be >= 0, got %v", ev.At)
	case ev.For <= 0:
		return fmt.Errorf("window length must be positive, got %v", ev.For)
	case ev.Target < 0:
		return fmt.Errorf("target index must be >= 0, got %d", ev.Target)
	}
	switch ev.Kind {
	case FaultLoss:
		if ev.Factor <= 0 || ev.Factor > 1 {
			return fmt.Errorf("loss probability must be in (0,1], got %g", ev.Factor)
		}
	case FaultSlowDB:
		if ev.Factor < 1 {
			return fmt.Errorf("slowdb cost multiplier must be >= 1, got %g", ev.Factor)
		}
	case FaultStraggler:
		if ev.Extra.Base <= 0 {
			return fmt.Errorf("straggler extra delay must be positive, got %v", ev.Extra.Base)
		}
		if ev.Extra.Jitter < 0 || ev.Extra.Jitter > ev.Extra.Base {
			return fmt.Errorf("straggler jitter must be in [0, base %v], got %v", ev.Extra.Base, ev.Extra.Jitter)
		}
	}
	return nil
}

// clause renders the event like the `-faults` clause that declares it,
// without the kind-specific parameter: "crash-peer:3@5s+6s".
func (ev FaultEvent) clause() string {
	return fmt.Sprintf("%s:%d@%v+%v", string(ev.Kind), ev.Target, ev.At, ev.For)
}

// victim is the state a window of this kind overrides, after wrapping
// the target into a deployment of the given size.
func (ev FaultEvent) victim(peers, channels int) int {
	switch ev.Kind {
	case FaultCrashOrderer:
		return ev.Target % channels
	case FaultPartition, FaultSlowDB:
		return 0 // one network cut, one cost table
	default:
		return ev.Target % peers
	}
}

// validateOverlap rejects two windows of one kind that intersect or
// touch on one victim (see FaultEvent).
func (f *Faults) validateOverlap(peers, channels int) error {
	for i, a := range f.Events {
		for j, b := range f.Events[:i] {
			if a.Kind == b.Kind && a.victim(peers, channels) == b.victim(peers, channels) &&
				a.At <= b.At+b.For && b.At <= a.At+a.For {
				return fmt.Errorf("fabric: fault events %d (%s) and %d (%s) are %s windows on the same victim that overlap or touch; "+
					"a window restores the state it found, so leave a gap between them",
					j, b.clause(), i, a.clause(), string(a.Kind))
			}
		}
	}
	return nil
}

// faultSeedSalt decorrelates the fault-target rng from the engine
// stream and from the other seed-derived streams (channel replicas,
// validators).
const faultSeedSalt = 0x5fa017

// resolve expands a scenario into concrete events for a deployment of
// the given size. Window positions are fixed fractions of the run
// duration; victims are drawn from a seed-derived rng that is separate
// from the engine stream, so the fault schedule never perturbs the
// workload's randomness. Explicit Events pass through unchanged.
// The crash, partition, flaky and chaos scenarios default the client
// deadlines (EndorseTimeout 1s, SubmitTimeout 4s) when unset, since
// without them clients would hang on work the fault destroyed.
func (f Faults) resolve(seed int64, dur time.Duration, peers, orgs, channels int) Faults {
	if f.Scenario == "" {
		return f
	}
	rng := rand.New(rand.NewSource(seed*31 + faultSeedSalt))
	frac := func(x float64) time.Duration { return time.Duration(x * float64(dur)) }
	peer := func() int { return rng.Intn(peers) }
	// Partition victims avoid org 0, whose first peer is the metrics
	// peer and event hub: cutting it off would measure event-plumbing
	// loss, not partition behaviour.
	org := func() int {
		if orgs < 2 {
			return 0
		}
		return 1 + rng.Intn(orgs-1)
	}
	deadlines := false
	switch f.Scenario {
	case "crash":
		f.Events = []FaultEvent{
			{Kind: FaultCrashOrderer, At: frac(0.25), For: frac(0.15), Target: rng.Intn(channels)},
			{Kind: FaultCrashPeer, At: frac(0.55), For: frac(0.15), Target: peer()},
		}
		deadlines = true
	case "partition":
		f.Events = []FaultEvent{
			{Kind: FaultPartition, At: frac(0.3), For: frac(0.25), Target: org()},
		}
		deadlines = true
	case "flaky":
		f.Events = []FaultEvent{
			{Kind: FaultLoss, At: frac(0.2), For: frac(0.6), Target: peer(), Factor: 0.1},
		}
		deadlines = true
	case "straggler":
		f.Events = []FaultEvent{
			{Kind: FaultStraggler, At: frac(0.25), For: frac(0.5), Target: peer(),
				Extra: netem.Link{Base: 100 * time.Millisecond, Jitter: 10 * time.Millisecond}},
		}
	case "slowdb":
		f.Events = []FaultEvent{
			{Kind: FaultSlowDB, At: frac(0.3), For: frac(0.4), Factor: 4},
		}
	case "chaos":
		f.Events = []FaultEvent{
			{Kind: FaultCrashOrderer, At: frac(0.2), For: frac(0.1), Target: rng.Intn(channels)},
			{Kind: FaultPartition, At: frac(0.4), For: frac(0.15), Target: org()},
			{Kind: FaultCrashPeer, At: frac(0.6), For: frac(0.1), Target: peer()},
			{Kind: FaultLoss, At: frac(0.75), For: frac(0.15), Target: peer(), Factor: 0.1},
		}
		deadlines = true
	}
	f.Scenario = ""
	if deadlines {
		if f.EndorseTimeout == 0 {
			f.EndorseTimeout = time.Second
		}
		if f.SubmitTimeout == 0 {
			f.SubmitTimeout = 4 * time.Second
		}
	}
	return f
}

// ParseFaults parses the CLI `-faults` spec. "off" (or "") disables
// fault injection. A bare scenario name ("crash", "chaos", ...)
// selects that predefined script. Otherwise the spec is a
// comma-separated clause list:
//
//	kind[:target]@start+dur[:param]   one fault window
//	etimeout=DUR                      client endorsement deadline
//	stimeout=DUR                      client submission deadline
//
// where kind is crash-peer, crash-orderer, partition, straggler, loss
// or slowdb; target is the victim index (peer, channel or org,
// defaulting to 0); start and dur are Go durations on the virtual
// clock; and param is kind-specific — straggler "base[~jitter]"
// (default 100ms~10ms), loss drop probability (default 0.1), slowdb
// cost multiplier (default 4). Example:
//
//	crash-peer:1@5s+10s,partition:1@20s+5s,etimeout=2s,stimeout=4s
func ParseFaults(s string) (*Faults, error) {
	switch strings.ToLower(s) {
	case "", "off":
		return nil, nil
	}
	if slices.Contains(FaultScenarios(), s) {
		return &Faults{Scenario: s}, nil
	}
	var f Faults
	for _, clause := range strings.Split(s, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			return nil, fmt.Errorf("fabric: faults %q: empty clause", s)
		}
		if v, ok := strings.CutPrefix(clause, "etimeout="); ok {
			if err := parseValue("faults endorsement timeout", v, &f.EndorseTimeout); err != nil {
				return nil, err
			}
			continue
		}
		if v, ok := strings.CutPrefix(clause, "stimeout="); ok {
			if err := parseValue("faults submission timeout", v, &f.SubmitTimeout); err != nil {
				return nil, err
			}
			continue
		}
		ev, err := parseFaultEvent(clause)
		if err != nil {
			return nil, err
		}
		f.Events = append(f.Events, ev)
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return &f, nil
}

// parseFaultEvent parses one `kind[:target]@start+dur[:param]` clause.
func parseFaultEvent(clause string) (FaultEvent, error) {
	var ev FaultEvent
	head, tail, ok := strings.Cut(clause, "@")
	if !ok {
		return ev, fmt.Errorf("fabric: fault clause %q: want kind[:target]@start+dur[:param]", clause)
	}
	kind, target, hasTarget := strings.Cut(head, ":")
	ev.Kind = FaultKind(kind)
	if hasTarget {
		if err := parseValue("fault target", target, &ev.Target); err != nil {
			return ev, err
		}
	}
	startStr, durStr, ok := strings.Cut(tail, "+")
	if !ok {
		return ev, fmt.Errorf("fabric: fault window %q: want start+dur", tail)
	}
	durStr, param, hasParam := strings.Cut(durStr, ":")
	if err := parseValue("fault window start", startStr, &ev.At); err != nil {
		return ev, err
	}
	if err := parseValue("fault window length", durStr, &ev.For); err != nil {
		return ev, err
	}

	// Each kind's parameter is one more typed field with a default.
	var err error
	switch ev.Kind {
	case FaultStraggler:
		ev.Extra = netem.Link{Base: 100 * time.Millisecond, Jitter: 10 * time.Millisecond}
		if hasParam {
			ev.Extra.Jitter = 0
			err = parseFields("straggler", "base[~jitter]", strings.Split(param, "~"),
				req("delay", &ev.Extra.Base), opt("jitter", &ev.Extra.Jitter))
		}
	case FaultLoss:
		ev.Factor = 0.1
		if hasParam {
			err = parseValue("loss probability", param, &ev.Factor)
		}
	case FaultSlowDB:
		ev.Factor = 4
		if hasParam {
			err = parseValue("slowdb multiplier", param, &ev.Factor)
		}
	default:
		if hasParam {
			err = fmt.Errorf("fabric: fault kind %q takes no parameter, got %q", string(ev.Kind), param)
		}
	}
	if err == nil {
		err = ev.validate()
	}
	return ev, err
}

// scheduleFaults arms the resolved fault schedule on the virtual
// clock: both events of every window are queued here, open then close,
// in event order, and the close event calls what the open event
// returned. Called once from NewNetwork; with Config.Faults nil it is
// never called, so fault-free runs schedule zero events and draw zero
// rng.
func (nw *Network) scheduleFaults() {
	for _, ev := range nw.faults.Events {
		ev := ev
		var undo func()
		nw.eng.At(sim.Time(ev.At), func() { undo = nw.applyFault(ev) })
		nw.eng.At(sim.Time(ev.At+ev.For), func() { undo() })
	}
}

// applyFault opens one fault window and returns the function that
// closes it by putting back exactly the state the window replaced:
// crashed nodes restart, the partition heals, the regime that was in
// force before (a static DelayLink, the unscaled cost table) returns.
func (nw *Network) applyFault(ev FaultEvent) (undo func()) {
	nw.col.RecordFaultWindow()
	peer := nw.peers[ev.Target%len(nw.peers)]
	switch ev.Kind {
	case FaultCrashPeer:
		return nw.crashNode(peer, ev.For, peer.name)
	case FaultCrashOrderer:
		os := nw.orderers[ev.Target%len(nw.orderers)]
		return nw.crashNode(os, ev.For, os.nodeNames...)
	case FaultPartition:
		org := nw.orgs[ev.Target%len(nw.orgs)]
		var island []string
		for _, p := range nw.peers {
			if p.org == org {
				island = append(island, p.name)
			}
		}
		nw.net.Partition(island)
		return nw.net.Heal
	case FaultStraggler:
		found := nw.net.Inject(peer.name, ev.Extra)
		return func() { nw.net.Inject(peer.name, found) }
	case FaultLoss:
		nw.net.SetLoss(peer.name, ev.Factor)
		return func() { nw.net.SetLoss(peer.name, 0) }
	case FaultSlowDB:
		found := nw.dbCosts
		nw.dbCosts = scaleDBCosts(found, ev.Factor)
		return func() { nw.dbCosts = found }
	}
	panic("fabric: fault kind " + string(ev.Kind) + " passed Validate but cannot be applied")
}

// crashNode crashes a peer or an ordering service for d and takes its
// addresses off the network; the returned function brings the
// addresses back and restarts it. crash drops all in-flight work
// (epoch-guarded closures die silently); restart resumes from durable
// state — the peer replays missed blocks from the deliver stream, the
// orderer continues its hash chain at the retained block number. The
// central validator is deliberately not a node that can crash: it is a
// network-wide memoization of the deterministic validation outcome,
// not a process.
func (nw *Network) crashNode(n interface {
	crash()
	restart()
}, d time.Duration, addrs ...string) (undo func()) {
	nw.col.RecordNodeDown(d)
	n.crash()
	for _, a := range addrs {
		nw.net.SetDown(a, true)
	}
	return func() {
		for _, a := range addrs {
			nw.net.SetDown(a, false)
		}
		n.restart()
	}
}

// scaleDBCosts multiplies every state-database operation cost by f
// (the slowdb regime).
func scaleDBCosts(c costmodel.DBCosts, f float64) costmodel.DBCosts {
	s := func(d time.Duration) time.Duration { return time.Duration(float64(d) * f) }
	c.Get = s(c.Get)
	c.Put = s(c.Put)
	c.Delete = s(c.Delete)
	c.RangeBase = s(c.RangeBase)
	c.RangePerKey = s(c.RangePerKey)
	c.QueryBase = s(c.QueryBase)
	c.QueryPerDoc = s(c.QueryPerDoc)
	c.CommitBase = s(c.CommitBase)
	c.CommitWrite = s(c.CommitWrite)
	c.ValRangeBase = s(c.ValRangeBase)
	c.ValRangePerKey = s(c.ValRangePerKey)
	return c
}
