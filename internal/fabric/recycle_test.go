package fabric

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/chaincodes/ehr"
	"repro/internal/ledger"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/statedb"
	"repro/internal/workload"
)

// The tests below pin the network's two free lists: a job (pendingTx)
// goes back once it is closed and nothing queued names it
// (pendingTx.refs), an endorsement at the metrics peer's commit.

// counted counts the invocations drawn: one per job submitted.
type counted struct {
	workload.Generator
	n int
}

func (w *counted) Next(rng *rand.Rand) workload.Invocation {
	w.n++
	return w.Generator.Next(rng)
}

// A drained run without faults loses no answer, so every job it made is
// back on the free list, which thus holds as many as were ever in flight
// at once (a few on the open loop, one per client on the closed one) for
// thousands submitted. Each endorsement of a committed transaction comes
// back at the metrics peer's commit; were none taken off the list again,
// it would hold two per transaction.
func TestRecycledStorageOnDefaultRun(t *testing.T) {
	fireAndForget := DefaultConfig()
	fireAndForget.Duration = 30 * time.Second
	fireAndForget.Chaincode = ehr.New()
	fireAndForget.Workload = ehr.NewWorkload(1)
	for name, cfg := range map[string]Config{
		"fire-and-forget": fireAndForget,
		"control plane":   controlPlaneConfig(33),
	} {
		t.Run(name, func(t *testing.T) {
			jobs := &counted{Generator: cfg.Workload}
			cfg.Workload = jobs
			nw, rep := run(t, cfg)
			made, ends := len(nw.jobFree), len(nw.endFree)
			t.Logf("%d jobs on the list for %d submitted, %d endorsements for %d transactions", made, jobs.n, ends, rep.Total)
			if made == 0 || made*5 > jobs.n {
				t.Errorf("%d jobs on the free list after %d were submitted: want at most a fifth, reused", made, jobs.n)
			}
			if ends == 0 || ends*5 > 2*rep.Total {
				t.Errorf("%d endorsements on the free list after %d transactions committed: want at most a fifth of theirs, reused", ends, rep.Total)
			}
		})
	}
}

// trackedProbe builds cfg's network tracking outcomes, giving up on a job
// after maxAttempts immediate attempts, with one peer per org (so every
// leg asks the same two), unjittered service times and 1 ms links. Its
// drivers have not started.
func trackedProbe(t *testing.T, cfg Config, maxAttempts int) (*Network, *ClientDriver) {
	t.Helper()
	cfg.PeersPerOrg = 1
	cfg.PeerCosts.Jitter = 0
	cfg.LAN = netem.Link{Base: time.Millisecond}
	cfg.Retry = ImmediateRetry{MaxAttempts: maxAttempts}
	nw, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return nw, nw.drivers[0]
}

// submit submits a job for c's member 0 and returns it.
func submit(t *testing.T, c *ClientDriver) *pendingTx {
	t.Helper()
	known := map[string]bool{}
	for id := range c.pending {
		known[id] = true
	}
	c.submitJob(0)
	for id, j := range c.pending {
		if !known[id] {
			return j
		}
	}
	t.Fatal("the job registered no transaction")
	return nil
}

// runWhile advances nw in 1 ms steps while cond holds, for at most limit.
func runWhile(t *testing.T, nw *Network, limit time.Duration, cond func() bool) {
	t.Helper()
	for end := nw.eng.Now() + sim.Time(limit); cond(); {
		if nw.eng.Now() >= end {
			t.Fatalf("still waiting at %v", time.Duration(nw.eng.Now()))
		}
		nw.eng.RunUntil(nw.eng.Now() + sim.Time(time.Millisecond))
	}
}

// An answer lost with a crashed endorser names its job for good: the job
// stays off the list once closed, and the GC takes it. A whole run with a
// crash window still resolves every job it submits.
func TestRecycledJobLostAnswer(t *testing.T) {
	cfg := testConfig(10)
	cfg.Faults = &Faults{EndorseTimeout: time.Second}
	cfg.Workload = workload.Func(func(*rand.Rand) workload.Invocation {
		return workload.Invocation{Chaincode: ehr.Name, Function: "readProfile", Args: []string{"5"}}
	})
	nw, c := trackedProbe(t, cfg, 1)
	nw.peers[1].crash()
	j := submit(t, c)
	nw.eng.RunUntil(sim.Time(3 * time.Second))
	if rep := nw.col.Report(); rep.Jobs != 1 || rep.EndorseTimeouts != 1 {
		t.Fatalf("%d jobs resolved, %d endorse deadlines fired: want the deadline to fail the one job", rep.Jobs, rep.EndorseTimeouts)
	}
	if j.open || j.refs != 1 || slices.Contains(nw.jobFree, j) {
		t.Fatalf("open=%v refs=%d, %d jobs on the list: the job is closed and the lost request still names it",
			j.open, j.refs, len(nw.jobFree))
	}

	cfg = faultConfig(4, &Faults{
		Events:         []FaultEvent{{Kind: FaultCrashPeer, At: 5 * time.Second, For: 5 * time.Second, Target: 3}},
		EndorseTimeout: time.Second,
	})
	jobs := &counted{Generator: cfg.Workload}
	cfg.Workload = jobs
	nw, rep := run(t, cfg)
	if rep.EndorseTimeouts == 0 || rep.Jobs != jobs.n {
		t.Fatalf("%d endorse deadlines fired, %d jobs resolved of %d submitted: want every job resolved around lost answers",
			rep.EndorseTimeouts, rep.Jobs, jobs.n)
	}
	for _, d := range nw.drivers {
		if d.Pending() != 0 {
			t.Fatalf("%s still awaits %d outcomes", d.name, d.Pending())
		}
	}
}

// An endorser that fails the proposal answers before one that simulates
// it, and the attempt fails at the first answer. The second, late answer
// must land on its own leg: while it is on its way the job is off the
// list (a new job is another object) and a retry takes a leg of its own.
func TestRecycledJobLateAnswer(t *testing.T) {
	probe := func(maxAttempts int) (*Network, *ClientDriver) {
		cfg := testConfig(1)
		cfg.Chaincode = edgeCC{}
		cfg.DBKind = statedb.LevelDB
		cfg.Workload = workload.Func(func(*rand.Rand) workload.Invocation {
			return workload.Invocation{Function: "need", Args: []string{"k0"}}
		})
		nw, c := trackedProbe(t, cfg, maxAttempts)
		commitOn(t, nw, nw.peers[0], 1, "del", "k0") // org 0's endorser fails
		return nw, c
	}
	t.Run("given up", func(t *testing.T) {
		nw, c := probe(1)
		j := submit(t, c)
		runWhile(t, nw, time.Second, func() bool { return j.open })
		if j.refs != 1 || slices.Contains(nw.jobFree, j) {
			t.Fatalf("refs=%d after the proposal error: the answer still on its way must keep the job off the list", j.refs)
		}
		if next := submit(t, c); next == j {
			t.Fatal("the next job reused the one a late answer is addressed to")
		}
		nw.eng.RunUntil(sim.Time(time.Second))
		rep := nw.col.Report()
		if aborted := rep.Counts[ledger.AbortedInOrdering]; rep.Jobs != 2 || aborted != 2 || len(nw.jobFree) != 2 {
			t.Fatalf("%d jobs resolved, %d aborted, %d on the list: want both aborted and back", rep.Jobs, aborted, len(nw.jobFree))
		}
	})
	t.Run("retried", func(t *testing.T) {
		nw, c := probe(2)
		j := submit(t, c)
		first := j.first.tx
		runWhile(t, nw, time.Second, func() bool { return j.attempts < 2 })
		if j.first.tx != first || !j.first.done || len(j.first.ends) != 0 {
			t.Fatal("the retry took the first attempt's leg while an answer to it was on its way")
		}
		nw.eng.RunUntil(sim.Time(time.Second))
		if rep := nw.col.Report(); rep.Jobs != 1 || rep.Attempts != 2 || !slices.Contains(nw.jobFree, j) {
			t.Fatalf("%d jobs, %d attempts, job back: %v; want one job given up after two attempts, back on the list",
				rep.Jobs, rep.Attempts, slices.Contains(nw.jobFree, j))
		}
	})
}

// A resolved job whose endorse and submit deadlines are still queued
// stays off the list until the last of them fires: a deadline firing on
// a reused job would resolve another transaction.
func TestRecycledJobDeadlines(t *testing.T) {
	cfg := testConfig(1)
	cfg.Faults = &Faults{EndorseTimeout: 5 * time.Second, SubmitTimeout: 6 * time.Second}
	cfg.Workload = workload.Func(func(*rand.Rand) workload.Invocation {
		return workload.Invocation{Chaincode: ehr.Name, Function: "readProfile", Args: []string{"5"}}
	})
	nw, c := trackedProbe(t, cfg, 1)
	j := submit(t, c)
	runWhile(t, nw, 4*time.Second, func() bool { return j.open })
	if rep := nw.col.Report(); rep.Jobs != 1 || rep.EventualValid != 1 {
		t.Fatalf("%d jobs resolved, %d valid: want the job committed before its deadlines", rep.Jobs, rep.EventualValid)
	}
	for _, at := range []struct {
		t    time.Duration
		refs int32
	}{{4900 * time.Millisecond, 2}, {5500 * time.Millisecond, 1}} {
		nw.eng.RunUntil(sim.Time(at.t))
		if j.refs != at.refs || slices.Contains(nw.jobFree, j) {
			t.Fatalf("at %v: refs=%d, want %d queued deadlines keeping the job off the list", at.t, j.refs, at.refs)
		}
		if next := submit(t, c); next == j {
			t.Fatalf("at %v: a new job reused the one a queued deadline names", at.t)
		}
	}
	nw.eng.RunUntil(sim.Time(7 * time.Second))
	if !slices.Contains(nw.jobFree, j) {
		t.Fatal("the job is not back on the list after its last deadline fired")
	}
	if rep := nw.col.Report(); rep.EndorseTimeouts != 0 || rep.SubmitTimeouts != 0 {
		t.Fatalf("%d endorse and %d submit timeouts: a deadline resolved a reused job", rep.EndorseTimeouts, rep.SubmitTimeouts)
	}
}
