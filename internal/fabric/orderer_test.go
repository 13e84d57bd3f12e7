package fabric

import (
	"strings"
	"testing"
	"time"

	"repro/internal/ledger"
	"repro/internal/sim"
)

func TestBlockCutBySize(t *testing.T) {
	nw := harness(t)
	nw.cfg.BlockSize = 3
	for i := 0; i < 7; i++ {
		tx := mkTx(nw, string(rune('a'+i)), &ledger.RWSet{})
		tx.SubmitTime = nw.eng.Now()
		nw.orderers[0].Submit(tx)
	}
	nw.eng.RunUntil(sim.Time(time.Second))
	// 7 txs at size 3: two full blocks, one pending awaiting timeout.
	if nw.orderers[0].blockNum != 2 {
		t.Fatalf("cut %d blocks, want 2", nw.orderers[0].blockNum)
	}
	if len(nw.orderers[0].pending) != 1 {
		t.Fatalf("pending = %d, want 1", len(nw.orderers[0].pending))
	}
	nw.eng.RunUntil(sim.Time(5 * time.Second)) // past the 2s timeout
	if nw.orderers[0].blockNum != 3 {
		t.Fatalf("timeout did not flush the partial block: %d", nw.orderers[0].blockNum)
	}
}

func TestBlockCutByTimeout(t *testing.T) {
	nw := harness(t)
	tx := mkTx(nw, "t", &ledger.RWSet{})
	tx.SubmitTime = nw.eng.Now()
	nw.orderers[0].Submit(tx)
	nw.eng.RunUntil(sim.Time(nw.cfg.BlockTimeout / 2))
	if nw.orderers[0].blockNum != 0 {
		t.Fatal("block cut before timeout")
	}
	nw.eng.RunUntil(sim.Time(nw.cfg.BlockTimeout * 2))
	if nw.orderers[0].blockNum != 1 {
		t.Fatalf("blockNum = %d after timeout, want 1", nw.orderers[0].blockNum)
	}
}

func TestBlockCutByBytes(t *testing.T) {
	nw := harness(t)
	nw.cfg.MaxBlockKB = 1 // 1 KiB cap
	big := make([]byte, 600)
	for i := 0; i < 2; i++ {
		rw := &ledger.RWSet{Writes: []ledger.KVWrite{{Key: "k", Value: big}}}
		tx := mkTx(nw, string(rune('a'+i)), rw)
		tx.SubmitTime = nw.eng.Now()
		nw.orderers[0].Submit(tx)
	}
	nw.eng.RunUntil(sim.Time(500 * time.Millisecond))
	// Each ~1 KiB transaction trips the 1 KiB cap on its own: two
	// single-transaction blocks, no waiting for the timeout.
	if nw.orderers[0].blockNum != 2 {
		t.Fatalf("bytes cap did not cut: blockNum = %d", nw.orderers[0].blockNum)
	}
	if len(nw.orderers[0].pending) != 0 {
		t.Fatalf("pending = %d, want 0", len(nw.orderers[0].pending))
	}
}

// TestStaleTimeoutAfterEarlierCut drives the timeout/cut interleaving
// of the batch-timer audit: a count cut consumes the batch an armed
// timer was waiting for, the stale timer must fire as a no-op, and
// the very next transaction must be able to arm a fresh timer and cut
// by timeout.
func TestStaleTimeoutAfterEarlierCut(t *testing.T) {
	nw := harness(t)
	nw.cfg.BlockSize = 4
	for i := 0; i < 3; i++ {
		tx := mkTx(nw, string(rune('a'+i)), &ledger.RWSet{})
		tx.SubmitTime = nw.eng.Now()
		nw.orderers[0].Submit(tx)
	}
	nw.eng.RunUntil(sim.Time(100 * time.Millisecond))
	if !nw.orderers[0].timerArmed {
		t.Fatal("partial batch did not arm the timeout")
	}
	epoch := nw.orderers[0].timerEpoch
	// A fourth transaction fills the block: it is cut by count well
	// before the armed timer expires, superseding it.
	tx := mkTx(nw, "d", &ledger.RWSet{})
	tx.SubmitTime = nw.eng.Now()
	nw.orderers[0].Submit(tx)
	nw.eng.RunUntil(nw.eng.Now() + sim.Time(100*time.Millisecond))
	if nw.orderers[0].blockNum != 1 {
		t.Fatalf("count cut %d blocks, want 1", nw.orderers[0].blockNum)
	}
	if nw.orderers[0].timerArmed || nw.orderers[0].timerEpoch == epoch {
		t.Fatal("cut left the timer armed or the epoch unbumped")
	}
	// Let the stale timer fire: no second cut, nothing re-armed.
	nw.eng.RunUntil(sim.Time(2 * nw.cfg.BlockTimeout))
	if nw.orderers[0].blockNum != 1 {
		t.Fatalf("stale timer cut a block: blockNum = %d", nw.orderers[0].blockNum)
	}
	if nw.orderers[0].timerArmed {
		t.Fatal("stale timer left the service armed")
	}
	// A fresh transaction must arm a fresh timer and flush by timeout.
	tx = mkTx(nw, "z", &ledger.RWSet{})
	tx.SubmitTime = nw.eng.Now()
	nw.orderers[0].Submit(tx)
	nw.eng.RunUntil(nw.eng.Now() + sim.Time(100*time.Millisecond))
	if !nw.orderers[0].timerArmed {
		t.Fatal("new transaction did not re-arm the timeout")
	}
	nw.eng.RunUntil(nw.eng.Now() + sim.Time(2*nw.cfg.BlockTimeout))
	if nw.orderers[0].blockNum != 2 {
		t.Fatalf("re-armed timeout did not cut: blockNum = %d", nw.orderers[0].blockNum)
	}
	if nw.orderers[0].timerArmed {
		t.Fatal("service armed with an empty pending queue after the timeout cut")
	}
}

// TestTimeoutOnDrainedQueueDisarms pins the audit's two invariants
// directly: a timer firing over a drained pending queue (simulated by
// draining pending under a live epoch, a state no current code path
// produces) must neither cut an empty block nor leave the service
// armed-but-idle — a state in which no later arrival would ever start
// a timeout clock.
func TestTimeoutOnDrainedQueueDisarms(t *testing.T) {
	nw := harness(t)
	tx := mkTx(nw, "a", &ledger.RWSet{})
	tx.SubmitTime = nw.eng.Now()
	nw.orderers[0].Submit(tx)
	nw.eng.RunUntil(sim.Time(100 * time.Millisecond))
	if !nw.orderers[0].timerArmed {
		t.Fatal("timer not armed")
	}
	nw.orderers[0].pending = nil
	nw.orderers[0].pendingBytes = 0
	nw.eng.RunUntil(sim.Time(2 * nw.cfg.BlockTimeout))
	if nw.orderers[0].blockNum != 0 {
		t.Fatalf("timeout over a drained queue cut %d blocks, want 0", nw.orderers[0].blockNum)
	}
	if nw.orderers[0].timerArmed {
		t.Fatal("timeout over a drained queue left the service armed-but-idle")
	}
	// The service must still make progress afterwards.
	tx2 := mkTx(nw, "b", &ledger.RWSet{})
	tx2.SubmitTime = nw.eng.Now()
	nw.orderers[0].Submit(tx2)
	nw.eng.RunUntil(nw.eng.Now() + sim.Time(2*nw.cfg.BlockTimeout))
	if nw.orderers[0].blockNum != 1 {
		t.Fatalf("service stalled after the drained-queue timeout: blockNum = %d", nw.orderers[0].blockNum)
	}
}

func TestTxBytesAccounting(t *testing.T) {
	small := &ledger.Transaction{RWSet: &ledger.RWSet{}}
	big := &ledger.Transaction{RWSet: &ledger.RWSet{
		Reads:  []ledger.KVRead{{Key: "a"}, {Key: "b"}},
		Writes: []ledger.KVWrite{{Key: "k", Value: make([]byte, 1000)}},
		RangeQueries: []ledger.RangeQueryInfo{{
			Reads: make([]ledger.KVRead, 100),
		}},
	}}
	if txBytes(big) <= txBytes(small) {
		t.Fatal("txBytes not monotone in payload size")
	}
	if txBytes(small) < 256 {
		t.Fatal("txBytes below header floor")
	}
}

// TestOrdererCountSizesTheKafkaCluster runs the deployment at every
// orderer count up to the paper's three. Config.Orderers is the broker
// count, and below DefaultKafkaConfig's MinISR of 2 NewNetwork must
// clamp the ack quorum to it — unclamped, one orderer panics in
// NewKafka. Zero orderers stay a Validate error.
func TestOrdererCountSizesTheKafkaCluster(t *testing.T) {
	for _, n := range []int{1, 2, 3} {
		cfg := testConfig(45)
		cfg.Orderers = n
		cfg.Duration = 5 * time.Second
		nw, rep := run(t, cfg)
		if rep.Valid == 0 {
			t.Errorf("%d orderers: no valid transactions (%v)", n, rep)
		}
		if err := nw.Chain().Verify(); err != nil {
			t.Errorf("%d orderers: %v", n, err)
		}
	}
	cfg := testConfig(45)
	cfg.Orderers = 0
	if _, err := NewNetwork(cfg); err == nil || !strings.Contains(err.Error(), "need >=1 orderer") {
		t.Errorf("0 orderers: NewNetwork = %v, want the Validate error", err)
	}
}

func TestSkipReadOnlySubmission(t *testing.T) {
	cfg := testConfig(44)
	cfg.SkipReadOnlySubmission = true
	nw, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := nw.Run()
	if rep.ServedReads == 0 {
		t.Fatal("EHR workload has read-only functions; none were served directly")
	}
	// Served reads never land on the chain.
	if rep.Committed+rep.ServedReads <= rep.Committed {
		t.Fatal("bookkeeping broken")
	}
	base, err := NewNetwork(testConfig(44))
	if err != nil {
		t.Fatal(err)
	}
	baseRep := base.Run()
	if rep.Committed >= baseRep.Committed {
		t.Errorf("skip-read-only committed %d >= baseline %d", rep.Committed, baseRep.Committed)
	}
	t.Logf("baseline %v", baseRep)
	t.Logf("skipRO   %v (+%d served reads)", rep, rep.ServedReads)
}
