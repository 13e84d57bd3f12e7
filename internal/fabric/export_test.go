package fabric

import (
	"testing"

	"repro/internal/metrics"
	"repro/internal/statedb"
)

// Replicas exposes the peer's world-state replicas, indexed by channel,
// to the external tests of this directory (the ones that need the fork
// variants, which import this package).
func (p *Peer) Replicas() []statedb.VersionedDB { return p.dbs }

// CommittedBlocks reports how many blocks this replica has applied.
func (p *Peer) CommittedBlocks() int { return p.committedBlocks }

// State reports the peer's lifecycle state.
func (p *Peer) State() NodeState { return p.state }

// State reports the service's lifecycle state.
func (os *OrderingService) State() NodeState { return os.state }

// Drivers returns every client driver — one per client, or one per
// cohort — in start order.
func (nw *Network) Drivers() []*ClientDriver { return nw.drivers }

// Members reports how many simulated clients this driver drives.
func (c *ClientDriver) Members() int { return c.members }

// Pending reports how many of this driver's attempts are still
// awaiting an outcome event (in-flight work at the end of a run).
func (c *ClientDriver) Pending() int { return len(c.pending) }

// AddRegime adds a regime to the corpus (corpus_test.go) from the
// external tests, which can build the fork variants: they import this
// package. holds is the regime's engagement predicate and what says it
// in words. Call it from an init function.
func AddRegime(name string, cfg func() Config, what string, holds func(metrics.Report) bool) {
	regimes = append(regimes, &regime{name: name, cfg: cfg, engaged: predicate{what, holds}})
}

// CheckRegime fails t unless the named regime passed every oracle and
// its engagement predicate.
func CheckRegime(t *testing.T, name string) {
	t.Helper()
	checked(t, name)
}

// RecordCuts wraps a variant so that CheckCuts can hold the chains of
// the network it runs in to the blocks its ordering services cut.
func RecordCuts(v Variant) Variant { return recordCuts(v) }

// CheckCuts reports how nw's chains differ from the blocks its ordering
// services cut (see cutRecorder); nw's variant must come from RecordCuts.
func CheckCuts(nw *Network) error { return nw.variant.(*cutRecorder).check(nw) }
