package fabric

import (
	"repro/internal/consensus"
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

// Consenter exposes the Kafka cluster (failure injection).
func (os *OrderingService) Consenter() *consensus.Kafka { return os.cons }

// BlockSize returns the live batch-size target.
func (os *OrderingService) BlockSize() int { return os.blockSize }

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

// SnapshotGenesis and CheckReplicas expose the replica-convergence
// oracle to the external tests.
var (
	SnapshotGenesis = snapshotGenesis
	CheckReplicas   = checkReplicas
)
