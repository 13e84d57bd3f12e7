package fabric

import "repro/internal/statedb"

// Replicas exposes the peer's world-state replicas, indexed by channel,
// to the external tests of this directory (the ones that need the fork
// variants, which import this package).
func (p *Peer) Replicas() []statedb.VersionedDB { return p.dbs }

// SnapshotGenesis and CheckReplicas expose the replica-convergence
// oracle to the external tests.
var (
	SnapshotGenesis = snapshotGenesis
	CheckReplicas   = checkReplicas
)
