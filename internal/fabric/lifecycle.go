package fabric

// NodeState is a node's position in the crash/restart lifecycle that
// the fault scheduler drives. Every node starts NodeUp; a crash window
// moves it to NodeCrashed (in-flight work is dropped and the netem
// layer black-holes its unreliable traffic); the window's end restarts
// it — a peer with missed blocks passes through NodeRestarting while
// it replays the ledger suffix it missed, everything else returns to
// NodeUp directly.
type NodeState int

const (
	// NodeUp is the healthy steady state.
	NodeUp NodeState = iota
	// NodeCrashed means the process is gone: queued and in-flight work
	// died with it, and new unreliable messages are dropped.
	NodeCrashed
	// NodeRestarting means the process is back but still replaying the
	// ledger suffix it missed while down; it turns NodeUp when the
	// replay commits.
	NodeRestarting
)

// String names the state for diagnostics.
func (s NodeState) String() string {
	switch s {
	case NodeUp:
		return "up"
	case NodeCrashed:
		return "crashed"
	case NodeRestarting:
		return "restarting"
	default:
		return "unknown"
	}
}
