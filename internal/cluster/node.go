// Node: one broker's membership in the cluster.  A node owns a metadb
// replica and a copy of the replicated log, carries its own view of
// the shard ring and its leased slice of the cluster byte budgets, and
// implements metadb.Replicator so a mutation against its replica is
// routed through the leader's log (or refused with NotLeaderError).
package cluster

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/metadb"
	"repro/internal/vtime"
	"repro/internal/wal"
)

// Cluster-level record types carried in the replicated log alongside
// the metadb journal records (which occupy the low byte values).  The
// high bit keeps the two spaces disjoint.
const (
	recRing  byte = 0x80 // payload ringRecord: shard→owner table
	recQuota byte = 0x81 // payload []Budgets: per-broker leases
)

// ringRecord is the journal encoding of one ring reassignment.
type ringRecord struct {
	Owners []int `json:"owners"`
}

// Budgets is one broker's leased slice of the cluster-wide byte
// budgets: the QoS admission budget and the placement staging
// capacity.  The leader computes leases proportional to shard
// ownership and publishes them through the log, so every broker
// learns its slice from the same ordered history.
type Budgets struct {
	Node       int   `json:"node"`
	QueueBytes int64 `json:"queue_bytes"`
	PlaceBytes int64 `json:"place_bytes"`
}

// Node is one broker in the cluster.  Obtain nodes from Cluster.Node;
// the zero value is not usable.
type Node struct {
	cl  *Cluster
	id  int
	db  *metadb.DB
	log *Log

	// flushFn runs applyCommitted into flushErr and signals cl.flush:
	// a journaled replica's share of appendLocked's fan-out, bound once
	// so that starting it allocates nothing.  Both belong to whoever
	// holds cl.mu.
	flushFn  func()
	flushErr error

	mu       sync.Mutex
	down     bool
	faultErr error
	ring     Ring
	budget   Budgets
	onQuota  func(Budgets)
}

// ID returns the node's broker ID (its index in the peer list).
func (n *Node) ID() int { return n.id }

// DB returns the node's metadb replica.  Reads are always local;
// mutations route through the replicated log and fail with
// NotLeaderError on a follower.
func (n *Node) DB() *metadb.DB { return n.db }

// Log returns the node's copy of the replicated log.
func (n *Node) Log() *Log { return n.log }

// Down reports whether the node is dead (killed or faulted).
func (n *Node) Down() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.down
}

// Err returns the fault that took the node down, if any.
func (n *Node) Err() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.faultErr
}

// Kill marks the node dead.  Its shards stay unreachable until the
// lease lapses and the survivors elect a new owner; its replica stops
// accepting reads of record (callers decide what a dead broker means
// for their data plane).
func (n *Node) Kill() {
	n.mu.Lock()
	n.down = true
	n.mu.Unlock()
}

// fault takes the node down recording why (divergent log, apply
// failure): the fail-closed response to suspect history.
func (n *Node) fault(err error) {
	n.mu.Lock()
	n.down = true
	if n.faultErr == nil {
		n.faultErr = err
	}
	n.mu.Unlock()
}

// Ring returns the node's current view of the shard map.
func (n *Node) Ring() Ring {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.ring
}

// Budget returns the node's current budget lease.
func (n *Node) Budget() Budgets {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.budget
}

// OnQuota registers a callback fired whenever a quota lease for this
// node is applied from the log (wire it to qos.SetMaxQueuedBytes et
// al.).  The callback runs with cluster locks held, possibly on
// another goroutine than the mutator's: it must not call back into
// the cluster.
func (n *Node) OnQuota(fn func(Budgets)) {
	n.mu.Lock()
	n.onQuota = fn
	n.mu.Unlock()
}

// Route implements the srbnet ShardRouter contract: it decides whether
// this broker owns path's shard, and if not, names the broker that
// does.  now is the caller's virtual clock; observing it is what lets
// a routing miss after a leader death trigger the lease-lapse
// election.
func (n *Node) Route(now time.Duration, path string) (addr string, ok bool) {
	cl := n.cl
	cl.mu.Lock()
	defer cl.mu.Unlock()
	cl.observeLocked(now)
	cl.stepLocked()
	owner := cl.ring.Owner(cl.ring.Shard(path))
	if owner == n.id && !n.Down() {
		return "", true
	}
	return cl.addrLocked(owner), false
}

// Replicate implements metadb.Replicator: the node's replica hands
// every mutation here, and it commits through the leader-leased log or
// not at all.  Followers refuse with NotLeaderError naming the broker
// to retry against.  Callers hold no database lock (see
// metadb.SetReplicator), so the append can apply the committed record
// back to every live replica before returning.
func (n *Node) Replicate(p *vtime.Proc, typ byte, data []byte) error {
	cl := n.cl
	cl.mu.Lock()
	defer cl.mu.Unlock()
	cl.observeProcLocked(p)
	cl.stepLocked()
	if n.Down() {
		return fmt.Errorf("cluster: node %d: %w", n.id, ErrDown)
	}
	if cl.leader != n.id {
		return &NotLeaderError{Leader: cl.leaderIDLocked()}
	}
	return cl.appendLocked([][]byte{wal.EncodeRecord(typ, data)})
}

// applyEntry applies one committed entry to this node's state.  Cluster
// records update the node's ring and budget views; everything else is
// a metadb journal record replayed through the replica's recovery
// path, which journals and flushes it before applying.  Runs while
// appendLocked holds cl.mu, concurrently with other replicas'.
func (n *Node) applyEntry(e Entry) error {
	rec, err := wal.DecodeRecord(e.Frame)
	if err != nil {
		return fmt.Errorf("%w: entry %d: %v", ErrDiverged, e.Index, err)
	}
	switch rec.Type {
	case recRing:
		var rr ringRecord
		if err := json.Unmarshal(rec.Data, &rr); err != nil {
			return fmt.Errorf("cluster: ring record %d: %w", e.Index, err)
		}
		n.mu.Lock()
		n.ring = ringFromOwners(rr.Owners)
		n.mu.Unlock()
		return nil
	case recQuota:
		var bs []Budgets
		if err := json.Unmarshal(rec.Data, &bs); err != nil {
			return fmt.Errorf("cluster: quota record %d: %w", e.Index, err)
		}
		for _, b := range bs {
			if b.Node != n.id {
				continue
			}
			n.mu.Lock()
			n.budget = b
			hook := n.onQuota
			n.mu.Unlock()
			if hook != nil {
				hook(b)
			}
		}
		return nil
	default:
		return n.db.ApplyRecord(rec.Type, rec.Data)
	}
}

// applyCommitted drains the node's committed-but-unapplied entries in
// log order.  Runs while appendLocked holds cl.mu, concurrently with
// other replicas'.
func (n *Node) applyCommitted() error {
	for {
		e, ok := n.log.nextToApply()
		if !ok {
			return nil
		}
		if err := n.applyEntry(e); err != nil {
			return err
		}
		n.log.markApplied(e.Index)
	}
}
