// Package cluster turns N srbd brokers into one logical broker.
//
// Three pieces, mirroring how production mass-storage catalogs scale
// past one name server (Consul's Raft storage-backend split is the
// architectural model):
//
//   - a deterministic, vtime-driven leader-lease + replicated-log
//     layer: metadb mutations commit through the leader's log (WAL
//     record framing, CRC32C-verified, fail-closed on divergence);
//     every live replica then journals, flushes and applies the
//     committed entries concurrently, and the mutator is acked once a
//     quorum has done so durably — one flush time, not one per replica;
//   - a fixed shard map (Ring) hashing collections onto brokers, with
//     ownership changes carried only as replicated ring records;
//   - cluster-wide byte budgets: the leader owns the global QoS
//     admission budget and placement capacity and leases per-broker
//     slices through the same log.
//
// Replication here is in-process and synchronous — the deterministic
// transport a simulation wants.  Replicas of a real cluster flush their
// journals at the same time, so the in-process transport does too.
// The seam for a networked control
// plane is the Node surface: everything a remote peer would need
// (appendEntries, the lease view, snapshot adoption) already flows
// through it.
package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/metadb"
	"repro/internal/vtime"
	"repro/internal/wal"
)

var (
	// ErrNotLeader marks a mutation offered to a broker that does not
	// hold the lease; see NotLeaderError for the redirect target.
	ErrNotLeader = errors.New("cluster: not leader")
	// ErrNoQuorum marks an append or election that fewer than a
	// majority of brokers could participate in.
	ErrNoQuorum = errors.New("cluster: no quorum")
	// ErrDown marks an operation against a dead broker.
	ErrDown = errors.New("cluster: node is down")
)

// NotLeaderError refuses a mutation at a follower, naming the broker
// believed to hold the lease (-1 when no live leader is known).
type NotLeaderError struct{ Leader int }

func (e *NotLeaderError) Error() string {
	if e.Leader < 0 {
		return "cluster: not leader (no live leader)"
	}
	return fmt.Sprintf("cluster: not leader (leader is node %d)", e.Leader)
}

func (e *NotLeaderError) Unwrap() error { return ErrNotLeader }

// DefaultLease is the leader lease in virtual time: after a leader
// dies, no failover happens until its lease has lapsed — the fencing
// window during which its shards are simply unavailable.
const DefaultLease = 2 * time.Second

// Config sizes a cluster.
type Config struct {
	// Nodes is the broker count.
	Nodes int
	// Shards is the namespace shard count (default: Nodes).
	Shards int
	// Lease is the leader lease duration in virtual time (default
	// DefaultLease).
	Lease time.Duration
	// QueueBudget and PlaceBudget are the cluster-wide byte budgets
	// the leader leases out per broker: the global QoS admission
	// budget and the global placement staging capacity.  Zero means
	// unlimited (no leases are published for that budget).
	QueueBudget int64
	PlaceBudget int64
	// DBs optionally provides pre-opened (e.g. journal-backed) metadb
	// replicas, one per node.  Default: fresh in-memory replicas.
	DBs []*metadb.DB
}

// Cluster binds N broker nodes into one logical broker with a single
// replicated metadata history.
type Cluster struct {
	// mu serializes every control-plane transition: appends,
	// elections, rejoins, routing decisions.  Callers hold no metadb
	// lock when entering (metadb guarantees this for Replicate), so
	// committed entries can be applied to any replica under mu.
	mu         sync.Mutex
	cfg        Config
	nodes      []*Node
	addrs      []string
	ring       Ring
	term       uint64
	leader     int
	leaseUntil time.Duration
	now        time.Duration

	// appendLocked's working state, reused across appends so that the
	// replica fan-out costs no heap per mutation.
	entries []Entry
	took    []*Node        // replicas that accepted the batch
	flush   sync.WaitGroup // replicas still journaling and applying it
}

// New builds a cluster.  Node 0 starts as leader of term 1, and the
// genesis configuration — the initial shard map and budget leases —
// is itself committed through the log, so replica 0's first entries
// already tell the whole story of who owns what.
func New(cfg Config) (*Cluster, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("cluster: need at least one node (got %d)", cfg.Nodes)
	}
	if cfg.Shards == 0 {
		cfg.Shards = cfg.Nodes
	}
	if cfg.Lease <= 0 {
		cfg.Lease = DefaultLease
	}
	if cfg.DBs != nil && len(cfg.DBs) != cfg.Nodes {
		return nil, fmt.Errorf("cluster: %d DBs for %d nodes", len(cfg.DBs), cfg.Nodes)
	}
	ring, err := NewRing(cfg.Shards, cfg.Nodes)
	if err != nil {
		return nil, err
	}
	cl := &Cluster{cfg: cfg, ring: Ring{}, term: 1, leader: 0, leaseUntil: cfg.Lease}
	for i := 0; i < cfg.Nodes; i++ {
		db := metadb.New()
		if cfg.DBs != nil {
			db = cfg.DBs[i]
		}
		n := &Node{cl: cl, id: i, db: db, log: &Log{}}
		n.flushFn = func() {
			n.flushErr = n.applyCommitted()
			cl.flush.Done()
		}
		db.SetReplicator(n)
		cl.nodes = append(cl.nodes, n)
	}
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if err := cl.reconfigureLocked(ring); err != nil {
		return nil, err
	}
	return cl, nil
}

// SetAddrs installs the broker data-plane addresses, index-aligned
// with node IDs, so Route can name the owner of a foreign shard.
func (cl *Cluster) SetAddrs(addrs []string) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	cl.addrs = append([]string(nil), addrs...)
}

// Node returns broker i.
func (cl *Cluster) Node(i int) *Node { return cl.nodes[i] }

// Nodes returns all brokers.
func (cl *Cluster) Nodes() []*Node { return append([]*Node(nil), cl.nodes...) }

// Quorum returns the majority size.
func (cl *Cluster) Quorum() int { return len(cl.nodes)/2 + 1 }

// Term returns the current leadership term.
func (cl *Cluster) Term() uint64 {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.term
}

// Ring returns the committed shard map.
func (cl *Cluster) Ring() Ring {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.ring
}

// Leader observes p's clock, runs any due election, and returns the
// live leader's ID.  ok is false while a dead leader's lease has not
// lapsed yet or no quorum survives — the caller should advance its
// clock (e.g. a resilient backoff) and retry.
func (cl *Cluster) Leader(p *vtime.Proc) (id int, ok bool) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	cl.observeProcLocked(p)
	cl.stepLocked()
	if cl.nodes[cl.leader].Down() {
		return -1, false
	}
	return cl.leader, true
}

// SetGlobalBudget replaces the cluster-wide byte budgets and leases
// the new per-broker slices through the log.
func (cl *Cluster) SetGlobalBudget(p *vtime.Proc, queueBytes, placeBytes int64) error {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	cl.observeProcLocked(p)
	cl.stepLocked()
	if cl.nodes[cl.leader].Down() {
		return fmt.Errorf("%w: no live leader", ErrNoQuorum)
	}
	cl.cfg.QueueBudget, cl.cfg.PlaceBudget = queueBytes, placeBytes
	frame, err := quotaFrame(budgetsFor(cl.ring, cl.cfg))
	if err != nil {
		return err
	}
	return cl.appendLocked([][]byte{frame})
}

// Rebalance reassigns the shard map evenly over the live brokers (the
// explicit admin move after a rejoin) and re-leases budgets to match.
func (cl *Cluster) Rebalance(p *vtime.Proc) error {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	cl.observeProcLocked(p)
	cl.stepLocked()
	if cl.nodes[cl.leader].Down() {
		return fmt.Errorf("%w: no live leader", ErrNoQuorum)
	}
	live := cl.liveIDsLocked()
	owners := make([]int, cl.ring.Shards())
	for s := range owners {
		owners[s] = live[s%len(live)]
	}
	return cl.reconfigureLocked(ringFromOwners(owners))
}

// rejoin brings a dead node back: it adopts a deep-copy snapshot of
// the leader's replica (metadb.Clone) plus the leader's log, then goes
// live as a follower.  Its previous shards do not move back
// automatically — Rebalance does that.
func (cl *Cluster) rejoin(n *Node, p *vtime.Proc) error {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	cl.observeProcLocked(p)
	cl.stepLocked()
	lead := cl.nodes[cl.leader]
	if lead.Down() {
		return fmt.Errorf("%w: no live leader to catch up from", ErrNoQuorum)
	}
	if lead == n {
		return fmt.Errorf("cluster: node %d cannot catch up from itself", n.id)
	}
	n.db.CopyFrom(lead.db)
	n.log.adopt(lead.log)
	n.mu.Lock()
	n.down, n.faultErr = false, nil
	n.ring = cl.ring
	n.mu.Unlock()
	return nil
}

// Rejoin is the node-side handle for rejoin.
func (n *Node) Rejoin(p *vtime.Proc) error { return n.cl.rejoin(n, p) }

// ------------------------------------------------------------------
// Internals.  Everything below runs with cl.mu held.

// observeLocked advances the cluster's virtual high-water clock.
func (cl *Cluster) observeLocked(now time.Duration) {
	if now > cl.now {
		cl.now = now
	}
}

// observeProcLocked observes a proc's clock (nil-safe).
func (cl *Cluster) observeProcLocked(p *vtime.Proc) {
	if p != nil {
		cl.observeLocked(p.Now())
	}
}

// leaderIDLocked returns the leader's ID, or -1 if it is down.
func (cl *Cluster) leaderIDLocked() int {
	if cl.nodes[cl.leader].Down() {
		return -1
	}
	return cl.leader
}

// liveIDsLocked returns the IDs of the live nodes, ascending.
func (cl *Cluster) liveIDsLocked() []int {
	var out []int
	for _, n := range cl.nodes {
		if !n.Down() {
			out = append(out, n.id)
		}
	}
	return out
}

// addrLocked maps a node ID to its data-plane address.
func (cl *Cluster) addrLocked(id int) string {
	if id >= 0 && id < len(cl.addrs) {
		return cl.addrs[id]
	}
	return fmt.Sprintf("node-%d", id)
}

// stepLocked is the lease clock tick: a live leader renews in place; a
// dead leader keeps its lease until it lapses (the fencing window),
// after which the live majority elects the survivor with the longest
// log (ties to the lowest ID) and moves the dead brokers' shards —
// through the log, like every other ownership change.  A live leader
// is never deposed: that invariant is what makes "exactly one broker
// believes it leads" a structural property rather than a race.
func (cl *Cluster) stepLocked() {
	if !cl.nodes[cl.leader].Down() {
		if cl.now >= cl.leaseUntil {
			cl.leaseUntil = cl.now + cl.cfg.Lease
		}
		return
	}
	if cl.now < cl.leaseUntil {
		return
	}
	live := cl.liveIDsLocked()
	if len(live) < cl.Quorum() {
		return
	}
	win, best := -1, uint64(0)
	for _, id := range live {
		if li := cl.nodes[id].log.LastIndex(); win < 0 || li > best {
			win, best = id, li
		}
	}
	cl.term++
	cl.leader = win
	cl.leaseUntil = cl.now + cl.cfg.Lease
	// Reassign the dead brokers' shards round-robin over the
	// survivors; budgets follow the shards.
	owners := cl.ring.Owners()
	next := 0
	for s, owner := range owners {
		if cl.nodes[owner].Down() {
			owners[s] = live[next%len(live)]
			next++
		}
	}
	// Config commit failure here means quorum collapsed mid-election;
	// the lease stands and the next step retries the reassignment.
	_ = cl.reconfigureLocked(ringFromOwners(owners))
}

// reconfigureLocked commits a new shard map and the matching budget
// leases through the log.
func (cl *Cluster) reconfigureLocked(ring Ring) error {
	rf, err := jsonFrame(recRing, ringRecord{Owners: ring.Owners()})
	if err != nil {
		return err
	}
	frames := [][]byte{rf}
	if cl.cfg.QueueBudget > 0 || cl.cfg.PlaceBudget > 0 {
		qf, err := quotaFrame(budgetsFor(ring, cl.cfg))
		if err != nil {
			return err
		}
		frames = append(frames, qf)
	}
	if err := cl.appendLocked(frames); err != nil {
		return err
	}
	cl.ring = ring
	return nil
}

// appendLocked replicates frames as new log entries from the current
// leader: offer to every live replica, commit on majority, then have
// every replica that took them journal, flush and apply them — the
// journaled ones all at once, so the mutation waits for one flush
// time however many replicas there are — and renew the lease.  A replica that refuses
// an entry (divergent CRC, conflicting history) or fails to journal or
// apply one faults out of the cluster — fail-closed.  Without a
// majority accepting, the batch is rolled back everywhere; without a
// majority holding it durably and applied, the entries stay in the
// surviving logs, in doubt.  Neither is acked.  Frames are shared by
// the replicas' logs and must not be modified afterwards.
func (cl *Cluster) appendLocked(frames [][]byte) error {
	lead := cl.nodes[cl.leader]
	start := lead.log.LastIndex()
	entries := cl.entries[:0]
	for i, f := range frames {
		entries = append(entries, Entry{Index: start + uint64(i) + 1, Term: cl.term, Frame: f})
	}
	took := cl.took[:0]
	for _, n := range cl.nodes {
		if n.Down() {
			continue
		}
		if err := n.log.appendEntries(entries); err != nil {
			n.fault(err)
			continue
		}
		took = append(took, n)
	}
	cl.entries, cl.took = entries, took
	if len(took) < cl.Quorum() {
		for _, n := range took {
			n.log.truncateFrom(start + 1)
		}
		return fmt.Errorf("%w: %d/%d replicas accepted the batch", ErrNoQuorum, len(took), len(cl.nodes))
	}
	commit := start + uint64(len(entries))
	// Each journaled replica has a journal of its own to flush, so they
	// run at once: the first here, the others on goroutines that end
	// before this function returns.  (This goroutine would otherwise
	// only wait, and once every P of the runtime is inside a blocking
	// fsync a further goroutine starts only when one returns: at
	// GOMAXPROCS=2, three goroutines cost two flush times, two and the
	// caller one.)  A replica without a journal has no wait to overlap
	// and applies here as well.
	for _, n := range took {
		n.log.setCommit(commit)
	}
	for _, n := range took[1:] {
		if n.db.Journaled() {
			cl.flush.Add(1)
			go n.flushFn()
		}
	}
	for i, n := range took {
		if i == 0 || !n.db.Journaled() {
			n.flushErr = n.applyCommitted()
		}
	}
	cl.flush.Wait()
	durable := 0
	for _, n := range took {
		if n.flushErr != nil {
			n.fault(n.flushErr)
			continue
		}
		durable++
	}
	if durable < cl.Quorum() {
		return fmt.Errorf("%w: %d/%d replicas hold entries %d..%d durably; not acked, in doubt", ErrNoQuorum, durable, len(cl.nodes), start+1, commit)
	}
	cl.leaseUntil = cl.now + cl.cfg.Lease
	return nil
}

// jsonFrame builds one WAL-framed log record from a JSON payload.
func jsonFrame(typ byte, v any) ([]byte, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("cluster: encode record %#x: %w", typ, err)
	}
	return wal.EncodeRecord(typ, data), nil
}

// quotaFrame builds the budget-lease record.
func quotaFrame(bs []Budgets) ([]byte, error) { return jsonFrame(recQuota, bs) }

// budgetsFor splits the global budgets over brokers proportional to
// the shards each one owns.
func budgetsFor(ring Ring, cfg Config) []Budgets {
	counts := make(map[int]int)
	for _, owner := range ring.Owners() {
		counts[owner]++
	}
	shards := ring.Shards()
	out := make([]Budgets, 0, cfg.Nodes)
	for id := 0; id < cfg.Nodes; id++ {
		c := counts[id]
		out = append(out, Budgets{
			Node:       id,
			QueueBytes: cfg.QueueBudget * int64(c) / int64(shards),
			PlaceBytes: cfg.PlaceBudget * int64(c) / int64(shards),
		})
	}
	return out
}
