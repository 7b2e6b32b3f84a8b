// Deep-copy snapshots.  Follower catch-up in internal/cluster adopts a
// leader replica wholesale when it is too far behind to replay the
// log; Clone/CopyFrom are that path.
package metadb

// Clone returns a deep-copy snapshot of the tables: a database that
// shares no mutable state with the receiver, so concurrent mutators on
// the original never show through and edits to the clone never leak
// back.  The clone has no journal and no replicator — it is a
// point-in-time snapshot, not a second writer for the same history.
func (db *DB) Clone() *DB {
	out := New()
	db.mu.RLock()
	defer db.mu.RUnlock()
	for k, v := range db.runs {
		out.runs[k] = v
	}
	for k, v := range db.datasets {
		v.Dims = append([]int(nil), v.Dims...)
		out.datasets[k] = v
	}
	for k, v := range db.lifecycles {
		out.lifecycles[k] = v
	}
	out.samples = append([]PerfSample(nil), db.samples...)
	out.constants = append([]PerfConstant(nil), db.constants...)
	return out
}

// CopyFrom replaces the receiver's tables with a deep copy of src's
// (the rejoin path: a recovered replica adopts the leader's state).
// The receiver's journal, if any, is not rewritten to match — callers
// that need the journal to cover the adopted state should Checkpoint
// afterwards.  Neither database's lock is held while the other is
// locked, so any locking discipline of the caller's stays intact.
func (db *DB) CopyFrom(src *DB) {
	c := src.Clone()
	db.mu.Lock()
	db.runs, db.datasets, db.lifecycles = c.runs, c.datasets, c.lifecycles
	db.samples, db.constants = c.samples, c.constants
	db.curves.Store(nil)
	db.mu.Unlock()
}
