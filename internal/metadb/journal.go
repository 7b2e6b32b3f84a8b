// Journal-backed persistence: every mutation is written through the
// write-ahead log of internal/wal before it touches the in-memory
// tables, so the broker's meta-data survives a crash at any instant
// with no acknowledged row lost and no partial row visible.  Recovery
// is snapshot + replay: OpenJournal loads the newest checkpoint and
// re-applies the records appended after it, in order.
//
// The commit pipeline.  A mutation (a mutator, or ApplyRecord on a
// cluster replica) passes three stages and holds no lock across disk:
//
//	journal  under db.jmu: append the record, take the next ticket
//	flush    no lock held: wal.Log.Sync, shared with whoever else is
//	         waiting (group commit)
//	apply    at the ticket's turn, under db.mu: update the tables
//
// which keeps these invariants (journal_pipeline_test.go):
//
//	(a) a mutator returns nil only after a flush covering its record;
//	(b) apply order equals journal order, so replay reproduces memory
//	    even for racing writers of one key;
//	(c) a row is not visible to readers before it is durable;
//	(d) readers never wait on an fsync: db.mu is held only to touch
//	    the tables;
//	(e) a failed flush poisons the log, so it fails every mutation it
//	    would have covered and all later ones, and applies none;
//	(f) Checkpoint and CloseJournal quiesce the pipeline first, so a
//	    snapshot covers exactly the journaled history.
//
// The pipeline keeps no per-mutation state on the heap: tickets are
// two counters and one condition variable.
package metadb

import (
	"encoding/json"
	"fmt"

	"repro/internal/vtime"
	"repro/internal/wal"
)

// Journal record types.  Payloads are JSON, one mutation per record,
// matching the mutator that produced them.
const (
	recPutRun         byte = 1
	recPutDataset     byte = 2
	recAddSample      byte = 3
	recReplaceSamples byte = 4
	recSetConstant    byte = 5
	recPutLifecycle   byte = 6
	recDelLifecycle   byte = 7
)

// lifecycleKey is the journal encoding of one DeleteLifecycle call.
type lifecycleKey struct {
	Pool string `json:"pool"`
	Path string `json:"path"`
}

// replacePayload is the journal encoding of one ReplaceSamples call:
// the whole-curve swap must replay as a unit or the calibration
// write-back could leave a blended stale/fresh curve after recovery.
type replacePayload struct {
	Resource string       `json:"resource"`
	Op       string       `json:"op"`
	Samples  []PerfSample `json:"samples"`
}

// OpenJournal opens a database persisted through a write-ahead journal
// in opts.Dir, replaying any existing snapshot and log.  Every
// subsequent mutation is appended and fsynced before it is applied, so
// a mutator returning nil means the row is crash-durable.
func OpenJournal(opts wal.Options) (*DB, error) {
	l, rec, err := wal.Open(opts)
	if err != nil {
		return nil, fmt.Errorf("metadb journal: %w", err)
	}
	db := New()
	if rec.Snapshot != nil {
		var snap snapshot
		if err := json.Unmarshal(rec.Snapshot, &snap); err != nil {
			l.Close()
			return nil, fmt.Errorf("metadb journal: %w: snapshot: %v", wal.ErrCorrupt, err)
		}
		db.install(snap)
	}
	for i, r := range rec.Records {
		if err := db.apply(r); err != nil {
			l.Close()
			return nil, fmt.Errorf("metadb journal: %w: record %d: %v", wal.ErrCorrupt, i, err)
		}
	}
	db.log = l
	return db, nil
}

// Journaled reports whether the database was opened through a journal.
func (db *DB) Journaled() bool { return db.log != nil }

// JournalStats returns the journal's counters; ok is false when the
// database is not journal-backed.
func (db *DB) JournalStats() (st wal.Stats, ok bool) {
	if db.log == nil {
		return wal.Stats{}, false
	}
	return db.log.Stats(), true
}

// quiesceLocked closes the pipeline's gate and waits until every
// journaled record has been applied or failed.  Called with db.jmu
// held; on return the caller still holds it, no mutation is in flight
// and none can start until reopenLocked.
func (db *DB) quiesceLocked() {
	for db.gated {
		db.turn.Wait()
	}
	db.gated = true
	for db.retired != db.journaled {
		db.turn.Wait()
	}
}

// reopenLocked lifts the gate quiesceLocked closed.
func (db *DB) reopenLocked() {
	db.gated = false
	db.turn.Broadcast()
}

// Checkpoint compacts the journal: the current tables become the
// snapshot baseline and the records they summarize are removed.  The
// pipeline is quiesced across the marshal and the compaction so the
// snapshot covers exactly the journaled history; readers carry on.
// No-op without a journal.
func (db *DB) Checkpoint() error {
	if db.log == nil {
		return nil
	}
	db.jmu.Lock()
	defer db.jmu.Unlock()
	db.quiesceLocked()
	defer db.reopenLocked()
	if db.closed {
		return errJournalClosed
	}
	db.mu.RLock()
	snap := db.snapshotLocked()
	db.mu.RUnlock()
	data, err := json.Marshal(snap)
	if err != nil {
		return fmt.Errorf("metadb checkpoint: %w", err)
	}
	return db.log.Compact(data)
}

// CloseJournal drains the pipeline, then syncs and closes the journal.
// Mutations after this fail.  No-op without a journal or when already
// closed.
func (db *DB) CloseJournal() error {
	if db.log == nil {
		return nil
	}
	db.jmu.Lock()
	defer db.jmu.Unlock()
	db.quiesceLocked()
	defer db.reopenLocked()
	if db.closed {
		return nil
	}
	db.closed = true
	return db.log.Close()
}

var errJournalClosed = fmt.Errorf("metadb: journal closed")

// journal runs one record through the journal and flush stages and
// returns at its turn of the apply stage, holding db.mu: on nil the
// caller updates the tables and calls applied.  On error the record
// was not acknowledged, its turn has been passed on and no lock is
// held.  Without a journal only the lock is taken.
func (db *DB) journal(typ byte, data []byte) error {
	if db.log == nil {
		db.mu.Lock()
		return nil
	}
	db.jmu.Lock()
	for db.gated {
		db.turn.Wait()
	}
	if db.closed {
		db.jmu.Unlock()
		return errJournalClosed
	}
	if err := db.log.Append(typ, data); err != nil {
		db.jmu.Unlock()
		return err
	}
	db.journaled++
	ticket := db.journaled
	db.jmu.Unlock()

	err := db.log.Sync()

	db.jmu.Lock()
	for db.retired != ticket-1 {
		db.turn.Wait()
	}
	if err != nil {
		db.retireLocked()
		return err
	}
	db.mu.Lock()
	return nil
}

// applied ends the apply stage journal opened: it releases db.mu and
// passes the turn to the next ticket.
func (db *DB) applied() {
	db.mu.Unlock()
	if db.log != nil {
		db.retireLocked()
	}
}

// retireLocked passes the turn on and releases db.jmu.
func (db *DB) retireLocked() {
	db.retired++
	db.turn.Broadcast()
	db.jmu.Unlock()
}

// Replicator routes mutations through a cluster replicated log.  When
// one is installed every mutator hands its journal record to
// Replicate INSTEAD of journaling and applying it locally; the log
// layer feeds the committed record back to every replica — this
// database included — through ApplyRecord.  Replicate returning nil
// therefore means the mutation is durable on a quorum and applied
// locally, the same ack contract a journaled mutator gives.
type Replicator interface {
	Replicate(p *vtime.Proc, typ byte, data []byte) error
}

// SetReplicator installs (or, with nil, removes) the cluster
// replicator.  The mutator that triggers replication holds no
// database lock while Replicate runs, so the replicator is free to
// call ApplyRecord on any replica, including this one.
func (db *DB) SetReplicator(r Replicator) {
	db.mu.Lock()
	db.repl = r
	db.mu.Unlock()
}

// replicator returns the installed replicator, if any.
func (db *DB) replicator() Replicator {
	db.mu.RLock()
	r := db.repl
	db.mu.RUnlock()
	return r
}

// commit makes one mutation durable by whichever route the database is
// configured for.  With a replicator installed the record is offered
// to the replicated log; on nil error it has been committed and
// applied back to these tables via ApplyRecord, so the caller must not
// touch them (apply=false).  Otherwise the record goes through the
// commit pipeline: apply=true means it is durable and the caller
// holds db.mu at its turn — update the tables, then call applied.
func (db *DB) commit(p *vtime.Proc, typ byte, v any) (apply bool, err error) {
	rep := db.replicator()
	var data []byte
	if rep != nil || db.log != nil {
		if data, err = json.Marshal(v); err != nil {
			return false, fmt.Errorf("metadb journal: %w", err)
		}
	}
	if rep != nil {
		return false, rep.Replicate(p, typ, data)
	}
	if err := db.journal(typ, data); err != nil {
		return false, err
	}
	return true, nil
}

// ApplyRecord applies one committed replicated record: the follower
// half of cluster replication.  The record goes through the same
// commit pipeline as a local mutation (journaled and flushed when a
// journal is open) and is applied through the switch crash recovery
// replays, so a replica's tables and journal stay exactly as if the
// mutation had happened here.  The replicator hook is not consulted —
// the record has already been through the leader's log.  data is not
// retained.
func (db *DB) ApplyRecord(typ byte, data []byte) error {
	if err := db.journal(typ, data); err != nil {
		return err
	}
	defer db.applied()
	return db.apply(wal.Record{Type: typ, Data: data})
}

// install replaces the tables from a decoded snapshot.  Caller holds
// db.mu, or the database is not yet shared (recovery).
func (db *DB) install(snap snapshot) {
	db.runs = make(map[string]Run, len(snap.Runs))
	for _, r := range snap.Runs {
		db.runs[r.ID] = r
	}
	db.datasets = make(map[string]Dataset, len(snap.Datasets))
	for _, d := range snap.Datasets {
		db.datasets[dsKey(d.RunID, d.Name)] = d
	}
	db.lifecycles = make(map[string]Lifecycle, len(snap.Lifecycles))
	for _, l := range snap.Lifecycles {
		db.lifecycles[lcKey(l.Pool, l.Path)] = l
	}
	db.samples = snap.Samples
	db.constants = snap.Constants
	db.curves.Store(nil)
}

// apply replays one journal record against the tables (recovery path).
func (db *DB) apply(r wal.Record) error {
	switch r.Type {
	case recPutRun:
		var row Run
		if err := json.Unmarshal(r.Data, &row); err != nil {
			return err
		}
		db.runs[row.ID] = row
	case recPutDataset:
		var row Dataset
		if err := json.Unmarshal(r.Data, &row); err != nil {
			return err
		}
		db.datasets[dsKey(row.RunID, row.Name)] = row
	case recAddSample:
		var s PerfSample
		if err := json.Unmarshal(r.Data, &s); err != nil {
			return err
		}
		db.samples = append(db.samples, s)
		db.curves.Store(nil)
	case recReplaceSamples:
		var p replacePayload
		if err := json.Unmarshal(r.Data, &p); err != nil {
			return err
		}
		db.replaceSamplesLocked(p.Resource, p.Op, p.Samples)
	case recSetConstant:
		var c PerfConstant
		if err := json.Unmarshal(r.Data, &c); err != nil {
			return err
		}
		db.setConstantLocked(c)
	case recPutLifecycle:
		var l Lifecycle
		if err := json.Unmarshal(r.Data, &l); err != nil {
			return err
		}
		db.lifecycles[lcKey(l.Pool, l.Path)] = l
	case recDelLifecycle:
		var k lifecycleKey
		if err := json.Unmarshal(r.Data, &k); err != nil {
			return err
		}
		delete(db.lifecycles, lcKey(k.Pool, k.Path))
	default:
		return fmt.Errorf("unknown record type %d", r.Type)
	}
	return nil
}
