// Package hsm is the hierarchical-storage-management lifecycle engine
// of the multi-storage resource architecture: a policy loop that runs
// next to the broker and moves data between a disk pool and the tape
// library so the pool survives months of archive churn.
//
// The paper's placement layer decides where a dataset is born and
// leaves it there; production mass-storage systems (HPSS, CASTOR)
// instead run a migration/recall/purge cycle over every disk pool.
// This package adds that cycle, driven by the same virtual-time and
// eq. (1)/(2) machinery the rest of the system uses:
//
//   - Migration: resident datasets idle longer than Policy.ColdAfter
//     are copied to tape in sweeps, batched through the qos scheduler's
//     staging-cartridge write lane when one is attached so robot
//     mounts stay low.  A migrated dataset keeps its disk copy (state
//     "dual") until garbage collection needs the space.
//   - Recall: a read against a tape-only dataset transparently stages
//     the instance back through internal/stage, paying the
//     eq. (1)-priced tape cost once; subsequent reads hit the recall
//     cache on the pool.
//   - Garbage collection: when pool occupancy reaches the high
//     watermark, dual copies are purged lowest benefit-per-byte first
//     (the same scoring stage eviction uses) until the low watermark.
//     A dataset whose only copy is the disk copy is migrated before it
//     is purged — the last copy is never deleted.  When every
//     candidate is pinned or still hot, GC stalls and reports rather
//     than violate that invariant.
//   - Repack: deleted and rewritten tape copies leave dead space on
//     cartridges; when the dead fraction crosses Policy.RepackWaste a
//     sweep compacts the library via tape.Reclaim, coordinating with
//     the qos batch lane through the library's layout generation.
//
// Every lifecycle transition is a metadb row mutation journaled
// through the PR 7 write-ahead log, so a crash mid-move replays to a
// safe state: Recover maps the transient states (migrating, recalling)
// back to their authoritative-copy states (resident, migrated).
package hsm

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/metadb"
	"repro/internal/predict"
	"repro/internal/qos"
	"repro/internal/stage"
	"repro/internal/storage"
	"repro/internal/tape"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// Lifecycle states recorded in metadb.Lifecycle.State.  The durable
// states are resident (disk copy only), dual (disk and tape copies)
// and migrated (tape copy only); migrating and recalling are the
// journaled in-flight markers recovery maps back to a safe state.
const (
	StateResident  = "resident"
	StateMigrating = "migrating" // tape copy being written; disk copy authoritative
	StateDual      = "dual"
	StateMigrated  = "migrated"
	StateRecalling = "recalling" // stage-in in flight; tape copy authoritative
)

// Config wires an Engine together.
type Config struct {
	// Sim is the virtual-time domain (required).
	Sim *vtime.Sim
	// Meta is the lifecycle-state repository (required).  When it is
	// journal-backed every state transition is crash-durable.
	Meta *metadb.DB
	// Pool is the managed disk pool (required).  Tracked datasets and
	// the recall cache live on it; paths under "stage/" are reserved
	// for the recall cache.
	Pool storage.Backend
	// Tape is the archive tier (required).
	Tape *tape.Library
	// PoolCapacity is the byte capacity the watermarks divide
	// (required, positive).
	PoolCapacity int64
	// PDB, when set, prices the GC benefit-per-byte scoring and the
	// recall staging decision; nil falls back to LRU and tier ranking.
	PDB *predict.DB
	// QoS, when set, routes migration tape writes through the
	// scheduler's staging-cartridge batch lane under Tenant.
	QoS *qos.Scheduler
	// Tenant is the scheduler principal for migration traffic
	// (default "hsm").
	Tenant string
	// Policy is the lifecycle policy; zero fields take defaults.
	Policy Policy
	// Trace, when set, records one span per lifecycle move
	// (trace.OpMigrate / OpRecall / OpGC / OpRepack) with the pool as
	// Backend.  Nil disables.
	Trace *trace.Recorder
}

// Stats counts the engine's lifecycle traffic.
type Stats struct {
	Tracked  int // lifecycle rows
	Resident int // rows whose only copy is on disk (incl. migrating)
	Dual     int
	Migrated int // rows whose only copy is on tape (incl. recalling)

	PoolUsed     int64 // tracked disk bytes + recall cache bytes
	PoolCapacity int64

	Migrations      int64 // datasets copied to tape
	MigratedBytes   int64
	MigrateFailures int64 // tape writes that failed (dataset stays resident)
	Requeued        int64 // sweep members requeued by a layout generation change

	Recalls       int64 // reads that had to touch tape
	RecalledBytes int64
	RecallP95     time.Duration // 95th-percentile recall latency (virtual)

	GCRuns   int64
	GCPurged int64 // dual disk copies purged
	GCBytes  int64
	GCStalls int64 // GC runs that could not reach the low watermark

	Repacks     int64
	RepackBytes int64 // tape bytes reclaimed

	Hits   int64 // reads served from the pool (disk copy or warm recall cache)
	Misses int64 // reads that touched tape
	Mounts int64 // tape library lifetime mounts
}

// HitRate returns the disk-pool hit rate, zero when idle.
func (s Stats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Engine is the lifecycle engine.  Create with New; drive with Put /
// Read / Remove and periodic Tick calls.  Safe for concurrent use.
type Engine struct {
	cfg Config
	pol Policy

	stage *stage.Manager

	mu        sync.Mutex
	poolSess  storage.Session
	tapeSess  storage.Session
	pins      map[string]int
	recallLat []time.Duration
	st        Stats
}

// New validates the configuration and returns an Engine.  It does not
// touch existing lifecycle rows; call Recover after reopening a
// journal to restore in-flight moves to a safe state.
func New(cfg Config) (*Engine, error) {
	if cfg.Sim == nil {
		return nil, fmt.Errorf("hsm: Config.Sim is required")
	}
	if cfg.Meta == nil {
		return nil, fmt.Errorf("hsm: Config.Meta is required")
	}
	if cfg.Pool == nil {
		return nil, fmt.Errorf("hsm: Config.Pool is required")
	}
	if cfg.Tape == nil {
		return nil, fmt.Errorf("hsm: Config.Tape is required")
	}
	if cfg.PoolCapacity <= 0 {
		return nil, fmt.Errorf("hsm: Config.PoolCapacity must be positive")
	}
	if cfg.Tenant == "" {
		cfg.Tenant = "hsm"
	}
	pol := cfg.Policy.withDefaults()
	if err := pol.validate(); err != nil {
		return nil, err
	}
	// Recalled archive data is typically re-read many times before it
	// cools again, so the recall cache assumes a deep residual-read
	// count — staging in is almost always worth one tape read.
	mgr, err := stage.New(stage.Config{
		Sim: cfg.Sim, Cache: cfg.Pool, Budget: cfg.PoolCapacity / 4,
		PDB: cfg.PDB, Trace: cfg.Trace, ExpectedReads: 64,
	})
	if err != nil {
		return nil, err
	}
	e := &Engine{cfg: cfg, pol: pol, stage: mgr, pins: make(map[string]int)}
	e.st.PoolCapacity = cfg.PoolCapacity
	return e, nil
}

// Close releases the recall cache's background resources.
func (e *Engine) Close() { e.stage.Close() }

// Policy returns the effective (defaulted) policy.
func (e *Engine) Policy() Policy { return e.pol }

// tapePath maps a pool path to its archive location.
func tapePath(pool, path string) string { return "hsm/" + pool + "/" + path }

// ------------------------------------------------------------------
// Sessions and pins.

func (e *Engine) poolSession(p *vtime.Proc) (storage.Session, error) {
	e.mu.Lock()
	s := e.poolSess
	e.mu.Unlock()
	if s != nil {
		return s, nil
	}
	s2, err := e.cfg.Pool.Connect(p)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.poolSess == nil {
		e.poolSess = s2
	}
	return e.poolSess, nil
}

func (e *Engine) tapeSession(p *vtime.Proc) (storage.Session, error) {
	e.mu.Lock()
	s := e.tapeSess
	e.mu.Unlock()
	if s != nil {
		return s, nil
	}
	s2, err := e.cfg.Tape.Connect(p)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.tapeSess == nil {
		e.tapeSess = s2
	}
	return e.tapeSess, nil
}

// pin marks a dataset in-use: pinned datasets are skipped by migration
// sweeps and GC victim selection until unpin.  Pins nest.  Read pins its
// dataset for the duration of the access.
func (e *Engine) pin(path string) {
	e.mu.Lock()
	e.pins[path]++
	e.mu.Unlock()
}

func (e *Engine) unpin(path string) {
	e.mu.Lock()
	if e.pins[path] > 1 {
		e.pins[path]--
	} else {
		delete(e.pins, path)
	}
	e.mu.Unlock()
}

func (e *Engine) pinned(path string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.pins[path] > 0
}

// ------------------------------------------------------------------
// Data plane.

// Put writes one dataset instance onto the pool and tracks it as
// resident.  A pool at capacity triggers one GC pass to the low
// watermark before the write is retried.
func (e *Engine) Put(p *vtime.Proc, path string, data []byte) error {
	if path == "" {
		return fmt.Errorf("hsm: empty path")
	}
	sess, err := e.poolSession(p)
	if err != nil {
		return err
	}
	// Admitting the new bytes may push occupancy past the high
	// watermark; collect proactively so the pool write cannot hit the
	// device's hard capacity.
	if err := e.gcFor(p, int64(len(data))); err != nil {
		return err
	}
	if err := storage.PutFile(p, sess, path, storage.ModeOverWrite, data); err != nil {
		return err
	}
	return e.cfg.Meta.PutLifecycle(nil, metadb.Lifecycle{
		Pool: e.cfg.Pool.Name(), Path: path, State: StateResident,
		Bytes: int64(len(data)), LastAccess: int64(p.Now()),
	})
}

// Read returns one dataset instance's bytes, wherever its current
// copy lives.  Resident and dual datasets read from the pool;
// migrated datasets recall through the staging engine (a warm recall
// cache counts as a pool hit).  The row's access history is updated
// and journaled.
func (e *Engine) Read(p *vtime.Proc, path string) ([]byte, error) {
	row, err := e.cfg.Meta.GetLifecycle(nil, e.cfg.Pool.Name(), path)
	if err != nil {
		return nil, err
	}
	e.pin(path)
	defer e.unpin(path)

	touch := func(state string) error {
		row.State = state
		row.LastAccess = int64(p.Now())
		row.Accesses++
		return e.cfg.Meta.PutLifecycle(nil, row)
	}

	switch row.State {
	case StateResident, StateMigrating, StateDual:
		sess, err := e.poolSession(p)
		if err != nil {
			return nil, err
		}
		data, err := storage.GetFile(p, sess, path)
		if err != nil {
			return nil, err
		}
		e.mu.Lock()
		e.st.Hits++
		e.mu.Unlock()
		return data, touch(row.State)

	case StateMigrated, StateRecalling:
		tsess, err := e.tapeSession(p)
		if err != nil {
			return nil, err
		}
		// Journal the in-flight marker first: a crash during the
		// stage-in replays to "recalling" and Recover maps it back to
		// migrated (the tape copy stays authoritative; the stage
		// engine never leaves partial copies).
		if row.State != StateRecalling {
			if err := touch(StateRecalling); err != nil {
				return nil, err
			}
		}
		start := p.Now()
		plan := e.stage.StageRead(p, e.cfg.Tape, tsess, row.TapePath, row.Bytes)
		data, err := storage.GetFile(p, plan.Sess, plan.Path)
		plan.Release()
		if err != nil {
			return nil, err
		}
		e.mu.Lock()
		if plan.Hit {
			// Warm recall cache: the pool served the read.
			e.st.Hits++
		} else {
			e.st.Misses++
			e.st.Recalls++
			e.st.RecalledBytes += int64(len(data))
			e.noteRecall(p.Now() - start)
		}
		hit := plan.Hit
		e.mu.Unlock()
		if !hit && e.cfg.Trace != nil {
			e.cfg.Trace.Record(trace.Event{
				At: p.Now(), Proc: p.Name(), Backend: e.cfg.Pool.Name(),
				Op: trace.OpRecall, Path: path, Bytes: int64(len(data)),
				Cost: p.Now() - start,
			})
		}
		return data, touch(StateMigrated)
	}
	return nil, fmt.Errorf("hsm: %s: unknown lifecycle state %q", path, row.State)
}

// Remove deletes every copy of one dataset and drops its lifecycle
// row.  Removing the tape copy leaves dead space on its cartridge,
// which later repack sweeps reclaim.
func (e *Engine) Remove(p *vtime.Proc, path string) error {
	row, err := e.cfg.Meta.GetLifecycle(nil, e.cfg.Pool.Name(), path)
	if err != nil {
		return err
	}
	if e.pinned(path) {
		return fmt.Errorf("hsm: %s is busy", path)
	}
	// Journal the deletion before touching any copy: a crash after the
	// journal write leaves orphaned copies (harmless garbage — a tape
	// orphan is dead space the next repack reclaims), never a live row
	// whose copies are gone.
	if err := e.cfg.Meta.DeleteLifecycle(nil, e.cfg.Pool.Name(), path); err != nil {
		return err
	}
	switch row.State {
	case StateResident, StateMigrating, StateDual:
		sess, err := e.poolSession(p)
		if err != nil {
			return err
		}
		_ = sess.Remove(p, path)
	}
	if row.TapePath != "" {
		tsess, err := e.tapeSession(p)
		if err != nil {
			return err
		}
		_ = tsess.Remove(p, row.TapePath)
	}
	return nil
}

// State returns one dataset's current lifecycle state.
func (e *Engine) State(path string) (string, error) {
	row, err := e.cfg.Meta.GetLifecycle(nil, e.cfg.Pool.Name(), path)
	if err != nil {
		return "", err
	}
	return row.State, nil
}

// occupancy returns the pool bytes the engine accounts for: every
// tracked disk copy plus the recall cache.
func (e *Engine) occupancy() int64 {
	var n int64
	for _, r := range e.cfg.Meta.Lifecycles(nil, e.cfg.Pool.Name()) {
		switch r.State {
		case StateResident, StateMigrating, StateDual:
			n += r.Bytes
		}
	}
	return n + e.stage.Used()
}

// ------------------------------------------------------------------
// The policy loop.

// Tick runs one policy sweep on p's clock: migrate cold residents,
// collect the pool against the watermarks, and repack fragmented
// cartridges.  cmd/srbd ticks every Policy.ScanInterval of scaled
// time; experiments drive it explicitly between workload phases.
func (e *Engine) Tick(p *vtime.Proc) error {
	if err := e.migrateSweep(p); err != nil {
		return err
	}
	if err := e.gcFor(p, 0); err != nil {
		return err
	}
	return e.repack(p)
}

// migrateSweep copies cold resident datasets to tape, oldest first,
// at most Policy.MaxBatch per sweep.  With a qos scheduler the
// members are submitted together so the staging-cartridge write lane
// batches them under one mount; a layout generation change mid-sweep
// (a concurrent repack) requeues the remainder for the next sweep
// rather than writing against a moved shelf.
func (e *Engine) migrateSweep(p *vtime.Proc) error {
	now := p.Now()
	var cands []metadb.Lifecycle
	for _, r := range e.cfg.Meta.Lifecycles(nil, e.cfg.Pool.Name()) {
		if r.State == StateResident && now-time.Duration(r.LastAccess) >= e.pol.ColdAfter && !e.pinned(r.Path) {
			cands = append(cands, r)
		}
	}
	if len(cands) == 0 {
		return nil
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].LastAccess < cands[j].LastAccess })
	if len(cands) > e.pol.MaxBatch {
		cands = cands[:e.pol.MaxBatch]
	}
	gen := e.cfg.Tape.Generation()
	// Journal the in-flight markers before any tape byte moves: a
	// crash replays each member to "migrating" and Recover restores it
	// to resident (the disk copy is authoritative; a partial tape copy
	// is dead space repack reclaims).
	for i := range cands {
		cands[i].State = StateMigrating
		if err := e.cfg.Meta.PutLifecycle(nil, cands[i]); err != nil {
			return err
		}
	}
	if e.cfg.QoS != nil {
		return e.migrateBatchQoS(p, cands, gen)
	}
	for i := range cands {
		if e.cfg.Tape.Generation() != gen {
			// The shelf moved (repack): requeue the remainder.
			return e.requeue(cands[i:])
		}
		if err := e.migrateOne(p, cands[i], func(fn func() error) error { return fn() }); err != nil {
			return err
		}
	}
	return nil
}

// migrateBatchQoS submits every member's tape write concurrently so
// the scheduler's write lane can group them into one staging-cartridge
// batch.  The scheduler is paused while the backlog builds — the same
// drain-window idiom its tests use — so the batch forms
// deterministically.
func (e *Engine) migrateBatchQoS(p *vtime.Proc, cands []metadb.Lifecycle, gen int64) error {
	s := e.cfg.QoS
	depth := s.QueueDepth()
	s.Pause()
	var wg sync.WaitGroup
	errs := make([]error, len(cands))
	for i := range cands {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			row := cands[i]
			pm := e.cfg.Sim.NewProc("hsm-migrate")
			pm.AdvanceTo(p.Now())
			errs[i] = e.migrateOne(pm, row, func(fn func() error) error {
				return s.Do(pm, qos.Request{
					Tenant: e.cfg.Tenant, Backend: e.cfg.Tape.Name(),
					Class: storage.KindRemoteTape.String(), Op: "write",
					Path: tapePath(row.Pool, row.Path), Bytes: row.Bytes,
				}, fn)
			})
		}(i)
	}
	// Wait for the members to be visibly queued before granting, so
	// they form one batch instead of trickling through.
	deadline := time.Now().Add(5 * time.Second)
	for s.QueueDepth() < depth+len(cands) && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
	s.Resume()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	_ = gen // the qos batch lane re-validates the generation itself
	return nil
}

// migrateOne copies one migrating row's bytes to tape through submit
// (the qos grant wrapper, or a direct call) and journals the outcome:
// dual on success, back to resident on a failed tape write.
func (e *Engine) migrateOne(p *vtime.Proc, row metadb.Lifecycle, submit func(func() error) error) error {
	start := p.Now()
	psess, err := e.poolSession(p)
	if err != nil {
		return err
	}
	data, gerr := storage.GetFile(p, psess, row.Path)
	var werr error
	if gerr == nil {
		// An unreachable tape tier (connect failure) is a migration
		// failure like any other: the dataset stays resident and the
		// sweep carries on.
		tsess, terr := e.tapeSession(p)
		if terr != nil {
			werr = terr
		} else {
			werr = submit(func() error {
				return storage.PutFile(p, tsess, tapePath(row.Pool, row.Path), storage.ModeOverWrite, data)
			})
		}
	}
	if gerr != nil || werr != nil {
		e.mu.Lock()
		e.st.MigrateFailures++
		e.mu.Unlock()
		row.State = StateResident
		row.TapePath = ""
		return e.cfg.Meta.PutLifecycle(nil, row)
	}
	row.State = StateDual
	row.TapePath = tapePath(row.Pool, row.Path)
	if err := e.cfg.Meta.PutLifecycle(nil, row); err != nil {
		return err
	}
	e.mu.Lock()
	e.st.Migrations++
	e.st.MigratedBytes += int64(len(data))
	e.mu.Unlock()
	if e.cfg.Trace != nil {
		e.cfg.Trace.Record(trace.Event{
			At: p.Now(), Proc: p.Name(), Backend: e.cfg.Pool.Name(),
			Op: trace.OpMigrate, Path: row.Path, Bytes: int64(len(data)),
			Cost: p.Now() - start,
		})
	}
	return nil
}

// requeue journals sweep members back to resident so the next sweep
// retries them against the new tape layout.
func (e *Engine) requeue(rows []metadb.Lifecycle) error {
	for _, r := range rows {
		r.State = StateResident
		r.TapePath = ""
		if err := e.cfg.Meta.PutLifecycle(nil, r); err != nil {
			return err
		}
	}
	e.mu.Lock()
	e.st.Requeued += int64(len(rows))
	e.mu.Unlock()
	return nil
}

// gcFor collects the pool when admitting `incoming` more bytes would
// put occupancy at or past the high watermark, draining to the low
// watermark.  Purge order is lowest benefit-per-byte first among dual
// copies; resident datasets are migrated before they may be purged
// (never delete the last copy).  When nothing can legally be freed
// the run stalls and reports through Stats.GCStalls.
func (e *Engine) gcFor(p *vtime.Proc, incoming int64) error {
	high := int64(e.pol.HighWater * float64(e.cfg.PoolCapacity))
	low := int64(e.pol.LowWater * float64(e.cfg.PoolCapacity))
	occ := e.occupancy()
	if occ+incoming < high {
		return nil
	}
	e.mu.Lock()
	e.st.GCRuns++
	e.mu.Unlock()
	for occ+incoming > low {
		victim, ok := e.victim(p)
		if !ok {
			// Everything left is pinned, hot, or already tape-only:
			// stall rather than purge a last copy.
			e.mu.Lock()
			e.st.GCStalls++
			e.mu.Unlock()
			return nil
		}
		if victim.State == StateResident {
			// Migrate-before-purge: the disk copy is the last copy.
			victim.State = StateMigrating
			if err := e.cfg.Meta.PutLifecycle(nil, victim); err != nil {
				return err
			}
			if err := e.migrateOne(p, victim, func(fn func() error) error { return fn() }); err != nil {
				return err
			}
			row, err := e.cfg.Meta.GetLifecycle(nil, victim.Pool, victim.Path)
			if err != nil {
				return err
			}
			if row.State != StateDual {
				// The migration failed; the dataset must keep its disk
				// copy, so this GC run cannot make further progress.
				e.mu.Lock()
				e.st.GCStalls++
				e.mu.Unlock()
				return nil
			}
			victim = row
		}
		if err := e.purge(p, victim); err != nil {
			return err
		}
		occ = e.occupancy()
	}
	return nil
}

// victim picks the unpinned dataset with the least predicted
// benefit-per-byte of keeping its disk copy — dual copies before
// resident ones (purging a dual costs no migration), LRU when the
// predictor cannot price the saving.  ok is false when no dataset may
// legally be freed.
func (e *Engine) victim(p *vtime.Proc) (metadb.Lifecycle, bool) {
	var best metadb.Lifecycle
	found := false
	bestDual := false
	bestScore := 0.0
	for _, r := range e.cfg.Meta.Lifecycles(nil, e.cfg.Pool.Name()) {
		if r.State != StateDual && r.State != StateResident {
			continue
		}
		if e.pinned(r.Path) || r.Bytes <= 0 {
			continue
		}
		isDual := r.State == StateDual
		score := e.benefit(r, p.Now())
		better := false
		switch {
		case !found:
			better = true
		case isDual != bestDual:
			better = isDual
		case score != bestScore:
			better = score < bestScore
		default:
			better = r.LastAccess < best.LastAccess
		}
		if better {
			best, bestDual, bestScore, found = r, isDual, score, true
		}
	}
	return best, found
}

// benefit scores the saving-per-byte of keeping r's disk copy: the
// stage-eviction formula residual × (T_tape − T_pool) / bytes, with
// one residual access assumed while the dataset is still warmer than
// ColdAfter and zero after.  Without a predictor every score is zero
// and LRU order decides.
func (e *Engine) benefit(r metadb.Lifecycle, now time.Duration) float64 {
	if e.cfg.PDB == nil {
		return 0
	}
	residual := 0.0
	if now-time.Duration(r.LastAccess) < e.pol.ColdAfter {
		residual = 1
	}
	tTape, err1 := e.cfg.PDB.WholeFile(e.cfg.Tape.Kind().String(), "read", r.Bytes)
	tPool, err2 := e.cfg.PDB.WholeFile(e.cfg.Pool.Kind().String(), "read", r.Bytes)
	if err1 != nil || err2 != nil {
		return 0
	}
	return residual * (tTape - tPool) / float64(r.Bytes)
}

// purge removes a dual dataset's disk copy, journaling migrated.
func (e *Engine) purge(p *vtime.Proc, row metadb.Lifecycle) error {
	start := p.Now()
	sess, err := e.poolSession(p)
	if err != nil {
		return err
	}
	// Journal before deleting: a crash in between leaves an orphaned
	// disk file (garbage), never a dual row whose disk copy is gone.
	row.State = StateMigrated
	if err := e.cfg.Meta.PutLifecycle(nil, row); err != nil {
		return err
	}
	_ = sess.Remove(p, row.Path)
	e.mu.Lock()
	e.st.GCPurged++
	e.st.GCBytes += row.Bytes
	e.mu.Unlock()
	if e.cfg.Trace != nil {
		e.cfg.Trace.Record(trace.Event{
			At: p.Now(), Proc: p.Name(), Backend: e.cfg.Pool.Name(),
			Op: trace.OpGC, Path: row.Path, Bytes: row.Bytes,
			Cost: p.Now() - start,
		})
	}
	return nil
}

// repack compacts the tape library when the dead-space fraction
// crosses Policy.RepackWaste.  The Reclaim bumps the layout
// generation, which invalidates any in-flight qos batch (its members
// requeue with their deficit refunded) and any remaining sweep.
func (e *Engine) repack(p *vtime.Proc) error {
	if e.pol.RepackWaste <= 0 {
		return nil
	}
	_, _, wasted := e.cfg.Tape.Stats()
	if wasted == 0 {
		return nil
	}
	var live int64
	for _, r := range e.cfg.Meta.Lifecycles(nil, e.cfg.Pool.Name()) {
		if r.TapePath != "" {
			live += r.Bytes
		}
	}
	if float64(wasted)/float64(wasted+live) < e.pol.RepackWaste {
		return nil
	}
	start := p.Now()
	n, err := e.cfg.Tape.Reclaim(p)
	if err != nil {
		return err
	}
	e.mu.Lock()
	e.st.Repacks++
	e.st.RepackBytes += n
	e.mu.Unlock()
	if e.cfg.Trace != nil {
		e.cfg.Trace.Record(trace.Event{
			At: p.Now(), Proc: p.Name(), Backend: e.cfg.Tape.Name(),
			Op: trace.OpRepack, Bytes: n, Cost: p.Now() - start,
		})
	}
	return nil
}

// ------------------------------------------------------------------
// Recovery and observability.

// Recover restores in-flight lifecycle moves to their safe states
// after a journal replay: migrating rows return to resident (the disk
// copy is authoritative; any partial tape copy is dead space repack
// reclaims) and recalling rows return to migrated (the tape copy is
// authoritative; the stage engine never leaves partial cache copies).
// It returns the number of rows restored.
func (e *Engine) Recover() (int, error) {
	fixed := 0
	for _, r := range e.cfg.Meta.Lifecycles(nil, e.cfg.Pool.Name()) {
		switch r.State {
		case StateMigrating:
			r.State = StateResident
			r.TapePath = ""
		case StateRecalling:
			r.State = StateMigrated
		default:
			continue
		}
		if err := e.cfg.Meta.PutLifecycle(nil, r); err != nil {
			return fixed, err
		}
		fixed++
	}
	return fixed, nil
}

// Stats snapshots the engine's counters plus a state census.
func (e *Engine) Stats() Stats {
	rows := e.cfg.Meta.Lifecycles(nil, e.cfg.Pool.Name())
	occ := e.occupancy()
	mounts, _, _ := e.cfg.Tape.Stats()
	e.mu.Lock()
	st := e.st
	e.mu.Unlock()
	st.PoolUsed = occ
	st.Mounts = mounts
	st.Tracked = len(rows)
	for _, r := range rows {
		switch r.State {
		case StateResident, StateMigrating:
			st.Resident++
		case StateDual:
			st.Dual++
		case StateMigrated, StateRecalling:
			st.Migrated++
		}
	}
	st.RecallP95 = e.recallP95()
	return st
}

// noteRecall records one recall latency, halving the window at the
// 1<<14 cap so the slice stays bounded while keeping the newest half.
// Callers hold e.mu.
func (e *Engine) noteRecall(d time.Duration) {
	e.recallLat = append(e.recallLat, d)
	if len(e.recallLat) > 1<<14 {
		e.recallLat = e.recallLat[len(e.recallLat)/2:]
	}
}

// recallP95 computes the 95th-percentile recall latency.
func (e *Engine) recallP95() time.Duration {
	e.mu.Lock()
	lat := append([]time.Duration(nil), e.recallLat...)
	e.mu.Unlock()
	return Percentile(lat, 95)
}

// Percentile returns the pct-th percentile of the samples by the
// ceiling nearest-rank rule (rank ⌈len·pct/100⌉, 1-based): the smallest
// sample that at least pct percent of the samples do not exceed.  The
// input is not modified.  Shared with the workflow provisioner, which
// uses the same rule over predicted per-item stage-in times.
func Percentile(lat []time.Duration, pct int) time.Duration {
	if len(lat) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := (len(s)*pct + 99) / 100
	if i > 0 {
		i--
	}
	return s[i]
}
