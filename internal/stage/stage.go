// Package stage implements the prediction-driven staging engine: a
// capacity-budgeted fast-tier cache (typically the local disks) in
// front of the slower storage resources (remote disks, remote tapes)
// of the multi-storage resource architecture.
//
// The paper's five-layer system *places* each dataset on one resource
// and leaves it there, so a tape-homed dataset pays tape latency on
// every access.  Hierarchical storage managers migrate hot data toward
// fast tiers instead; this package adds that migration, driven by the
// same eq. (1)/(2) performance model the placement layer already
// consults:
//
//   - On dataset read the Manager decides whether staging in pays off:
//     with R predicted residual accesses, stage when
//     R·(T_home − T_cache) > T_copy_in, where T_home and T_cache are
//     the whole-instance access costs on each tier and T_copy_in is the
//     one-time cost of writing the copy to the cache.  Without PTool
//     measurements the decision degenerates to a tier ranking (tape
//     slower than remote disk slower than local disk).
//   - Copies move whole instances through the storage.WholeFiler /
//     storage.GetFile fast paths, retried under a resilient.Policy, and
//     every byte moved is charged to the calling process's virtual
//     clock so staging cost lands in the run's eq. (2) accounting.
//   - Eviction is cost-aware: the entry with the least predicted
//     benefit-per-byte goes first, falling back to LRU when the
//     predictor has no data.  Pinned entries (datasets mid-read) are
//     never evicted; dirty entries are written back before removal.
//   - Writes may be staged too: the instance lands on the cache tier,
//     is marked dirty, and drains to its home tier on eviction or when
//     the run finalizes (write-back).
//   - Background prefetch stages the next iteration's instances during
//     compute phases on dedicated prefetch processes, so a consumer
//     that walks dumps in order finds each next instance already
//     cached.
package stage

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/predict"
	"repro/internal/resilient"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// DefaultExpectedReads is the assumed total number of reads each
// instance will receive when the caller provides no better estimate:
// the paper's pipeline reads every dump at least twice (data analysis
// and visualization both consume the simulation's output).
const DefaultExpectedReads = 2

// Config wires a Manager together.
type Config struct {
	// Sim is the virtual-time domain (required); prefetch jobs run on
	// processes created from it.
	Sim *vtime.Sim
	// Cache is the fast-tier backend the staged copies live on
	// (required).
	Cache storage.Backend
	// Budget caps the cached bytes (required, positive).  The cache
	// backend's real capacity is additionally reserved by
	// placement.WithStaging so AUTO placement cannot consume it.
	Budget int64
	// PDB is the eq. (2) predictor used for the staging decision and
	// the eviction benefit score.  Nil falls back to tier ranking and
	// LRU.
	PDB *predict.DB
	// ExpectedReads is the anticipated total reads per instance
	// (DefaultExpectedReads when zero).
	ExpectedReads int
	// PrefetchDepth is the background prefetch queue depth; zero
	// disables prefetch.
	PrefetchDepth int
	// Retry bounds the stage-copy retry loop (package resilient
	// defaults apply to zero fields).  When the home backend is already
	// wrapped by resilient.Wrap, its exhausted budget surfaces as a
	// permanent error and this outer loop stops immediately.
	Retry resilient.Policy
	// Health, when set, vetoes stage-ins from home resources whose
	// circuit is open: the copy would only fast-fail, so the read falls
	// through directly.
	Health *resilient.Health
	// Trace, when set, records one span per completed tier-to-tier copy
	// (trace.OpStageIn / OpPrefetch / OpWriteBack) with the home
	// resource as Backend and the home path, so cache traffic is
	// attributable next to the native calls it causes.  Nil disables.
	Trace *trace.Recorder
}

// Stats counts the Manager's traffic.
type Stats struct {
	Hits          int64 // reads served from the cache tier
	Misses        int64 // reads served directly from the home tier
	StagedIn      int64 // instances copied into the cache
	StagedWrites  int64 // instances written through the cache
	StageFailures int64 // stage-ins abandoned (the read fell through)
	Evictions     int64
	WriteBacks    int64 // dirty instances drained to their home tier

	PrefetchIssued int64
	PrefetchDone   int64
	PrefetchHits   int64 // hits whose copy a prefetch job produced

	BytesStagedIn    int64
	BytesWrittenBack int64
	BytesEvicted     int64

	Used     int64
	PeakUsed int64
	Budget   int64
}

// HitRate returns hits / (hits + misses), zero when idle.
func (s Stats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// BytesMoved sums every byte the engine copied between tiers.
func (s Stats) BytesMoved() int64 { return s.BytesStagedIn + s.BytesWrittenBack }

// entry is one cached instance.
type entry struct {
	key    string // home backend name + "/" + home path
	path   string // path on the home backend
	staged string // path on the cache backend
	home   storage.Backend
	bytes  int64

	ready      bool // the cache copy is complete and current
	dirty      bool // the cache copy is newer than the home copy
	superseded bool // a direct home write overtook the cache copy
	pins       int
	lastUse    int64
	waitUntil  time.Duration // prefetch completion time, consumed on first hit
	prefetched bool
}

// Manager owns the fast-tier cache.  It is safe for concurrent use by
// multiple ranks and runs; one Manager is shared by every core.System
// that stages through the same cache.
type Manager struct {
	cfg Config

	prefetchq chan prefetchJob
	pending   sync.WaitGroup // outstanding prefetch jobs
	workers   sync.WaitGroup

	mu        sync.Mutex
	cacheSess storage.Session
	homeSess  map[string]storage.Session
	entries   map[string]*entry
	seen      map[string]int // accesses observed per key, for residual estimates
	garbage   []string       // staged paths of superseded entries awaiting removal
	used      int64
	clock     int64
	closed    bool
	st        Stats
}

// New validates the configuration and returns a Manager.
func New(cfg Config) (*Manager, error) {
	if cfg.Sim == nil {
		return nil, fmt.Errorf("stage: Config.Sim is required")
	}
	if cfg.Cache == nil {
		return nil, fmt.Errorf("stage: Config.Cache is required")
	}
	if cfg.Budget <= 0 {
		return nil, fmt.Errorf("stage: Config.Budget must be positive")
	}
	if cfg.ExpectedReads <= 0 {
		cfg.ExpectedReads = DefaultExpectedReads
	}
	m := &Manager{
		cfg:      cfg,
		homeSess: make(map[string]storage.Session),
		entries:  make(map[string]*entry),
		seen:     make(map[string]int),
	}
	m.st.Budget = cfg.Budget
	if cfg.PrefetchDepth > 0 {
		m.prefetchq = make(chan prefetchJob, cfg.PrefetchDepth)
		m.workers.Add(1)
		go m.prefetchLoop()
	}
	return m, nil
}

// Close stops the prefetch worker and drops the queue.  Cached data and
// sessions are left as they are; call Drain first if dirty entries must
// reach their home tier.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	q := m.prefetchq
	m.mu.Unlock()
	if q != nil {
		close(q)
		m.workers.Wait()
	}
}

// CacheKind returns the cache backend's storage class.
func (m *Manager) CacheKind() storage.Kind { return m.cfg.Cache.Kind() }

// ExpectedReads returns the configured per-instance read estimate.
func (m *Manager) ExpectedReads() int { return m.cfg.ExpectedReads }

// Budget returns the configured byte budget.
func (m *Manager) Budget() int64 { return m.cfg.Budget }

// Reserved returns the bytes of the named backend's capacity this
// Manager claims for its cache (the full budget on the cache backend,
// zero elsewhere).  placement.WithStaging subtracts it from the free
// space AUTO placement may use.
func (m *Manager) Reserved(backendName string) int64 {
	if backendName == m.cfg.Cache.Name() {
		return m.cfg.Budget
	}
	return 0
}

// Used returns the bytes currently cached (including reservations of
// in-flight copies).
func (m *Manager) Used() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.used
}

// Stats snapshots the counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.st
	st.Used = m.used
	return st
}

// ResetClocks forgets pending prefetch-completion times, mirroring the
// experiment harness's device-clock reset between pipeline stages: a
// consumer run that starts a fresh time domain must not inherit the
// producer era's completion times.
func (m *Manager) ResetClocks() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, e := range m.entries {
		e.waitUntil = 0
	}
}

func stageKey(home, path string) string { return home + "/" + path }

// stagePath maps a home path to its cache-tier location.
func stagePath(home, path string) string { return "stage/" + home + "/" + path }

// kindRank orders storage classes slowest-last, the fallback decision
// when no PTool measurements exist.
func kindRank(k storage.Kind) int {
	switch k {
	case storage.KindMemory:
		return 0
	case storage.KindLocalDisk:
		return 1
	case storage.KindLocalDB:
		return 2
	case storage.KindRemoteDisk:
		return 3
	case storage.KindRemoteTape:
		return 4
	default:
		return 5
	}
}

// decide evaluates the staging inequality for residual future accesses
// of an instance of the given size homed on homeKind.  background
// copies (prefetch) are off the critical path, so any per-access saving
// justifies them; foreground copies must additionally amortize the
// copy-in cost.
func (m *Manager) decide(residual int, homeKind storage.Kind, size int64, background bool) bool {
	if residual <= 0 {
		return false
	}
	if kindRank(homeKind) <= kindRank(m.cfg.Cache.Kind()) {
		return false
	}
	if m.cfg.PDB == nil {
		return true
	}
	tHome, err1 := m.cfg.PDB.WholeFile(homeKind.String(), "read", size)
	tCache, err2 := m.cfg.PDB.WholeFile(m.cfg.Cache.Kind().String(), "read", size)
	tPut, err3 := m.cfg.PDB.WholeFile(m.cfg.Cache.Kind().String(), "write", size)
	if err1 != nil || err2 != nil || err3 != nil {
		return true // no measurements: trust the tier ranking
	}
	if background {
		return tHome > tCache
	}
	return float64(residual)*(tHome-tCache) > tPut
}

// expectedResidual estimates the accesses an instance will still
// receive after the current one.
func (m *Manager) expectedResidualLocked(key string) int {
	r := m.cfg.ExpectedReads - m.seen[key]
	if r < 0 {
		return 0
	}
	return r
}

// ------------------------------------------------------------------
// Sessions.

func (m *Manager) cacheSession(p *vtime.Proc) (storage.Session, error) {
	m.mu.Lock()
	sess := m.cacheSess
	m.mu.Unlock()
	if sess != nil {
		return sess, nil
	}
	s, err := m.cfg.Cache.Connect(p)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	if m.cacheSess == nil {
		m.cacheSess = s
		m.mu.Unlock()
		return s, nil
	}
	sess = m.cacheSess
	m.mu.Unlock()
	_ = s.Close(p) // lost a connect race
	return sess, nil
}

func (m *Manager) homeSession(p *vtime.Proc, home storage.Backend) (storage.Session, error) {
	m.mu.Lock()
	sess := m.homeSess[home.Name()]
	m.mu.Unlock()
	if sess != nil {
		return sess, nil
	}
	s, err := home.Connect(p)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	if prev := m.homeSess[home.Name()]; prev != nil {
		m.mu.Unlock()
		_ = s.Close(p)
		return prev, nil
	}
	m.homeSess[home.Name()] = s
	m.mu.Unlock()
	return s, nil
}

// retry runs one tier-to-tier copy step under the configured policy,
// with backoff charged to p.
func (m *Manager) retry(p *vtime.Proc, key string, f func() error) error {
	return m.cfg.Retry.Do(p, key, nil, f)
}

// sweepGarbage removes cache files of superseded entries whose last pin
// dropped; charged to the first proc that passes by.
func (m *Manager) sweepGarbage(p *vtime.Proc) {
	m.mu.Lock()
	g := m.garbage
	m.garbage = nil
	sess := m.cacheSess
	m.mu.Unlock()
	if sess == nil {
		return
	}
	for _, staged := range g {
		_ = sess.Remove(p, staged)
	}
}

// ------------------------------------------------------------------
// Read path.

// ReadPlan routes one instance read: through the cache tier (Staged)
// or directly at the home tier.  Callers must invoke Release once the
// read completes; it unpins the cached entry.
type ReadPlan struct {
	Sess   storage.Session
	Path   string
	Staged bool
	// Hit reports that an already-complete cache copy served the plan
	// (as opposed to a fresh stage-in that had to touch the home tier).
	// The HSM engine's disk-pool hit accounting keys on it.
	Hit     bool
	release func()
}

// Release unpins the staged entry (no-op for direct plans).
func (pl ReadPlan) Release() {
	if pl.release != nil {
		pl.release()
	}
}

// StageRead decides how to serve one instance read.  Cache hits return
// a pinned plan on the cache tier (advancing p to the prefetch
// completion time when a background job produced the copy); predicted-
// beneficial misses copy the instance in, charging the movement to p;
// everything else — including any staging failure — falls through to a
// direct plan on homeSess.  StageRead never fails: the worst case is
// the direct plan.
func (m *Manager) StageRead(p *vtime.Proc, home storage.Backend, homeSess storage.Session, path string, size int64) ReadPlan {
	direct := ReadPlan{Sess: homeSess, Path: path}
	if m == nil || home == nil || home.Name() == m.cfg.Cache.Name() {
		return direct
	}
	m.sweepGarbage(p)
	key := stageKey(home.Name(), path)

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return direct
	}
	m.seen[key]++
	if e := m.entries[key]; e != nil {
		if !e.ready || e.superseded {
			// Being staged/written by someone else, or overtaken by a
			// direct home write: the home copy is authoritative.
			m.st.Misses++
			m.mu.Unlock()
			return direct
		}
		e.pins++
		m.clock++
		e.lastUse = m.clock
		wait := e.waitUntil
		e.waitUntil = 0
		if e.prefetched {
			m.st.PrefetchHits++
			e.prefetched = false
		}
		m.st.Hits++
		sess := m.cacheSess
		staged := e.staged
		m.mu.Unlock()
		if wait > 0 {
			p.AdvanceTo(wait)
		}
		return ReadPlan{Sess: sess, Path: staged, Staged: true, Hit: true, release: func() { m.unpin(key) }}
	}
	residual := m.expectedResidualLocked(key)
	m.mu.Unlock()

	if !m.decide(residual, home.Kind(), size, false) {
		m.countMiss()
		return direct
	}
	if m.cfg.Health != nil && !m.cfg.Health.Available(home.Name()) {
		// The home circuit is open: a stage-in would only fast-fail.
		// Fall through; the direct read surfaces the breaker state.
		m.countMiss()
		return direct
	}
	plan, ok := m.stageIn(p, home, homeSess, path, size, key, trace.OpStageIn)
	if !ok {
		return direct
	}
	return plan
}

func (m *Manager) countMiss() {
	m.mu.Lock()
	m.st.Misses++
	m.mu.Unlock()
}

func (m *Manager) countFailure() {
	m.mu.Lock()
	m.st.Misses++
	m.st.StageFailures++
	m.mu.Unlock()
}

// reserve books budget for a new entry (evicting as needed) and
// registers it not-ready with one pin.  Returns false when the bytes
// cannot be freed.
func (m *Manager) reserve(p *vtime.Proc, key, path string, home storage.Backend, size int64) (*entry, bool) {
	if size <= 0 || size > m.cfg.Budget {
		return nil, false
	}
	if !m.evictFor(p, size, key) {
		return nil, false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed || m.entries[key] != nil || m.used+size > m.cfg.Budget {
		return nil, false // lost a race; caller falls back
	}
	m.clock++
	e := &entry{
		key: key, path: path, staged: stagePath(home.Name(), path),
		home: home, bytes: size, pins: 1, lastUse: m.clock,
	}
	m.entries[key] = e
	m.used += size
	if m.used > m.st.PeakUsed {
		m.st.PeakUsed = m.used
	}
	return e, true
}

// unreserve drops a not-ready entry after a failed copy.
func (m *Manager) unreserve(key string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e := m.entries[key]; e != nil {
		m.used -= e.bytes
		delete(m.entries, key)
	}
}

// adjustReserve resizes an in-flight reservation once the instance's
// true size is known.  Growth beyond the budget evicts further; when
// that fails the reservation is dropped and false returned.
func (m *Manager) adjustReserve(p *vtime.Proc, key string, actual int64) bool {
	m.mu.Lock()
	e := m.entries[key]
	if e == nil {
		m.mu.Unlock()
		return false
	}
	delta := actual - e.bytes
	e.bytes = actual
	m.used += delta
	over := m.used > m.cfg.Budget
	if m.used > m.st.PeakUsed {
		m.st.PeakUsed = m.used
	}
	m.mu.Unlock()
	if actual > m.cfg.Budget {
		m.unreserve(key)
		return false
	}
	if over && !m.evictFor(p, 0, key) {
		m.unreserve(key)
		return false
	}
	return true
}

// span records one completed tier-to-tier copy against the home
// resource on the caller's clock; start is the copy's begin time.
func (m *Manager) span(p *vtime.Proc, op trace.Op, home, path string, bytes int64, start time.Duration) {
	m.cfg.Trace.Record(trace.Event{
		At: p.Now(), Proc: p.Name(), Backend: home, Op: op,
		Path: path, Bytes: bytes, Cost: p.Now() - start,
	})
}

// stageIn copies one instance from its home tier into the cache and
// returns a pinned plan over the copy.  Any failure unwinds cleanly —
// no partial copy survives — and reports (ReadPlan{}, false) so the
// caller serves the read directly.  op labels the span recorded for
// the copy: OpStageIn for foreground reads, OpPrefetch for background
// jobs.
func (m *Manager) stageIn(p *vtime.Proc, home storage.Backend, homeSess storage.Session, path string, size int64, key string, op trace.Op) (ReadPlan, bool) {
	start := p.Now()
	csess, err := m.cacheSession(p)
	if err != nil {
		m.countFailure()
		return ReadPlan{}, false
	}
	e, ok := m.reserve(p, key, path, home, size)
	if !ok {
		m.countMiss()
		return ReadPlan{}, false
	}
	var data []byte
	err = m.retry(p, key+"/get", func() error {
		var err error
		data, err = storage.GetFile(p, homeSess, path)
		return err
	})
	if err != nil {
		m.unreserve(key)
		m.countFailure()
		return ReadPlan{}, false
	}
	if int64(len(data)) != size && !m.adjustReserve(p, key, int64(len(data))) {
		m.countFailure()
		return ReadPlan{}, false
	}
	err = m.retry(p, key+"/put", func() error {
		return storage.PutFile(p, csess, e.staged, storage.ModeOverWrite, data)
	})
	if err != nil {
		// Never leave a partial copy behind: a later hit must not read
		// truncated bytes.
		_ = csess.Remove(p, e.staged)
		m.unreserve(key)
		m.countFailure()
		return ReadPlan{}, false
	}
	m.mu.Lock()
	e.ready = true
	m.st.StagedIn++
	m.st.BytesStagedIn += int64(len(data))
	m.st.Hits++ // this read is now served from the copy
	m.mu.Unlock()
	m.span(p, op, home.Name(), path, int64(len(data)), start)
	return ReadPlan{Sess: csess, Path: e.staged, Staged: true, release: func() { m.unpin(key) }}, true
}

func (m *Manager) unpin(key string) {
	m.mu.Lock()
	e := m.entries[key]
	if e == nil {
		m.mu.Unlock()
		return
	}
	if e.pins > 0 {
		e.pins--
	}
	if e.superseded && e.pins == 0 {
		m.used -= e.bytes
		delete(m.entries, key)
		m.garbage = append(m.garbage, e.staged)
	}
	m.mu.Unlock()
}

// ------------------------------------------------------------------
// Write path.

// WritePlan redirects one instance write onto the cache tier.  The
// caller writes through Sess/Path (opening with ModeOverWrite) and then
// either Commit — marking the copy current and dirty for write-back —
// or Abort, which unwinds the reservation.
type WritePlan struct {
	Sess storage.Session
	Path string

	m     *Manager
	key   string
	fresh bool // entry created by this plan (vs. rewriting an old copy)
}

// StageWrite decides whether one instance write should land on the
// cache tier instead of its slower home.  It returns (nil, false) when
// staging the write has no benefit or the budget cannot hold it — the
// caller then writes directly to home.  A direct write that overtakes
// an existing cache copy supersedes it, so stale bytes are never served
// or drained.
func (m *Manager) StageWrite(p *vtime.Proc, home storage.Backend, path string, size int64) (*WritePlan, bool) {
	if m == nil || home == nil || home.Name() == m.cfg.Cache.Name() {
		return nil, false
	}
	m.sweepGarbage(p)
	if kindRank(home.Kind()) <= kindRank(m.cfg.Cache.Kind()) {
		return nil, false
	}
	key := stageKey(home.Name(), path)
	csess, err := m.cacheSession(p)
	if err != nil {
		return nil, false
	}

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, false
	}
	if e := m.entries[key]; e != nil {
		if !e.ready || e.pins > 0 || e.superseded {
			// The copy is busy; the caller will write home directly, so
			// the cached bytes become stale and must never be used again.
			e.superseded = true
			if e.pins == 0 {
				m.used -= e.bytes
				delete(m.entries, key)
				m.garbage = append(m.garbage, e.staged)
			}
			m.mu.Unlock()
			return nil, false
		}
		// Rewrite the existing copy in place (the checkpoint pattern).
		e.ready = false
		e.pins++
		m.clock++
		e.lastUse = m.clock
		staged := e.staged
		m.mu.Unlock()
		return &WritePlan{Sess: csess, Path: staged, m: m, key: key}, true
	}
	m.mu.Unlock()

	e, ok := m.reserve(p, key, path, home, size)
	if !ok {
		return nil, false
	}
	return &WritePlan{Sess: csess, Path: e.staged, m: m, key: key, fresh: true}, true
}

// Commit marks the staged write complete: the cache copy is current and
// dirty, awaiting write-back to its home tier.
func (pl *WritePlan) Commit(p *vtime.Proc) {
	m := pl.m
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.entries[pl.key]
	if e == nil {
		return
	}
	e.ready = true
	e.dirty = true
	if e.pins > 0 {
		e.pins--
	}
	m.st.StagedWrites++
}

// Abort unwinds a failed staged write.  A fresh entry is dropped with
// its partial file; a rewrite of an existing copy leaves the copy
// superseded (its old bytes are gone) so the home tier stays
// authoritative.
func (pl *WritePlan) Abort(p *vtime.Proc) {
	m := pl.m
	m.mu.Lock()
	e := m.entries[pl.key]
	if e == nil {
		m.mu.Unlock()
		return
	}
	if e.pins > 0 {
		e.pins--
	}
	if pl.fresh || e.pins == 0 {
		m.used -= e.bytes
		delete(m.entries, pl.key)
		staged := e.staged
		sess := m.cacheSess
		m.mu.Unlock()
		if sess != nil {
			_ = sess.Remove(p, staged)
		}
		return
	}
	e.superseded = true
	m.mu.Unlock()
}

// ------------------------------------------------------------------
// Write-back and eviction.

// writeBack drains one dirty entry to its home tier, charged to p.
func (m *Manager) writeBack(p *vtime.Proc, e *entry) error {
	start := p.Now()
	csess, err := m.cacheSession(p)
	if err != nil {
		return err
	}
	var data []byte
	err = m.retry(p, e.key+"/wb-get", func() error {
		var err error
		data, err = storage.GetFile(p, csess, e.staged)
		return err
	})
	if err != nil {
		return fmt.Errorf("stage: write-back read %q: %w", e.staged, err)
	}
	hsess, err := m.homeSession(p, e.home)
	if err != nil {
		return fmt.Errorf("stage: write-back connect %q: %w", e.home.Name(), err)
	}
	err = m.retry(p, e.key+"/wb-put", func() error {
		return storage.PutFile(p, hsess, e.path, storage.ModeOverWrite, data)
	})
	if err != nil {
		return fmt.Errorf("stage: write-back %q → %q: %w", e.staged, e.home.Name(), err)
	}
	m.mu.Lock()
	e.dirty = false
	m.st.WriteBacks++
	m.st.BytesWrittenBack += int64(len(data))
	m.mu.Unlock()
	m.span(p, trace.OpWriteBack, e.home.Name(), e.path, int64(len(data)), start)
	return nil
}

// Drain writes every dirty cached instance back to its home tier,
// charging the movement to p.  core.Run calls it at finalization (the
// paper's checkpoint/close point); it is also safe to call at any
// barrier.
func (m *Manager) Drain(p *vtime.Proc) error {
	m.mu.Lock()
	var dirty []*entry
	for _, e := range m.entries {
		if e.ready && e.dirty && !e.superseded {
			e.pins++
			dirty = append(dirty, e)
		}
	}
	m.mu.Unlock()
	sort.Slice(dirty, func(i, j int) bool { return dirty[i].key < dirty[j].key })
	var errs []error
	for _, e := range dirty {
		if err := m.writeBack(p, e); err != nil {
			errs = append(errs, err)
		}
		m.unpin(e.key)
	}
	return errors.Join(errs...)
}

// victimLocked picks the entry with the least benefit-per-byte among
// evictable entries (ready, unpinned, not the excluded key).  With a
// predictor the benefit is residual accesses × per-access saving per
// byte; without one (or without measurements) the least-recently-used
// entry goes.
func (m *Manager) victimLocked(exclude string) *entry {
	var best *entry
	bestScore := 0.0
	bestLRU := int64(0)
	for _, e := range m.entries {
		if !e.ready || e.pins > 0 || e.key == exclude {
			continue
		}
		score, ok := m.benefitLocked(e)
		if best == nil {
			best, bestScore, bestLRU = e, score, e.lastUse
			continue
		}
		if ok {
			if score < bestScore || (score == bestScore && e.lastUse < bestLRU) {
				best, bestScore, bestLRU = e, score, e.lastUse
			}
		} else if e.lastUse < bestLRU {
			best, bestScore, bestLRU = e, score, e.lastUse
		}
	}
	return best
}

// benefitLocked scores an entry's predicted benefit-per-byte; ok is
// false when the predictor cannot price it (LRU decides then).
func (m *Manager) benefitLocked(e *entry) (float64, bool) {
	if m.cfg.PDB == nil {
		return 0, false
	}
	residual := m.expectedResidualLocked(e.key)
	if e.dirty {
		// A dirty copy always saves its write-back until eviction;
		// count that as one residual use so clean entries go first.
		residual++
	}
	if e.bytes <= 0 {
		return 0, false
	}
	tHome, err1 := m.cfg.PDB.WholeFile(e.home.Kind().String(), "read", e.bytes)
	tCache, err2 := m.cfg.PDB.WholeFile(m.cfg.Cache.Kind().String(), "read", e.bytes)
	if err1 != nil || err2 != nil {
		return 0, false
	}
	return float64(residual) * (tHome - tCache) / float64(e.bytes), true
}

// evictFor frees room for need more bytes, never touching pinned
// entries or exclude.  Dirty victims are written back first (charged to
// p), so eviction cannot lose data.
func (m *Manager) evictFor(p *vtime.Proc, need int64, exclude string) bool {
	for {
		m.mu.Lock()
		if m.used+need <= m.cfg.Budget {
			m.mu.Unlock()
			return true
		}
		victim := m.victimLocked(exclude)
		if victim == nil {
			m.mu.Unlock()
			return false
		}
		victim.pins++ // shield from concurrent eviction
		dirty := victim.dirty
		m.mu.Unlock()

		if dirty {
			if err := m.writeBack(p, victim); err != nil {
				m.unpin(victim.key)
				return false
			}
		}
		m.mu.Lock()
		// Re-check: a reader may have pinned it while we drained.
		if victim.pins > 1 {
			victim.pins--
			m.mu.Unlock()
			continue
		}
		m.used -= victim.bytes
		delete(m.entries, victim.key)
		m.st.Evictions++
		m.st.BytesEvicted += victim.bytes
		staged := victim.staged
		sess := m.cacheSess
		m.mu.Unlock()
		if sess != nil {
			_ = sess.Remove(p, staged)
		}
	}
}
