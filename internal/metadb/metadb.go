// Package metadb is the system's meta-data repository — the stand-in
// for the "small" Postgres database at Northwestern in the paper's
// environment.
//
// It stores exactly what the paper describes: information about
// applications and runs, per-dataset characteristics (storage resource,
// file path, partition pattern, access mode, dump frequency), and the
// performance data that the I/O performance predictor consults (the
// transfer-time curves measured by PTool plus the Table 1 constants).
//
// The store is an embedded, concurrency-safe table database with JSON
// persistence.  Meta-data access is deliberately cheap ("there is no
// need to provide a run-time library on top of the native interface"):
// each operation charges a small constant from model.MetaDB2000 when a
// virtual clock is supplied.
package metadb

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/model"
	"repro/internal/vfs"
	"repro/internal/vtime"
	"repro/internal/wal"
)

// ErrNotFound is returned when a looked-up row does not exist.
var ErrNotFound = fmt.Errorf("metadb: not found")

// Run describes one application run registered in the system.
type Run struct {
	ID         string `json:"id"`
	App        string `json:"app"`
	User       string `json:"user"`
	Iterations int    `json:"iterations"`
	Procs      int    `json:"procs"`
}

// Dataset is the per-dataset meta-data row (cf. the columns of the
// paper's figure 11: NAME, AMODE, NDIMS, ETYPE, PATTERN, DIMS,
// EXPECTEDLOC, FREQUENCY).
type Dataset struct {
	RunID     string `json:"run_id"`
	Name      string `json:"name"`
	AMode     string `json:"amode"`
	NDims     int    `json:"ndims"`
	Dims      []int  `json:"dims"`
	ETypeSize int    `json:"etype_size"` // bytes per element
	Pattern   string `json:"pattern"`    // e.g. "BBB"
	Location  string `json:"location"`   // the user's hint
	Frequency int    `json:"frequency"`
	Opt       string `json:"opt"`      // run-time library optimization used
	Resource  string `json:"resource"` // backend instance chosen by placement
	PathBase  string `json:"path_base"`
}

// Size returns the dataset's bytes per dump.
func (d Dataset) Size() int64 {
	if len(d.Dims) == 0 {
		return 0
	}
	n := int64(d.ETypeSize)
	for _, dim := range d.Dims {
		n *= int64(dim)
	}
	return n
}

// Lifecycle is one dataset's HSM lifecycle row: which disk pool it
// belongs to, where its copies live, and the access history the
// migration policy ages it by.  State holds one of the hsm package's
// lifecycle states (resident/migrating/dual/migrated/recalling); the
// row is journaled like every other table, so recovery replays
// lifecycle moves and the engine can restore in-flight migrations to a
// safe state.
type Lifecycle struct {
	Pool       string `json:"pool"` // disk-pool backend instance name
	Path       string `json:"path"` // path on the pool
	State      string `json:"state"`
	Bytes      int64  `json:"bytes"`
	TapePath   string `json:"tape_path,omitempty"` // path of the tape copy, when one exists
	LastAccess int64  `json:"last_access"`         // virtual-clock nanoseconds of the last read
	Accesses   int64  `json:"accesses"`
}

// PerfSample is one measured transfer time: size s bytes took Seconds on
// the given resource class for the given op ("read"/"write").
type PerfSample struct {
	Resource string  `json:"resource"`
	Op       string  `json:"op"`
	Size     int64   `json:"size"`
	Seconds  float64 `json:"seconds"`
}

// PerfConstant is one measured eq. (1) constant (conn, open, seek,
// close, connclose) for a resource class and op.
type PerfConstant struct {
	Resource  string  `json:"resource"`
	Op        string  `json:"op"`
	Component string  `json:"component"`
	Seconds   float64 `json:"seconds"`
}

// Components of eq. (1) recorded as PerfConstant rows.
const (
	CompConn      = "conn"
	CompOpen      = "fileopen"
	CompSeek      = "fileseek"
	CompClose     = "fileclose"
	CompConnClose = "connclose"
)

// DB is the meta-data database.
type DB struct {
	params model.Params

	// log, when set, is the write-ahead journal every mutation goes
	// through before it is applied (see journal.go / OpenJournal).  It
	// is set once, before the database is shared.
	log *wal.Log

	// mu guards the tables.  It is held only to read or update them,
	// never across disk.
	mu sync.RWMutex
	// repl, when set, diverts every mutation through a cluster
	// replicated log instead of the local journal/apply path (see
	// Replicator in journal.go).
	repl       Replicator
	runs       map[string]Run
	datasets   map[string]Dataset
	lifecycles map[string]Lifecycle
	samples    []PerfSample
	constants  []PerfConstant
	// curves is the compiled form of samples (see Curve): nil until the
	// first read after a write.  Every site that writes db.samples
	// clears it, under db.mu.
	curves atomic.Pointer[[]curve]

	// The commit pipeline's state (journal.go).  jmu orders journal
	// appends and hands out tickets; it is taken before mu and never
	// held across a flush.
	jmu       sync.Mutex
	turn      sync.Cond // on jmu: a ticket retired, or the gate moved
	journaled uint64    // tickets handed out = records appended
	retired   uint64    // tickets applied or failed, in order
	gated     bool      // Checkpoint/CloseJournal is quiescing: no new tickets
	closed    bool      // CloseJournal ran: mutations fail
}

// New returns an empty database.
func New() *DB {
	db := &DB{
		params:     model.MetaDB2000(),
		runs:       make(map[string]Run),
		datasets:   make(map[string]Dataset),
		lifecycles: make(map[string]Lifecycle),
	}
	db.turn.L = &db.jmu
	return db
}

// charge advances p by the meta-data access constant; nil p skips
// timing (pure bookkeeping contexts).
func (db *DB) charge(p *vtime.Proc, op model.Op) {
	if p != nil {
		p.Advance(db.params.PerCall(op))
	}
}

func dsKey(runID, name string) string { return runID + "\x00" + name }

// PutRun inserts or replaces a run row.
func (db *DB) PutRun(p *vtime.Proc, r Run) error {
	if r.ID == "" {
		return fmt.Errorf("metadb: run with empty ID")
	}
	db.charge(p, model.Write)
	if apply, err := db.commit(p, recPutRun, r); !apply {
		return err
	}
	db.runs[r.ID] = r
	db.applied()
	return nil
}

// GetRun fetches a run row.
func (db *DB) GetRun(p *vtime.Proc, id string) (Run, error) {
	db.charge(p, model.Read)
	db.mu.RLock()
	defer db.mu.RUnlock()
	r, ok := db.runs[id]
	if !ok {
		return Run{}, fmt.Errorf("%w: run %q", ErrNotFound, id)
	}
	return r, nil
}

// Runs returns all run rows sorted by ID.
func (db *DB) Runs(p *vtime.Proc) []Run {
	db.charge(p, model.Read)
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]Run, 0, len(db.runs))
	for _, r := range db.runs {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// PutDataset inserts or replaces a dataset row.
func (db *DB) PutDataset(p *vtime.Proc, d Dataset) error {
	if d.RunID == "" || d.Name == "" {
		return fmt.Errorf("metadb: dataset with empty key (%q, %q)", d.RunID, d.Name)
	}
	db.charge(p, model.Write)
	if apply, err := db.commit(p, recPutDataset, d); !apply {
		return err
	}
	db.datasets[dsKey(d.RunID, d.Name)] = d
	db.applied()
	return nil
}

// GetDataset fetches one dataset row.
func (db *DB) GetDataset(p *vtime.Proc, runID, name string) (Dataset, error) {
	db.charge(p, model.Read)
	db.mu.RLock()
	defer db.mu.RUnlock()
	d, ok := db.datasets[dsKey(runID, name)]
	if !ok {
		return Dataset{}, fmt.Errorf("%w: dataset %q in run %q", ErrNotFound, name, runID)
	}
	return d, nil
}

// QueryDatasets returns all dataset rows matching the predicate, sorted
// by (run, name).
func (db *DB) QueryDatasets(p *vtime.Proc, match func(Dataset) bool) []Dataset {
	db.charge(p, model.Read)
	db.mu.RLock()
	defer db.mu.RUnlock()
	var out []Dataset
	for _, d := range db.datasets {
		if match(d) {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].RunID != out[j].RunID {
			return out[i].RunID < out[j].RunID
		}
		return out[i].Name < out[j].Name
	})
	return out
}

func lcKey(pool, path string) string { return pool + "\x00" + path }

// PutLifecycle inserts or replaces a lifecycle row.  With a journal,
// nil means the state transition is crash-durable — the contract the
// HSM engine's migrate/recall/GC moves rely on.
func (db *DB) PutLifecycle(p *vtime.Proc, l Lifecycle) error {
	if l.Pool == "" || l.Path == "" {
		return fmt.Errorf("metadb: lifecycle with empty key (%q, %q)", l.Pool, l.Path)
	}
	db.charge(p, model.Write)
	if apply, err := db.commit(p, recPutLifecycle, l); !apply {
		return err
	}
	db.lifecycles[lcKey(l.Pool, l.Path)] = l
	db.applied()
	return nil
}

// GetLifecycle fetches one lifecycle row.
func (db *DB) GetLifecycle(p *vtime.Proc, pool, path string) (Lifecycle, error) {
	db.charge(p, model.Read)
	db.mu.RLock()
	defer db.mu.RUnlock()
	l, ok := db.lifecycles[lcKey(pool, path)]
	if !ok {
		return Lifecycle{}, fmt.Errorf("%w: lifecycle %q in pool %q", ErrNotFound, path, pool)
	}
	return l, nil
}

// DeleteLifecycle removes a lifecycle row (dataset deleted from every
// tier).  Deleting a missing row is a no-op.
func (db *DB) DeleteLifecycle(p *vtime.Proc, pool, path string) error {
	db.charge(p, model.Write)
	db.mu.RLock()
	_, present := db.lifecycles[lcKey(pool, path)]
	db.mu.RUnlock()
	if !present {
		return nil
	}
	if apply, err := db.commit(p, recDelLifecycle, lifecycleKey{Pool: pool, Path: path}); !apply {
		return err
	}
	delete(db.lifecycles, lcKey(pool, path))
	db.applied()
	return nil
}

// Lifecycles returns a pool's lifecycle rows sorted by path; an empty
// pool name returns every row sorted by (pool, path).
func (db *DB) Lifecycles(p *vtime.Proc, pool string) []Lifecycle {
	db.charge(p, model.Read)
	db.mu.RLock()
	defer db.mu.RUnlock()
	var out []Lifecycle
	for _, l := range db.lifecycles {
		if pool == "" || l.Pool == pool {
			out = append(out, l)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pool != out[j].Pool {
			return out[i].Pool < out[j].Pool
		}
		return out[i].Path < out[j].Path
	})
	return out
}

// AddSample appends one performance sample.  The error is always nil
// without a journal; with one, nil means the sample is crash-durable.
func (db *DB) AddSample(p *vtime.Proc, s PerfSample) error {
	db.charge(p, model.Write)
	if apply, err := db.commit(p, recAddSample, s); !apply {
		return err
	}
	db.samples = append(db.samples, s)
	db.curves.Store(nil)
	db.applied()
	return nil
}

// ReplaceSamples atomically replaces the whole performance curve for
// (resource, op) with the given samples.  This is the write-back path
// of the online calibration loop: a refreshed curve supersedes PTool's
// one-shot sweep rather than averaging with it (AddSample would blend
// stale and fresh measurements forever).  Samples for other
// (resource, op) pairs are untouched.  Rows whose Resource/Op fields
// disagree with the arguments are rewritten to match.
func (db *DB) ReplaceSamples(p *vtime.Proc, resource, op string, samples []PerfSample) error {
	db.charge(p, model.Write)
	if apply, err := db.commit(p, recReplaceSamples, replacePayload{Resource: resource, Op: op, Samples: samples}); !apply {
		return err
	}
	db.replaceSamplesLocked(resource, op, samples)
	db.applied()
	return nil
}

// replaceSamplesLocked is the in-memory half of ReplaceSamples, shared
// with journal replay.  Caller holds db.mu.
func (db *DB) replaceSamplesLocked(resource, op string, samples []PerfSample) {
	kept := db.samples[:0]
	for _, s := range db.samples {
		if s.Resource != resource || s.Op != op {
			kept = append(kept, s)
		}
	}
	db.samples = kept
	for _, s := range samples {
		s.Resource, s.Op = resource, op
		db.samples = append(db.samples, s)
	}
	db.curves.Store(nil)
}

// Samples returns the samples for (resource, op) sorted by size, with
// duplicate sizes averaged: a private copy of Curve.
func (db *DB) Samples(p *vtime.Proc, resource, op string) []PerfSample {
	db.charge(p, model.Read)
	return append([]PerfSample{}, db.Curve(resource, op)...)
}

// curve is one compiled transfer-time curve.
type curve struct {
	resource, op string
	pts          []PerfSample
}

// Curve returns the transfer-time curve for (resource, op) the
// predictor interpolates: the samples sorted by size, duplicate sizes
// averaged the way PTool's repeated measurements are consumed.  The
// slice is shared and must not be modified.  Every curve is compiled
// once and published through db.curves, so a call between sample
// writes takes no lock and allocates nothing; a write clears the
// pointer and the next call sees the new samples.
func (db *DB) Curve(resource, op string) []PerfSample {
	cs := db.curves.Load()
	if cs == nil {
		// Published with the read lock still held: a writer clears the
		// pointer under the write lock, so a stale compilation can never
		// land after the clear.
		db.mu.RLock()
		compiled := compileCurves(db.samples)
		cs = &compiled
		db.curves.Store(cs)
		db.mu.RUnlock()
	}
	for _, c := range *cs {
		if c.resource == resource && c.op == op {
			return c.pts
		}
	}
	return nil
}

// compileCurves sorts a copy of the rows by (resource, op, size) —
// stably, so rows of one size keep their order — and folds each run of
// equal keys into one averaged point of its curve.
func compileCurves(samples []PerfSample) []curve {
	rows := append([]PerfSample(nil), samples...)
	sort.SliceStable(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if a.Resource != b.Resource {
			return a.Resource < b.Resource
		}
		if a.Op != b.Op {
			return a.Op < b.Op
		}
		return a.Size < b.Size
	})
	var out []curve
	for i := 0; i < len(rows); {
		pt, sum, j := rows[i], 0.0, i
		for ; j < len(rows) && rows[j].Resource == pt.Resource && rows[j].Op == pt.Op && rows[j].Size == pt.Size; j++ {
			sum += rows[j].Seconds
		}
		pt.Seconds = sum / float64(j-i)
		if n := len(out); n == 0 || out[n-1].resource != pt.Resource || out[n-1].op != pt.Op {
			out = append(out, curve{resource: pt.Resource, op: pt.Op})
		}
		c := &out[len(out)-1]
		c.pts = append(c.pts, pt)
		i = j
	}
	return out
}

// SetConstant inserts or replaces an eq. (1) constant.
func (db *DB) SetConstant(p *vtime.Proc, c PerfConstant) error {
	db.charge(p, model.Write)
	if apply, err := db.commit(p, recSetConstant, c); !apply {
		return err
	}
	db.setConstantLocked(c)
	db.applied()
	return nil
}

// setConstantLocked is the in-memory half of SetConstant, shared with
// journal replay.  Caller holds db.mu.
func (db *DB) setConstantLocked(c PerfConstant) {
	for i, old := range db.constants {
		if old.Resource == c.Resource && old.Op == c.Op && old.Component == c.Component {
			db.constants[i] = c
			return
		}
	}
	db.constants = append(db.constants, c)
}

// Constant fetches an eq. (1) constant; missing constants are zero, the
// way the paper's Table 1 marks inapplicable cells with "–".
func (db *DB) Constant(p *vtime.Proc, resource, op, component string) float64 {
	db.charge(p, model.Read)
	db.mu.RLock()
	defer db.mu.RUnlock()
	for _, c := range db.constants {
		if c.Resource == resource && c.Op == op && c.Component == component {
			return c.Seconds
		}
	}
	return 0
}

// Constants returns all constant rows sorted (resource, op, component).
func (db *DB) Constants(p *vtime.Proc) []PerfConstant {
	db.charge(p, model.Read)
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := append([]PerfConstant(nil), db.constants...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Resource != b.Resource {
			return a.Resource < b.Resource
		}
		if a.Op != b.Op {
			return a.Op < b.Op
		}
		return a.Component < b.Component
	})
	return out
}

// snapshot is the JSON persistence layout.
type snapshot struct {
	Runs       []Run          `json:"runs"`
	Datasets   []Dataset      `json:"datasets"`
	Lifecycles []Lifecycle    `json:"lifecycles,omitempty"`
	Samples    []PerfSample   `json:"samples"`
	Constants  []PerfConstant `json:"constants"`
}

// snapshotLocked builds the sorted persistence snapshot.  Caller holds
// db.mu (read or write).
func (db *DB) snapshotLocked() snapshot {
	snap := snapshot{Samples: append([]PerfSample(nil), db.samples...), Constants: append([]PerfConstant(nil), db.constants...)}
	for _, r := range db.runs {
		snap.Runs = append(snap.Runs, r)
	}
	for _, d := range db.datasets {
		snap.Datasets = append(snap.Datasets, d)
	}
	for _, l := range db.lifecycles {
		snap.Lifecycles = append(snap.Lifecycles, l)
	}
	sort.Slice(snap.Runs, func(i, j int) bool { return snap.Runs[i].ID < snap.Runs[j].ID })
	sort.Slice(snap.Datasets, func(i, j int) bool {
		return dsKey(snap.Datasets[i].RunID, snap.Datasets[i].Name) < dsKey(snap.Datasets[j].RunID, snap.Datasets[j].Name)
	})
	sort.Slice(snap.Lifecycles, func(i, j int) bool {
		return lcKey(snap.Lifecycles[i].Pool, snap.Lifecycles[i].Path) < lcKey(snap.Lifecycles[j].Pool, snap.Lifecycles[j].Path)
	})
	return snap
}

// Save writes the database to path as JSON.
func (db *DB) Save(path string) error { return db.SaveFS(vfs.OS{}, path) }

// SaveFS writes the database to path as JSON through fsys, durably:
// the snapshot is written to a temp file, fsynced, renamed into place,
// and the parent directory is fsynced — a crash leaves either the old
// snapshot or the new one, never a torn or unlinked file.
func (db *DB) SaveFS(fsys vfs.FS, path string) error {
	db.mu.RLock()
	snap := db.snapshotLocked()
	db.mu.RUnlock()
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return fmt.Errorf("metadb save: %w", err)
	}
	if err := vfs.WriteAtomic(fsys, path, data); err != nil {
		return fmt.Errorf("metadb save: %w", err)
	}
	return nil
}

// Load replaces the database contents from a JSON file written by Save.
func (db *DB) Load(path string) error { return db.LoadFS(vfs.OS{}, path) }

// LoadFS is Load through an injectable filesystem.
func (db *DB) LoadFS(fsys vfs.FS, path string) error {
	data, err := vfs.ReadFile(fsys, path)
	if err != nil {
		return fmt.Errorf("metadb load: %w", err)
	}
	var snap snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return fmt.Errorf("metadb load %s: %w", path, err)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	db.install(snap)
	return nil
}

// Table1String renders the constants as the paper's Table 1.
func (db *DB) Table1String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-6s %8s %9s %9s %10s %10s\n", "Location", "Type", "Conn", "Fileopen", "Fileseek", "Fileclose", "Connclose")
	seen := make(map[string]bool)
	for _, c := range db.Constants(nil) {
		key := c.Resource + "/" + c.Op
		if seen[key] {
			continue
		}
		seen[key] = true
		get := func(comp string) string {
			v := db.Constant(nil, c.Resource, c.Op, comp)
			if v == 0 {
				return "-"
			}
			return fmt.Sprintf("%.4g", v)
		}
		fmt.Fprintf(&b, "%-12s %-6s %8s %9s %9s %10s %10s\n",
			c.Resource, c.Op, get(CompConn), get(CompOpen), get(CompSeek), get(CompClose), get(CompConnClose))
	}
	return b.String()
}
