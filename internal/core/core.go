// Package core implements the user API of the multi-storage resource
// architecture — the paper's primary contribution.
//
// The API realizes the I/O flow of the paper's figure 5: the
// application calls Initialize, opens each dataset with a high-level
// hint (dimensions, element type, partition pattern, dump frequency and
// a 'location' attribute), then performs per-iteration writes and reads
// without ever naming a concrete storage system, and ends with
// Finalize.  The system consults the meta-data database, routes each
// dataset to a storage resource according to its hint (or the placement
// policy for AUTO), and drives the appropriate run-time library
// optimization — collective I/O by default, superfile for many small
// files, subfile or data sieving on request.
//
// Location hints follow the paper exactly:
//
//	LOCALDISK   suggests the dataset be placed on local disks;
//	REMOTEDISK  suggests remote disks;
//	REMOTETAPE  suggests remote tapes;
//	AUTO        leaves it to the system (default is remote tapes);
//	DISABLE     suggests the dataset not be dumped at all.
package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/collective"
	"repro/internal/ioopt"
	"repro/internal/metadb"
	"repro/internal/pattern"
	"repro/internal/sieve"
	"repro/internal/stage"
	"repro/internal/storage"
	"repro/internal/subfile"
	"repro/internal/superfile"
	"repro/internal/vtime"
)

// Location is the user's per-dataset storage hint.
type Location int

const (
	LocAuto Location = iota
	LocLocalDisk
	LocRemoteDisk
	LocRemoteTape
	LocLocalDB
	LocDisable
)

var locNames = map[Location]string{
	LocAuto:       "AUTO",
	LocLocalDisk:  "LOCALDISK",
	LocRemoteDisk: "REMOTEDISK",
	LocRemoteTape: "REMOTETAPE",
	LocLocalDB:    "LOCALDB",
	LocDisable:    "DISABLE",
}

func (l Location) String() string {
	if s, ok := locNames[l]; ok {
		return s
	}
	return fmt.Sprintf("Location(%d)", int(l))
}

// ParseLocation converts a hint string; "SDSCHPSS" (the name the
// paper's figure 11 screen shows) is accepted as REMOTETAPE, and
// "DEFAULT" as AUTO.
func ParseLocation(s string) (Location, error) {
	switch strings.ToUpper(s) {
	case "AUTO", "DEFAULT", "":
		return LocAuto, nil
	case "LOCALDISK":
		return LocLocalDisk, nil
	case "REMOTEDISK":
		return LocRemoteDisk, nil
	case "REMOTETAPE", "SDSCHPSS":
		return LocRemoteTape, nil
	case "LOCALDB":
		return LocLocalDB, nil
	case "DISABLE":
		return LocDisable, nil
	default:
		return 0, fmt.Errorf("core: unknown location hint %q", s)
	}
}

// Kind maps the hint to a storage class (LocAuto and LocDisable have no
// fixed class).
func (l Location) Kind() (storage.Kind, bool) {
	switch l {
	case LocLocalDisk:
		return storage.KindLocalDisk, true
	case LocRemoteDisk:
		return storage.KindRemoteDisk, true
	case LocRemoteTape:
		return storage.KindRemoteTape, true
	case LocLocalDB:
		return storage.KindLocalDB, true
	default:
		return 0, false
	}
}

// DatasetSpec is the user-visible dataset description.
type DatasetSpec struct {
	Name      string
	AMode     storage.AMode // ModeCreate or ModeOverWrite for producers, ModeRead for consumers
	Dims      []int
	Etype     int // element size in bytes
	Pattern   pattern.Pattern
	Location  Location
	Frequency int        // dump every Frequency iterations; <= 0 means every iteration
	Opt       ioopt.Kind // optimization; Collective by default
}

// Size returns the dataset's bytes per instance.
func (s DatasetSpec) Size() int64 { return pattern.TotalBytes(s.Dims, s.Etype) }

// Placer chooses a backend for a dataset.  size is the bytes the
// dataset will occupy per dump.  Returning a nil backend is an error;
// the DISABLE hint never reaches the placer.
type Placer func(sys *System, spec DatasetSpec) (storage.Backend, error)

// SystemConfig wires a System together.
type SystemConfig struct {
	Sim        *vtime.Sim
	Meta       *metadb.DB
	LocalDisk  storage.Backend
	RemoteDisk storage.Backend
	RemoteTape storage.Backend
	// LocalDB is the optional local-database resource (package dbstore).
	LocalDB storage.Backend
	// Placer overrides the default hint-driven placement (optional).
	Placer Placer
	// Stager, when set, transparently redirects dataset I/O through the
	// staging engine's fast-tier cache (package stage): profitable reads
	// are staged in, writes may land on the cache tier with write-back
	// at Finalize, and sequential consumers get their next instance
	// prefetched.
	Stager *stage.Manager
}

// System is the configured multi-storage resource environment.
type System struct {
	sim      *vtime.Sim
	meta     *metadb.DB
	backends map[storage.Kind]storage.Backend
	placer   Placer
	stager   *stage.Manager
}

// NewSystem validates the configuration and returns a System.
func NewSystem(cfg SystemConfig) (*System, error) {
	if cfg.Sim == nil {
		return nil, fmt.Errorf("core: SystemConfig.Sim is required")
	}
	if cfg.Meta == nil {
		cfg.Meta = metadb.New()
	}
	s := &System{
		sim:      cfg.Sim,
		meta:     cfg.Meta,
		backends: make(map[storage.Kind]storage.Backend),
		placer:   cfg.Placer,
		stager:   cfg.Stager,
	}
	for kind, be := range map[storage.Kind]storage.Backend{
		storage.KindLocalDisk:  cfg.LocalDisk,
		storage.KindRemoteDisk: cfg.RemoteDisk,
		storage.KindRemoteTape: cfg.RemoteTape,
		storage.KindLocalDB:    cfg.LocalDB,
	} {
		if be != nil {
			s.backends[kind] = be
		}
	}
	if len(s.backends) == 0 {
		return nil, fmt.Errorf("core: no storage backends configured")
	}
	if s.placer == nil {
		s.placer = DefaultPlacer
	}
	return s, nil
}

// Sim returns the system's time domain.
func (s *System) Sim() *vtime.Sim { return s.sim }

// Meta returns the meta-data database.
func (s *System) Meta() *metadb.DB { return s.meta }

// Backend returns the backend registered for a storage class.
func (s *System) Backend(kind storage.Kind) (storage.Backend, bool) {
	be, ok := s.backends[kind]
	return be, ok
}

// Stager returns the staging engine, nil when staging is not
// configured.
func (s *System) Stager() *stage.Manager { return s.stager }

// healthy reports whether a backend is usable (registered and not down).
func healthy(be storage.Backend) bool {
	if be == nil {
		return false
	}
	if o, ok := be.(storage.Outage); ok && o.Down() {
		return false
	}
	return true
}

// fits reports whether size more bytes fit on the backend.
func fits(be storage.Backend, size int64) bool {
	total, used := be.Capacity()
	return total <= 0 || used+size <= total
}

// DefaultPlacer implements the paper's hint semantics: explicit hints
// bind to their storage class; AUTO defaults to remote tapes.  If the
// chosen resource is down or full, placement falls through the
// remaining classes largest-first (tape, remote disk, local disk) —
// "failure of one storage component may not impede the computation
// because other storage options are available".
func DefaultPlacer(sys *System, spec DatasetSpec) (storage.Backend, error) {
	var prefer []storage.Kind
	if kind, ok := spec.Location.Kind(); ok {
		prefer = append(prefer, kind)
	}
	prefer = append(prefer, storage.KindRemoteTape, storage.KindRemoteDisk, storage.KindLocalDB, storage.KindLocalDisk)
	// Conservatively require room for every dump of the whole run; the
	// caller refines the estimate by passing total bytes via spec when
	// frequency and iterations are known (see Run.OpenDataset).
	for _, kind := range prefer {
		be := sys.backends[kind]
		if healthy(be) && fits(be, spec.Size()) {
			return be, nil
		}
	}
	return nil, fmt.Errorf("core: no usable storage resource for dataset %q: %w", spec.Name, storage.ErrDown)
}

// RunConfig identifies one application run.
type RunConfig struct {
	ID         string
	App        string
	User       string
	Iterations int
	Procs      int
}

// Run is an initialized application run: the paper's initialization()
// through finalization() bracket.
type Run struct {
	sys  *System
	cfg  RunConfig
	proc []*vtime.Proc

	// connMu serializes session establishment separately from mu, so
	// the connect round trip (a wire exchange on srbnet backends) is
	// never made while holding the run's bookkeeping lock.
	connMu sync.Mutex

	mu       sync.Mutex
	sessions map[storage.Kind]storage.Session
	datasets map[string]*Dataset
	ioTime   time.Duration
	finished bool
}

// Initialize registers the run in the meta-data database and creates
// the compute processes.
func (s *System) Initialize(cfg RunConfig) (*Run, error) {
	if cfg.ID == "" {
		return nil, fmt.Errorf("core: RunConfig.ID is required")
	}
	if cfg.Iterations <= 0 {
		return nil, fmt.Errorf("core: run %q: iterations must be positive", cfg.ID)
	}
	if cfg.Procs <= 0 {
		cfg.Procs = 1
	}
	r := &Run{
		sys:      s,
		cfg:      cfg,
		proc:     s.sim.NewProcs(cfg.ID+"/rank", cfg.Procs),
		sessions: make(map[storage.Kind]storage.Session),
		datasets: make(map[string]*Dataset),
	}
	err := s.meta.PutRun(r.proc[0], metadb.Run{
		ID: cfg.ID, App: cfg.App, User: cfg.User,
		Iterations: cfg.Iterations, Procs: cfg.Procs,
	})
	if err != nil {
		return nil, err
	}
	return r, nil
}

// Procs returns the run's compute processes (one per parallel rank).
func (r *Run) Procs() []*vtime.Proc { return r.proc }

// Config returns the run configuration.
func (r *Run) Config() RunConfig { return r.cfg }

// IOTime returns the accumulated I/O time of the run: the wall (virtual)
// time the slowest rank has spent inside dataset operations.
func (r *Run) IOTime() time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ioTime
}

// session returns (opening if needed) the shared session on a backend.
// The communication-setup constant is charged to rank 0, as the
// connection is established once per run.
func (r *Run) session(be storage.Backend) (storage.Session, error) {
	r.connMu.Lock()
	defer r.connMu.Unlock()
	r.mu.Lock()
	sess, ok := r.sessions[be.Kind()]
	r.mu.Unlock()
	if ok {
		return sess, nil
	}
	sess, err := be.Connect(r.proc[0])
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.sessions[be.Kind()] = sess
	r.mu.Unlock()
	return sess, nil
}

// addIOTime accrues dt to the run's I/O account.
func (r *Run) addIOTime(dt time.Duration) {
	if dt <= 0 {
		return
	}
	r.mu.Lock()
	r.ioTime += dt
	r.mu.Unlock()
}

// Dataset is an open dataset bound to a storage resource.
type Dataset struct {
	run       *Run
	spec      DatasetSpec
	grid      pattern.Grid
	base      string          // path prefix on the storage resource
	overwrite bool            // checkpoint-style single overwritten file
	backend   storage.Backend // nil when DISABLEd

	mu        sync.Mutex
	container *superfile.Container // lazily created for Superfile datasets
	stats     DatasetStats
}

// DatasetStats accumulates per-dataset accounting for the reports.
type DatasetStats struct {
	Dumps  int
	Reads  int
	Bytes  int64
	IOTime time.Duration
}

// OpenDataset validates the spec, places the dataset on a storage
// resource and records it in the meta-data database.
func (r *Run) OpenDataset(spec DatasetSpec) (*Dataset, error) {
	if spec.Name == "" {
		return nil, fmt.Errorf("core: dataset with empty name")
	}
	if len(spec.Dims) == 0 || spec.Etype <= 0 {
		return nil, fmt.Errorf("core: dataset %q: dims and etype are required", spec.Name)
	}
	if len(spec.Pattern) == 0 {
		spec.Pattern = make(pattern.Pattern, len(spec.Dims))
		for i := range spec.Pattern {
			spec.Pattern[i] = pattern.Block
		}
	}
	if len(spec.Pattern) != len(spec.Dims) {
		return nil, fmt.Errorf("core: dataset %q: pattern rank %d != dims rank %d", spec.Name, len(spec.Pattern), len(spec.Dims))
	}
	if spec.Frequency <= 0 {
		spec.Frequency = 1
	}
	r.mu.Lock()
	if _, dup := r.datasets[spec.Name]; dup {
		r.mu.Unlock()
		return nil, fmt.Errorf("core: dataset %q already open", spec.Name)
	}
	r.mu.Unlock()

	grid, err := datasetGrid(spec, r.cfg.Procs)
	if err != nil {
		return nil, err
	}
	d := &Dataset{
		run: r, spec: spec, grid: grid,
		base:      r.cfg.ID + "/" + spec.Name,
		overwrite: spec.AMode == storage.ModeOverWrite,
	}
	resource := "-"
	if spec.Location != LocDisable {
		be, err := r.sys.placer(r.sys, spec)
		if err != nil {
			return nil, err
		}
		d.backend = be
		resource = be.Name()
	}
	err = r.sys.meta.PutDataset(r.proc[0], metadb.Dataset{
		RunID: r.cfg.ID, Name: spec.Name, AMode: spec.AMode.String(),
		NDims: len(spec.Dims), Dims: append([]int(nil), spec.Dims...),
		ETypeSize: spec.Etype, Pattern: spec.Pattern.String(),
		Location: spec.Location.String(), Frequency: spec.Frequency,
		Opt: spec.Opt.String(), Resource: resource, PathBase: d.BasePath(),
	})
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.datasets[spec.Name] = d
	r.mu.Unlock()
	return d, nil
}

// AttachDataset opens, for reading, a dataset that an earlier run wrote:
// the meta-data database locates it ("the API layer can use this
// information to locate each dataset that the user is interested in").
// The attached dataset is decomposed over this run's processes, which
// need not match the producer's process count.
func (r *Run) AttachDataset(producerRunID, name string) (*Dataset, error) {
	row, err := r.sys.meta.GetDataset(r.proc[0], producerRunID, name)
	if err != nil {
		return nil, fmt.Errorf("core: attach %q from run %q: %w", name, producerRunID, err)
	}
	pat, err := pattern.Parse(row.Pattern)
	if err != nil {
		return nil, fmt.Errorf("core: attach %q: %w", name, err)
	}
	var backend storage.Backend
	for _, be := range r.sys.backends {
		if be.Name() == row.Resource {
			backend = be
			break
		}
	}
	if backend == nil {
		return nil, fmt.Errorf("core: attach %q: resource %q not configured: %w", name, row.Resource, storage.ErrNotExist)
	}
	opt, err := ioopt.Parse(row.Opt)
	if err != nil {
		opt = ioopt.Collective
	}
	spec := DatasetSpec{
		Name: name, AMode: storage.ModeRead, Dims: append([]int(nil), row.Dims...),
		Etype: row.ETypeSize, Pattern: pat, Frequency: row.Frequency, Opt: opt,
	}
	if loc, err := ParseLocation(row.Location); err == nil {
		spec.Location = loc
	}
	grid, err := datasetGrid(spec, r.cfg.Procs)
	if err != nil {
		return nil, err
	}
	d := &Dataset{
		run: r, spec: spec, grid: grid, base: row.PathBase,
		overwrite: row.AMode == storage.ModeOverWrite.String(),
		backend:   backend,
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.datasets[name]; dup {
		return nil, fmt.Errorf("core: dataset %q already open", name)
	}
	r.datasets[name] = d
	return d, nil
}

// datasetGrid chooses the process grid for a dataset: replicated ('*')
// dimensions get extent 1 and the run's processes spread over the rest.
func datasetGrid(spec DatasetSpec, procs int) (pattern.Grid, error) {
	distributed := 0
	for _, p := range spec.Pattern {
		if p != pattern.All {
			distributed++
		}
	}
	if distributed == 0 {
		if procs != 1 {
			return nil, fmt.Errorf("core: dataset %q replicates every dimension but run has %d procs", spec.Name, procs)
		}
		g := make(pattern.Grid, len(spec.Dims))
		for i := range g {
			g[i] = 1
		}
		return g, nil
	}
	sub, err := pattern.DefaultGrid(distributed, procs)
	if err != nil {
		return nil, err
	}
	g := make(pattern.Grid, len(spec.Dims))
	j := 0
	for i, p := range spec.Pattern {
		if p == pattern.All {
			g[i] = 1
		} else {
			g[i] = sub[j]
			j++
		}
	}
	return g, nil
}

// Spec returns the dataset's specification (with defaults applied).
func (d *Dataset) Spec() DatasetSpec { return d.spec }

// Grid returns the dataset's process grid.
func (d *Dataset) Grid() pattern.Grid { return d.grid }

// Backend returns the storage resource the dataset was placed on (nil
// when DISABLEd).
func (d *Dataset) Backend() storage.Backend { return d.backend }

// Disabled reports whether the dataset carries the DISABLE hint.
func (d *Dataset) Disabled() bool { return d.backend == nil }

// Stats returns the accumulated per-dataset accounting.
func (d *Dataset) Stats() DatasetStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// BasePath returns the dataset's path prefix on its storage resource.
func (d *Dataset) BasePath() string { return d.base }

// InstancePath returns the file path of one iteration's dump.
func (d *Dataset) InstancePath(iter int) string {
	if d.overwrite {
		// Checkpoints overwrite a single restart file.
		return d.BasePath() + "/restart"
	}
	return fmt.Sprintf("%s/iter%06d", d.BasePath(), iter)
}

// Due reports whether the dataset dumps at the given iteration
// (i % freq == 0, as in the paper's I/O model).
func (d *Dataset) Due(iter int) bool { return iter%d.spec.Frequency == 0 }

// LocalSize returns the packed local-buffer size of one rank.
func (d *Dataset) LocalSize(rank int) (int64, error) {
	sets, err := pattern.IndexSets(d.spec.Dims, d.spec.Pattern, d.grid, rank)
	if err != nil {
		return 0, err
	}
	return int64(pattern.NumElems(sets)) * int64(d.spec.Etype), nil
}

// track brackets an I/O phase: it measures the growth of the slowest
// rank's clock and accrues it to the run and dataset I/O accounts.
func (d *Dataset) track(f func() error) error {
	before := vtime.MaxNow(d.run.proc...)
	err := f()
	dt := vtime.MaxNow(d.run.proc...) - before
	d.run.addIOTime(dt)
	d.mu.Lock()
	d.stats.IOTime += dt
	d.mu.Unlock()
	return err
}

// WriteIter dumps the dataset for iteration iter.  bufs[r] is rank r's
// packed subarray.  DISABLEd datasets return immediately at zero cost.
// All ranks are synchronized on return.
func (d *Dataset) WriteIter(iter int, bufs [][]byte) error {
	if d.backend == nil {
		return nil
	}
	if !d.spec.AMode.Writable() {
		return fmt.Errorf("core: write to read-mode dataset %q: %w", d.spec.Name, storage.ErrReadOnly)
	}
	return d.track(func() error { return d.writeIter(iter, bufs) })
}

func (d *Dataset) writeIter(iter int, bufs [][]byte) error {
	procs := d.run.proc
	sess, err := d.run.session(d.backend)
	if err != nil {
		return err
	}
	op := collective.Op{Dims: d.spec.Dims, Etype: d.spec.Etype, Pat: d.spec.Pattern, Grid: d.grid}

	switch d.spec.Opt {
	case ioopt.Superfile:
		err = d.putSuperfile(iter, bufs, sess)
	case ioopt.Subfile:
		err = d.subfileWrite(iter, bufs, sess)
	default:
		mode := storage.ModeCreate
		if d.spec.AMode == storage.ModeOverWrite {
			mode = storage.ModeOverWrite
		}
		wSess, wPath := sess, d.InstancePath(iter)
		var wp *stage.WritePlan
		if st := d.run.sys.stager; st != nil {
			if plan, ok := st.StageWrite(procs[0], d.backend, wPath, d.spec.Size()); ok {
				// The dump lands on the cache tier and drains home at
				// Finalize (write-back); the cache copy always replaces
				// whatever instance an earlier run left there.
				wp, wSess, wPath = plan, plan.Sess, plan.Path
				mode = storage.ModeOverWrite
			}
		}
		var h storage.Handle
		h, err = wSess.Open(procs[0], wPath, mode)
		if err != nil {
			if wp != nil {
				wp.Abort(procs[0])
			}
			return fmt.Errorf("core: dump %q iter %d: %w", d.spec.Name, iter, err)
		}
		vtime.Barrier(procs...)
		shared := sharedHandles(h, len(procs))
		switch d.spec.Opt {
		case ioopt.Collective:
			err = collective.Write(op, procs, shared, bufs)
		case ioopt.Naive:
			err = collective.WriteNaive(op, procs, shared, bufs)
		case ioopt.DataSieving:
			err = d.sieveWrite(procs, h, bufs)
		default:
			err = fmt.Errorf("core: dataset %q: unsupported write optimization %v", d.spec.Name, d.spec.Opt)
		}
		if cerr := h.Close(procs[0]); cerr != nil && err == nil {
			err = cerr
		}
		vtime.Barrier(procs...)
		if wp != nil {
			if err != nil {
				wp.Abort(procs[0])
			} else {
				wp.Commit(procs[0])
			}
		}
	}
	if err != nil {
		return fmt.Errorf("core: dump %q iter %d: %w", d.spec.Name, iter, err)
	}
	d.mu.Lock()
	d.stats.Dumps++
	d.stats.Bytes += d.spec.Size()
	d.mu.Unlock()
	return nil
}

// ReadIter loads iteration iter into per-rank packed buffers.  All
// ranks are synchronized on return.
func (d *Dataset) ReadIter(iter int, bufs [][]byte) error {
	if d.backend == nil {
		return fmt.Errorf("core: read of DISABLEd dataset %q: %w", d.spec.Name, storage.ErrNotExist)
	}
	return d.track(func() error { return d.readIter(iter, bufs) })
}

func (d *Dataset) readIter(iter int, bufs [][]byte) error {
	procs := d.run.proc
	sess, err := d.run.session(d.backend)
	if err != nil {
		return err
	}
	op := collective.Op{Dims: d.spec.Dims, Etype: d.spec.Etype, Pat: d.spec.Pattern, Grid: d.grid}

	if d.spec.Opt == ioopt.Superfile {
		err = d.getSuperfile(iter, bufs, sess)
	} else if d.spec.Opt == ioopt.Subfile {
		err = d.subfileRead(iter, bufs, sess)
	} else {
		// The staging engine may redirect the read to a fast-tier copy
		// (hit), stage one in when predicted profitable, or leave it on
		// the home resource; a zero plan is the direct read.
		rp := stage.ReadPlan{Sess: sess, Path: d.InstancePath(iter)}
		if st := d.run.sys.stager; st != nil {
			rp = st.StageRead(procs[0], d.backend, sess, rp.Path, d.spec.Size())
		}
		var h storage.Handle
		h, err = rp.Sess.Open(procs[0], rp.Path, storage.ModeRead)
		if err != nil {
			rp.Release()
			return fmt.Errorf("core: read %q iter %d: %w", d.spec.Name, iter, err)
		}
		vtime.Barrier(procs...)
		shared := sharedHandles(h, len(procs))
		switch d.spec.Opt {
		case ioopt.Collective:
			err = collective.Read(op, procs, shared, bufs)
		case ioopt.Naive:
			err = collective.ReadNaive(op, procs, shared, bufs)
		case ioopt.DataSieving:
			err = d.sieveRead(procs, h, bufs)
		default:
			err = fmt.Errorf("core: dataset %q: unsupported read optimization %v", d.spec.Name, d.spec.Opt)
		}
		if cerr := h.Close(procs[0]); cerr != nil && err == nil {
			err = cerr
		}
		vtime.Barrier(procs...)
		rp.Release()
		if st := d.run.sys.stager; st != nil && err == nil && !d.overwrite {
			// Hint the next due instance while the application computes.
			st.Prefetch(d.backend, d.InstancePath(iter+d.spec.Frequency), d.spec.Size(), vtime.MaxNow(procs...))
		}
	}
	if err != nil {
		return fmt.Errorf("core: read %q iter %d: %w", d.spec.Name, iter, err)
	}
	d.mu.Lock()
	d.stats.Reads++
	d.stats.Bytes += d.spec.Size()
	d.mu.Unlock()
	return nil
}

// ReadGlobal loads one iteration's whole global array with a single
// native call — the sequential post-processing consumer's path (data
// analysis, the image viewer, VTK).
func (d *Dataset) ReadGlobal(p *vtime.Proc, iter int) ([]byte, error) {
	if d.backend == nil {
		return nil, fmt.Errorf("core: read of DISABLEd dataset %q: %w", d.spec.Name, storage.ErrNotExist)
	}
	sess, err := d.run.session(d.backend)
	if err != nil {
		return nil, err
	}
	if d.spec.Opt == ioopt.Superfile {
		c, err := d.roContainer(p, sess)
		if err != nil {
			return nil, err
		}
		return c.Get(p, fmt.Sprintf("iter%06d", iter))
	}
	if d.spec.Opt == ioopt.Subfile {
		global, _, err := subfile.ReadGlobal(p, sess, d.InstancePath(iter))
		if err != nil {
			return nil, fmt.Errorf("core: read %q iter %d: %w", d.spec.Name, iter, err)
		}
		return global, nil
	}
	rp := stage.ReadPlan{Sess: sess, Path: d.InstancePath(iter)}
	if st := d.run.sys.stager; st != nil {
		rp = st.StageRead(p, d.backend, sess, rp.Path, d.spec.Size())
	}
	buf, err := storage.GetFile(p, rp.Sess, rp.Path)
	rp.Release()
	if err != nil {
		return nil, fmt.Errorf("core: read %q iter %d: %w", d.spec.Name, iter, err)
	}
	if st := d.run.sys.stager; st != nil && !d.overwrite {
		st.Prefetch(d.backend, d.InstancePath(iter+d.spec.Frequency), d.spec.Size(), p.Now())
	}
	return buf, nil
}

// sharedHandles replicates one handle pointer per rank.
func sharedHandles(h storage.Handle, n int) []storage.Handle {
	hs := make([]storage.Handle, n)
	for i := range hs {
		hs[i] = h
	}
	return hs
}

func (d *Dataset) rankRuns(rank int) ([]pattern.Run, error) {
	sets, err := pattern.IndexSets(d.spec.Dims, d.spec.Pattern, d.grid, rank)
	if err != nil {
		return nil, err
	}
	return pattern.FileRuns(d.spec.Dims, d.spec.Etype, sets), nil
}

func (d *Dataset) sieveWrite(procs []*vtime.Proc, h storage.Handle, bufs [][]byte) error {
	// Sieved writes of interleaved extents must not race; serialize
	// ranks (the virtual clocks still queue on the device as usual).
	for r := range procs {
		runs, err := d.rankRuns(r)
		if err != nil {
			return err
		}
		if err := sieve.Write(procs[r], h, runs, bufs[r]); err != nil {
			return err
		}
	}
	vtime.Barrier(procs...)
	return nil
}

func (d *Dataset) sieveRead(procs []*vtime.Proc, h storage.Handle, bufs [][]byte) error {
	var wg sync.WaitGroup
	errs := make([]error, len(procs))
	for r := range procs {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			runs, err := d.rankRuns(r)
			if err != nil {
				errs[r] = err
				return
			}
			errs[r] = sieve.Read(procs[r], h, runs, bufs[r])
		}(r)
	}
	wg.Wait()
	vtime.Barrier(procs...)
	return errors.Join(errs...)
}

func (d *Dataset) subfileWrite(iter int, bufs [][]byte, sess storage.Session) error {
	err := subfile.Write(sess, d.InstancePath(iter), d.spec.Dims, d.spec.Etype, d.spec.Pattern, d.grid, d.run.proc, bufs)
	if err != nil {
		return err
	}
	vtime.Barrier(d.run.proc...)
	return nil
}

func (d *Dataset) subfileRead(iter int, bufs [][]byte, sess storage.Session) error {
	if err := subfile.Read(sess, d.InstancePath(iter), d.grid, d.run.proc, bufs); err != nil {
		return err
	}
	vtime.Barrier(d.run.proc...)
	return nil
}

// putSuperfile appends this iteration's global array to the dataset's
// container (created on first use).
func (d *Dataset) putSuperfile(iter int, bufs [][]byte, sess storage.Session) error {
	procs := d.run.proc
	d.mu.Lock()
	c := d.container
	d.mu.Unlock()
	if c == nil {
		var err error
		c, err = superfile.Create(procs[0], sess, d.BasePath()+".sf")
		if err != nil {
			return err
		}
		d.mu.Lock()
		d.container = c
		d.mu.Unlock()
	}
	global, err := d.assembleGlobal(bufs)
	if err != nil {
		return err
	}
	if err := c.Put(procs[0], fmt.Sprintf("iter%06d", iter), global); err != nil {
		return err
	}
	vtime.Barrier(procs...)
	return nil
}

// getSuperfile serves a parallel read from the container cache.
func (d *Dataset) getSuperfile(iter int, bufs [][]byte, sess storage.Session) error {
	procs := d.run.proc
	c, err := d.roContainer(procs[0], sess)
	if err != nil {
		return err
	}
	global, err := c.Get(procs[0], fmt.Sprintf("iter%06d", iter))
	if err != nil {
		return err
	}
	vtime.Barrier(procs...)
	for r := range procs {
		runs, err := d.rankRuns(r)
		if err != nil {
			return err
		}
		copy(bufs[r], pattern.Pack(global, runs))
	}
	return nil
}

// roContainer opens (once) the dataset's container for reading.
func (d *Dataset) roContainer(p *vtime.Proc, sess storage.Session) (*superfile.Container, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.container == nil {
		c, err := superfile.Open(p, sess, d.BasePath()+".sf")
		if err != nil {
			return nil, err
		}
		d.container = c
	}
	return d.container, nil
}

// assembleGlobal rebuilds the global array from per-rank packed buffers.
func (d *Dataset) assembleGlobal(bufs [][]byte) ([]byte, error) {
	if len(bufs) != len(d.run.proc) {
		return nil, fmt.Errorf("core: dataset %q: %d buffers for %d ranks", d.spec.Name, len(bufs), len(d.run.proc))
	}
	global := make([]byte, d.spec.Size())
	for r := range bufs {
		runs, err := d.rankRuns(r)
		if err != nil {
			return nil, err
		}
		if err := pattern.Unpack(global, runs, bufs[r]); err != nil {
			return nil, err
		}
	}
	return global, nil
}

// Finalize closes containers and sessions and marks the run finished.
func (r *Run) Finalize() error {
	r.mu.Lock()
	if r.finished {
		r.mu.Unlock()
		return fmt.Errorf("core: run %q: %w", r.cfg.ID, storage.ErrClosed)
	}
	r.finished = true
	datasets := make([]*Dataset, 0, len(r.datasets))
	for _, d := range r.datasets {
		datasets = append(datasets, d)
	}
	sessions := make([]storage.Session, 0, len(r.sessions))
	for _, s := range r.sessions {
		sessions = append(sessions, s)
	}
	r.mu.Unlock()

	var errs []error
	if st := r.sys.stager; st != nil {
		// Write-back: drain dirty staged instances to their home tiers
		// before the run's sessions go away, charging the movement to
		// the run's I/O account (the paper's close/checkpoint point).
		st.WaitPrefetch()
		before := r.proc[0].Now()
		if err := st.Drain(r.proc[0]); err != nil {
			errs = append(errs, err)
		}
		r.addIOTime(r.proc[0].Now() - before)
	}
	for _, d := range datasets {
		d.mu.Lock()
		c := d.container
		d.container = nil
		d.mu.Unlock()
		if c != nil {
			if err := c.Close(r.proc[0]); err != nil {
				errs = append(errs, err)
			}
		}
	}
	for _, s := range sessions {
		if err := s.Close(r.proc[0]); err != nil {
			errs = append(errs, err)
		}
	}
	vtime.Barrier(r.proc...)
	return errors.Join(errs...)
}
