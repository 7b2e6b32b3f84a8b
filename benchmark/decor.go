package main

import (
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/metadb"
	"repro/internal/qos"
	"repro/internal/storage"
	"repro/internal/vfs"
	"repro/internal/vtime"
)

// seamCounts are the work counts taken at a decorated seam; they run
// whenever the decorator is installed, gate or no gate.
type seamCounts struct {
	calls atomic.Int64
	bytes atomic.Int64
}

func (c *seamCounts) add(n int) {
	c.calls.Add(1)
	c.bytes.Add(int64(n))
}

// ---- storage.Backend seam (layer "device", or the root client span) ----

// tracedBackend wraps a storage.Backend.  Server side it marks the
// device layer.  Client side (oneAtATime set) every public-API call is
// a request root instead, and the lock keeps a single request in
// flight so server spans nest by interval.
type tracedBackend struct {
	storage.Backend
	tr         *tracer
	counts     *seamCounts
	oneAtATime *sync.Mutex // nil server side
}

// enter serializes client-side calls and opens the span.
func (b *tracedBackend) enter() int64 {
	if b.oneAtATime != nil {
		b.oneAtATime.Lock()
	}
	return b.tr.begin()
}

// exit closes the span and counts the call and its n bytes.
func (b *tracedBackend) exit(k spanKind, start int64, n int) {
	if b.oneAtATime != nil {
		k = spClientOp
	}
	b.tr.end(k, start)
	b.counts.add(n)
	if b.oneAtATime != nil {
		b.oneAtATime.Unlock()
	}
}

func (b *tracedBackend) Connect(p *vtime.Proc) (storage.Session, error) {
	s, err := b.Backend.Connect(p)
	if err != nil {
		return nil, err
	}
	return &tracedSession{Session: s, b: b}, nil
}

type tracedSession struct {
	storage.Session
	b *tracedBackend
}

func (s *tracedSession) Open(p *vtime.Proc, name string, mode storage.AMode) (storage.Handle, error) {
	t := s.b.enter()
	h, err := s.Session.Open(p, name, mode)
	s.b.exit(spDevOpen, t, 0)
	if err != nil {
		return nil, err
	}
	return &tracedHandle{Handle: h, b: s.b}, nil
}

func (s *tracedSession) Remove(p *vtime.Proc, name string) error {
	t := s.b.enter()
	err := s.Session.Remove(p, name)
	s.b.exit(spDevMeta, t, 0)
	return err
}

func (s *tracedSession) Stat(p *vtime.Proc, name string) (storage.FileInfo, error) {
	t := s.b.enter()
	fi, err := s.Session.Stat(p, name)
	s.b.exit(spDevMeta, t, 0)
	return fi, err
}

func (s *tracedSession) List(p *vtime.Proc, prefix string) ([]storage.FileInfo, error) {
	t := s.b.enter()
	fis, err := s.Session.List(p, prefix)
	s.b.exit(spDevMeta, t, 0)
	return fis, err
}

// PutFile and GetFile keep the whole-file fast path reachable through
// the wrapper: storage.PutFile/GetFile fall back to open+transfer+close
// exactly as the caller would have without it.
func (s *tracedSession) PutFile(p *vtime.Proc, name string, mode storage.AMode, data []byte) error {
	t := s.b.enter()
	err := storage.PutFile(p, s.Session, name, mode, data)
	s.b.exit(spDevWrite, t, len(data))
	return err
}

func (s *tracedSession) GetFile(p *vtime.Proc, name string) ([]byte, error) {
	t := s.b.enter()
	data, err := storage.GetFile(p, s.Session, name)
	s.b.exit(spDevRead, t, len(data))
	return data, err
}

type tracedHandle struct {
	storage.Handle
	b *tracedBackend
}

func (h *tracedHandle) ReadAt(p *vtime.Proc, b []byte, off int64) (int, error) {
	t := h.b.enter()
	n, err := h.Handle.ReadAt(p, b, off)
	h.b.exit(spDevRead, t, n)
	return n, err
}

func (h *tracedHandle) WriteAt(p *vtime.Proc, b []byte, off int64) (int, error) {
	t := h.b.enter()
	n, err := h.Handle.WriteAt(p, b, off)
	h.b.exit(spDevWrite, t, n)
	return n, err
}

// ReadAtV and WriteAtV keep the vectored fast path reachable; see
// PutFile above.
func (h *tracedHandle) ReadAtV(p *vtime.Proc, vecs []storage.Vec) (int64, error) {
	t := h.b.enter()
	n, err := storage.ReadV(p, h.Handle, vecs)
	h.b.exit(spDevRead, t, int(n))
	return n, err
}

func (h *tracedHandle) WriteAtV(p *vtime.Proc, vecs []storage.Vec) (int64, error) {
	t := h.b.enter()
	n, err := storage.WriteV(p, h.Handle, vecs)
	h.b.exit(spDevWrite, t, int(n))
	return n, err
}

func (h *tracedHandle) Close(p *vtime.Proc) error {
	t := h.b.enter()
	err := h.Handle.Close(p)
	h.b.exit(spDevClose, t, 0)
	return err
}

// ---- storage.Store seam (layer "store": memfs or osfs) ----

type tracedStore struct {
	storage.Store
	tr     *tracer
	counts *seamCounts
}

func (s *tracedStore) Open(name string, create, trunc bool) (storage.File, error) {
	t := s.tr.begin()
	f, err := s.Store.Open(name, create, trunc)
	s.tr.end(spStoreOpen, t)
	s.counts.add(0)
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: f, s: s}, nil
}

func (s *tracedStore) Remove(name string) error {
	t := s.tr.begin()
	err := s.Store.Remove(name)
	s.tr.end(spStoreMeta, t)
	s.counts.add(0)
	return err
}

func (s *tracedStore) Stat(name string) (storage.FileInfo, error) {
	t := s.tr.begin()
	fi, err := s.Store.Stat(name)
	s.tr.end(spStoreMeta, t)
	s.counts.add(0)
	return fi, err
}

type tracedFile struct {
	storage.File
	s *tracedStore
}

func (f *tracedFile) ReadAt(b []byte, off int64) (int, error) {
	t := f.s.tr.begin()
	n, err := f.File.ReadAt(b, off)
	f.s.tr.end(spStoreRead, t)
	f.s.counts.add(n)
	return n, err
}

func (f *tracedFile) WriteAt(b []byte, off int64) (int, error) {
	t := f.s.tr.begin()
	n, err := f.File.WriteAt(b, off)
	f.s.tr.end(spStoreWrite, t)
	f.s.counts.add(n)
	return n, err
}

// ---- vfs.FS seam (layer "vfs": what the journal asks of the filesystem) ----

// journalFlushBudget is the journal device's modelled flush time.  The
// journal workloads run on the real filesystem and every flush is a
// real fsync, but the sandbox's fsync moves twofold with the host's
// I/O throttling, which would decide every timing of a workload that
// waits for one flush per op.  So a flush that returns early is held to
// this fixed budget, the way the storage device models charge a fixed
// cost — comfortably above the fsync the sandbox shows (90–250 µs,
// p99 ≈ 450 µs).  A flush that overruns the budget takes what it takes.
const journalFlushBudget = 750 * time.Microsecond

// journalFS wraps the filesystem under a journal (wal.Options.FS): it
// holds flushes to the budget, always counts and times the real writes
// and fsyncs, and records spans while a tracer's gate is open.
type journalFS struct {
	vfs.FS
	tr     *tracer // nil untraced
	budget time.Duration

	syncs   atomic.Int64
	syncNS  atomic.Int64 // real fsync time, before padding
	writes  seamCounts
	writeNS atomic.Int64
}

func newJournalFS(tr *tracer) *journalFS {
	return &journalFS{FS: vfs.OS{}, tr: tr, budget: journalFlushBudget}
}

func (f *journalFS) wrap(file vfs.File, err error) (vfs.File, error) {
	if err != nil {
		return nil, err
	}
	return &journalFile{File: file, fs: f}, nil
}

func (f *journalFS) Create(name string) (vfs.File, error) {
	t := f.tr.begin()
	file, err := f.FS.Create(name)
	f.tr.end(spVFSMeta, t)
	return f.wrap(file, err)
}

func (f *journalFS) Append(name string) (vfs.File, error) {
	t := f.tr.begin()
	file, err := f.FS.Append(name)
	f.tr.end(spVFSMeta, t)
	return f.wrap(file, err)
}

func (f *journalFS) SyncDir(dir string) error {
	t := f.tr.begin()
	err := f.FS.SyncDir(dir)
	f.tr.end(spVFSMeta, t)
	return err
}

type journalFile struct {
	vfs.File
	fs *journalFS
}

func (v *journalFile) Write(b []byte) (int, error) {
	t := v.fs.tr.begin()
	start := nowNS()
	n, err := v.File.Write(b)
	v.fs.writeNS.Add(nowNS() - start)
	v.fs.tr.end(spVFSWrite, t)
	v.fs.writes.add(n)
	return n, err
}

// Sync is the real fsync, then the rest of the flush budget blocked in
// nanosleep(2): the thread stays in the kernel and off the CPU exactly
// as it does inside fsync, where time.Sleep would round a sub-
// millisecond wait up to the netpoller's 1 ms.  The span covers both:
// it is the device's modelled time.
func (v *journalFile) Sync() error {
	t := v.fs.tr.begin()
	start := nowNS()
	err := v.File.Sync()
	real := nowNS() - start
	v.fs.syncNS.Add(real)
	v.fs.syncs.Add(1)
	if rest := v.fs.budget - time.Duration(real); rest > 0 {
		ts := syscall.NsecToTimespec(int64(rest))
		_ = syscall.Nanosleep(&ts, nil) // an early wake-up only shortens the pad
	}
	v.fs.tr.end(spVFSSync, t)
	return err
}

// ---- qos.Config.Price seam ----

func tracedPricer(tr *tracer, price qos.Pricer) qos.Pricer {
	return func(class, op string, bytes int64) float64 {
		t := tr.begin()
		c := price(class, op, bytes)
		tr.end(spPrice, t)
		return c
	}
}

// ---- metadb.Replicator seam (layer "cluster") ----

type tracedReplicator struct {
	inner metadb.Replicator
	tr    *tracer
	ns    atomic.Int64
	calls atomic.Int64
}

func (r *tracedReplicator) Replicate(p *vtime.Proc, typ byte, data []byte) error {
	t := r.tr.begin()
	start := nowNS()
	err := r.inner.Replicate(p, typ, data)
	r.ns.Add(nowNS() - start)
	r.calls.Add(1)
	r.tr.end(spReplicate, t)
	return err
}

// recordVFS reports what a journal asked of the real filesystem: the
// sandbox's own write and fsync times, before any padding.
func recordVFS(r *result, fs *journalFS) {
	syncs, writes := fs.syncs.Load(), fs.writes.calls.Load()
	r.setN("vfs.sync_us", float64(fs.syncNS.Load())/1e3/float64(syncs), syncs)
	r.setN("vfs.write_us", float64(fs.writeNS.Load())/1e3/float64(writes), writes)
	r.set("vfs.syncs", float64(syncs))
	r.set("vfs.write_bytes", float64(fs.writes.bytes.Load()))
}
