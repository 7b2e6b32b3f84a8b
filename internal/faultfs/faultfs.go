// Package faultfs is an in-memory filesystem that can die.  It
// implements both vfs.FS (the journal/snapshot seam of internal/wal
// and internal/metadb) and storage.Store (the raw byte layer beneath
// storage backends, e.g. the staging cache), with one shared failure
// model:
//
//   - Every mutating operation (write, fsync, truncate, create,
//     rename, remove, directory sync) is numbered.  SetCrash arms a
//     crash at the Nth next operation: that operation and everything
//     after it fail with ErrCrashed, simulating the process dying
//     mid-run.
//   - The filesystem tracks durability exactly as strict POSIX
//     permits: file contents survive a crash only up to the last
//     File.Sync, and directory entries (creates, renames, removes)
//     only up to the last SyncDir on their parent.
//   - Recover produces the post-crash image under a chosen CrashMode:
//     DropUnsynced keeps only fsync-guaranteed state, KeepUnsynced
//     keeps everything the process ever wrote (the lucky crash), and
//     TornWrites keeps a sector-aligned prefix of each file's
//     un-fsynced tail with the final sector possibly scrambled — the
//     adversarial page-cache writeback schedule.
//   - SetFault arms a transient fault instead: one file Write (torn:
//     half of its bytes land) or Sync (nothing made durable) fails with
//     ErrInjected and the filesystem lives on — the disk-full or EIO a
//     process survives, and must not carry on appending after.
//
// Recovery code proven correct against all three modes at every crash
// point is correct against anything a real disk can do within the
// POSIX contract.
package faultfs

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"path"
	"sort"
	"strings"
	"sync"

	"repro/internal/storage"
	"repro/internal/vfs"
)

// ErrCrashed is returned by every operation at and after the armed
// crash point.
var ErrCrashed = errors.New("faultfs: simulated crash")

// ErrInjected is returned by the one operation a SetFault fault hits.
var ErrInjected = errors.New("faultfs: injected I/O error")

// CrashMode selects what un-fsynced state survives Recover.
type CrashMode int

const (
	// DropUnsynced keeps only what fsync barriers guaranteed: durable
	// file contents and durable directory entries.
	DropUnsynced CrashMode = iota
	// KeepUnsynced keeps the full volatile state — the crash where the
	// page cache had flushed everything.
	KeepUnsynced
	// TornWrites keeps durable directory entries, and file contents up
	// to a sector-aligned cut somewhere inside the un-fsynced tail,
	// with bytes of the last surviving sector possibly scrambled.
	TornWrites
)

func (m CrashMode) String() string {
	switch m {
	case DropUnsynced:
		return "drop-unsynced"
	case KeepUnsynced:
		return "keep-unsynced"
	case TornWrites:
		return "torn-writes"
	default:
		return fmt.Sprintf("CrashMode(%d)", int(m))
	}
}

// Modes lists every crash mode, for matrix-style tests.
func Modes() []CrashMode { return []CrashMode{DropUnsynced, KeepUnsynced, TornWrites} }

// SectorSize is the torn-write granularity.
const SectorSize = 512

// inode is one file's content with its durability shadow.
type inode struct {
	data    []byte // volatile (visible) content
	durable []byte // content as of the last Sync; nil and synced=false if never synced
	synced  bool
	// unsyncedLow is the lowest offset modified since the last Sync
	// (len(data) when nothing is pending).
	unsyncedLow int64
}

func newInode() *inode { return &inode{} }

func (ino *inode) markWrite(off int64) {
	if off < ino.unsyncedLow {
		ino.unsyncedLow = off
	}
}

func (ino *inode) sync() {
	// Bytes below unsyncedLow have not changed since the last sync (it
	// is 0 until the first one and only ever lowered in between): copy
	// only what has, so a journal's flush costs its new records.
	lo := ino.unsyncedLow
	ino.durable = append(ino.durable[:lo], ino.data[lo:]...)
	ino.synced = true
	ino.unsyncedLow = int64(len(ino.data))
}

// FS is the fault-injecting filesystem.  The zero value is not usable;
// call New.
type FS struct {
	mu  sync.Mutex
	vol map[string]*inode // visible namespace
	dur map[string]*inode // namespace as of the last SyncDir per parent

	ops     int // mutating operations performed
	crashAt int // crash when ops reaches this value (0 = disarmed)
	crashed bool
	faultAt int // fail one Write or Sync once ops reaches this value (0 = disarmed)
}

// New returns an empty filesystem with no crash armed.
func New() *FS {
	return &FS{vol: make(map[string]*inode), dur: make(map[string]*inode)}
}

var (
	_ vfs.FS        = (*FS)(nil)
	_ storage.Store = (*Store)(nil)
)

// SetCrash arms a crash at the n-th mutating operation from now
// (n >= 1).  n <= 0 disarms.
func (f *FS) SetCrash(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if n <= 0 {
		f.crashAt = 0
		return
	}
	f.crashAt = f.ops + n
}

// SetFault arms a transient fault: the first file Write or Sync at or
// after the n-th mutating operation from now (n >= 1) fails once with
// ErrInjected, and the filesystem stays alive.  A failed Write has
// appended the first half of its bytes; a failed Sync has made nothing
// durable.  n <= 0 disarms.
func (f *FS) SetFault(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if n <= 0 {
		f.faultAt = 0
		return
	}
	f.faultAt = f.ops + n
}

// fault reports whether the armed transient fault hits the operation
// step has just counted, disarming it.  Called with f.mu held.
func (f *FS) fault() bool {
	if f.faultAt == 0 || f.ops < f.faultAt {
		return false
	}
	f.faultAt = 0
	return true
}

// Ops returns the number of mutating operations performed so far.
func (f *FS) Ops() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ops
}

// Crashed reports whether the armed crash has fired.
func (f *FS) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// step counts one mutating operation and fires the armed crash.  It
// must be called with f.mu held; a true return means the caller must
// fail with ErrCrashed without performing the operation.
func (f *FS) step() bool {
	if f.crashed {
		return true
	}
	f.ops++
	if f.crashAt > 0 && f.ops >= f.crashAt {
		f.crashed = true
		return true
	}
	return false
}

// alive returns ErrCrashed once the crash has fired (the process is
// dead; even reads fail).
func (f *FS) alive() error {
	if f.crashed {
		return ErrCrashed
	}
	return nil
}

// Recover builds the post-crash filesystem image under the given mode.
// The receiver is left untouched; the returned FS is fresh, with no
// crash armed.  seed drives the torn-write cut points deterministically.
func (f *FS) Recover(mode CrashMode, seed int64) *FS {
	f.mu.Lock()
	defer f.mu.Unlock()
	rng := rand.New(rand.NewSource(seed))
	out := New()
	names := func(m map[string]*inode) []string {
		ns := make([]string, 0, len(m))
		for n := range m {
			ns = append(ns, n)
		}
		sort.Strings(ns) // deterministic rng consumption order
		return ns
	}
	switch mode {
	case KeepUnsynced:
		for _, name := range names(f.vol) {
			ino := f.vol[name]
			out.vol[name] = &inode{data: append([]byte(nil), ino.data...)}
		}
	case DropUnsynced:
		for _, name := range names(f.dur) {
			ino := f.dur[name]
			var data []byte
			if ino.synced {
				data = append([]byte(nil), ino.durable...)
			}
			out.vol[name] = &inode{data: data}
		}
	case TornWrites:
		for _, name := range names(f.dur) {
			ino := f.dur[name]
			out.vol[name] = &inode{data: tornContent(ino, rng)}
		}
	}
	// Everything that survived the crash is durable in the new image.
	for name, ino := range out.vol {
		ino.sync()
		out.dur[name] = ino
	}
	return out
}

// tornContent returns the crash-surviving bytes of one inode: durable
// content plus a sector-aligned prefix of the un-fsynced tail, with the
// final surviving sector sometimes scrambled.
func tornContent(ino *inode, rng *rand.Rand) []byte {
	lo := ino.unsyncedLow
	if lo > int64(len(ino.data)) {
		lo = int64(len(ino.data))
	}
	if !ino.synced && lo > 0 {
		// Never-synced files have no guaranteed prefix at all.
		lo = 0
	}
	pending := int64(len(ino.data)) - lo
	if pending <= 0 {
		if ino.synced {
			return append([]byte(nil), ino.durable...)
		}
		return append([]byte(nil), ino.data...)
	}
	// Cut somewhere in [lo, len(data)], rounded down to a sector
	// boundary relative to the file start.
	cut := lo + rng.Int63n(pending+1)
	cut -= cut % SectorSize
	if cut < lo {
		cut = lo
	}
	data := append([]byte(nil), ino.data[:cut]...)
	// The sector straddling the cut may contain garbage: scramble a
	// random run of bytes inside the last un-fsynced sector.
	if cut > lo && rng.Intn(2) == 0 {
		start := cut - SectorSize
		if start < lo {
			start = lo
		}
		for i := start; i < cut; i++ {
			data[i] = byte(rng.Intn(256))
		}
	}
	return data
}

func cleanName(name string) string {
	return strings.TrimPrefix(path.Clean("/"+name), "/")
}

// ------------------------------------------------------------------
// vfs.FS implementation.

// Create implements vfs.FS: a fresh inode replaces any existing entry;
// the directory entry is volatile until SyncDir.
func (f *FS) Create(name string) (vfs.File, error) {
	name = cleanName(name)
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.step() {
		return nil, fmt.Errorf("create %q: %w", name, ErrCrashed)
	}
	ino := newInode()
	f.vol[name] = ino
	return &vfile{fs: f, ino: ino, name: name}, nil
}

// Append implements vfs.FS.
func (f *FS) Append(name string) (vfs.File, error) {
	name = cleanName(name)
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.alive(); err != nil {
		return nil, err
	}
	ino, ok := f.vol[name]
	if !ok {
		if f.step() {
			return nil, fmt.Errorf("append %q: %w", name, ErrCrashed)
		}
		ino = newInode()
		f.vol[name] = ino
	}
	return &vfile{fs: f, ino: ino, name: name}, nil
}

// Open implements vfs.FS.
func (f *FS) Open(name string) (vfs.File, error) {
	name = cleanName(name)
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.alive(); err != nil {
		return nil, err
	}
	ino, ok := f.vol[name]
	if !ok {
		return nil, fmt.Errorf("faultfs open %q: %w", name, vfs.ErrNotExist)
	}
	return &vfile{fs: f, ino: ino, name: name, ro: true}, nil
}

// Rename implements vfs.FS (volatile until SyncDir).
func (f *FS) Rename(oldname, newname string) error {
	oldname, newname = cleanName(oldname), cleanName(newname)
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.step() {
		return fmt.Errorf("rename %q: %w", oldname, ErrCrashed)
	}
	ino, ok := f.vol[oldname]
	if !ok {
		return fmt.Errorf("faultfs rename %q: %w", oldname, vfs.ErrNotExist)
	}
	f.vol[newname] = ino
	delete(f.vol, oldname)
	return nil
}

// Remove implements vfs.FS and storage.Store (volatile until SyncDir).
func (f *FS) Remove(name string) error {
	name = cleanName(name)
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.step() {
		return fmt.Errorf("remove %q: %w", name, ErrCrashed)
	}
	if _, ok := f.vol[name]; !ok {
		// Both interface families funnel through here; satisfy each
		// sentinel convention.
		return fmt.Errorf("faultfs remove %q: %w", name, errors.Join(vfs.ErrNotExist, storage.ErrNotExist))
	}
	delete(f.vol, name)
	return nil
}

// MkdirAll implements vfs.FS (directories are implicit).
func (f *FS) MkdirAll(dir string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.alive()
}

// List implements vfs.FS: base names of files directly inside dir.
func (f *FS) List(dir string) ([]string, error) {
	dir = cleanName(dir)
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.alive(); err != nil {
		return nil, err
	}
	var out []string
	for name := range f.vol {
		if path.Dir(name) == dir || (dir == "" && path.Dir(name) == ".") {
			out = append(out, path.Base(name))
		}
	}
	sort.Strings(out)
	return out, nil
}

// SyncDir implements vfs.FS: dir's volatile entries (creates, renames,
// removes) become durable.
func (f *FS) SyncDir(dir string) error {
	dir = cleanName(dir)
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.step() {
		return fmt.Errorf("syncdir %q: %w", dir, ErrCrashed)
	}
	inDir := func(name string) bool {
		return path.Dir(name) == dir || (dir == "" && path.Dir(name) == ".")
	}
	for name, ino := range f.vol {
		if inDir(name) {
			f.dur[name] = ino
		}
	}
	for name := range f.dur {
		if inDir(name) {
			if _, ok := f.vol[name]; !ok {
				delete(f.dur, name)
			}
		}
	}
	return nil
}

// Stat implements vfs.FS.
func (f *FS) Stat(name string) (int64, error) {
	name = cleanName(name)
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.alive(); err != nil {
		return 0, err
	}
	ino, ok := f.vol[name]
	if !ok {
		return 0, fmt.Errorf("faultfs stat %q: %w", name, vfs.ErrNotExist)
	}
	return int64(len(ino.data)), nil
}

// vfile is an open vfs.File: Write appends, mirroring O_APPEND.
type vfile struct {
	fs   *FS
	ino  *inode
	name string
	ro   bool
}

func (v *vfile) Write(b []byte) (int, error) {
	v.fs.mu.Lock()
	defer v.fs.mu.Unlock()
	if v.ro {
		return 0, fmt.Errorf("faultfs write %q: read-only", v.name)
	}
	if v.fs.step() {
		return 0, fmt.Errorf("write %q: %w", v.name, ErrCrashed)
	}
	off := int64(len(v.ino.data))
	if v.fs.fault() {
		b = b[:len(b)/2]
		v.ino.data = append(v.ino.data, b...)
		v.ino.markWrite(off)
		return len(b), fmt.Errorf("write %q: %w", v.name, ErrInjected)
	}
	v.ino.data = append(v.ino.data, b...)
	v.ino.markWrite(off)
	return len(b), nil
}

func (v *vfile) ReadAt(b []byte, off int64) (int, error) {
	v.fs.mu.Lock()
	defer v.fs.mu.Unlock()
	if err := v.fs.alive(); err != nil {
		return 0, err
	}
	if off < 0 || off >= int64(len(v.ino.data)) {
		return 0, io.EOF
	}
	n := copy(b, v.ino.data[off:])
	if n < len(b) {
		return n, io.EOF
	}
	return n, nil
}

func (v *vfile) Truncate(size int64) error {
	v.fs.mu.Lock()
	defer v.fs.mu.Unlock()
	if v.ro {
		return fmt.Errorf("faultfs truncate %q: read-only", v.name)
	}
	if v.fs.step() {
		return fmt.Errorf("truncate %q: %w", v.name, ErrCrashed)
	}
	if size < 0 || size > int64(len(v.ino.data)) {
		return fmt.Errorf("faultfs truncate %q: bad size %d", v.name, size)
	}
	v.ino.data = v.ino.data[:size]
	v.ino.markWrite(size)
	return nil
}

func (v *vfile) Sync() error {
	v.fs.mu.Lock()
	defer v.fs.mu.Unlock()
	if v.fs.step() {
		return fmt.Errorf("sync %q: %w", v.name, ErrCrashed)
	}
	if v.fs.fault() {
		return fmt.Errorf("sync %q: %w", v.name, ErrInjected)
	}
	v.ino.sync()
	return nil
}

func (v *vfile) Close() error {
	v.fs.mu.Lock()
	defer v.fs.mu.Unlock()
	return v.fs.alive()
}

// ------------------------------------------------------------------
// storage.Store implementation (the staging cache's raw byte layer).
// Store users have no sync call, so everything they write is volatile:
// exactly the exposure the manifest's checksums must catch.

// Store returns a storage.Store view over the same crashing namespace,
// so a staging cache and a meta-data journal can share one failure
// domain.  vfs.FS and storage.Store declare conflicting Open/Stat/List
// signatures, hence the wrapper.
func (f *FS) Store() *Store { return &Store{f: f} }

// Store adapts FS to storage.Store.
type Store struct{ f *FS }

// Open implements storage.Store.
func (st *Store) Open(name string, create, trunc bool) (storage.File, error) {
	f := st.f
	name, err := storage.CleanPath(name)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.alive(); err != nil {
		return nil, err
	}
	ino, ok := f.vol[name]
	if !ok {
		if !create {
			return nil, fmt.Errorf("faultfs open %q: %w", name, storage.ErrNotExist)
		}
		if f.step() {
			return nil, fmt.Errorf("open %q: %w", name, ErrCrashed)
		}
		ino = newInode()
		f.vol[name] = ino
	} else if trunc {
		if f.step() {
			return nil, fmt.Errorf("open %q: %w", name, ErrCrashed)
		}
		ino.data = ino.data[:0]
		ino.markWrite(0)
	}
	return &sfile{fs: f, ino: ino, name: name}, nil
}

// Remove implements storage.Store.
func (st *Store) Remove(name string) error {
	name, err := storage.CleanPath(name)
	if err != nil {
		return err
	}
	return st.f.Remove(name)
}

// Stat implements storage.Store.
func (st *Store) Stat(name string) (storage.FileInfo, error) {
	name, err := storage.CleanPath(name)
	if err != nil {
		return storage.FileInfo{}, err
	}
	f := st.f
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.alive(); err != nil {
		return storage.FileInfo{}, err
	}
	ino, ok := f.vol[name]
	if !ok {
		return storage.FileInfo{}, fmt.Errorf("faultfs stat %q: %w", name, storage.ErrNotExist)
	}
	return storage.FileInfo{Path: name, Size: int64(len(ino.data))}, nil
}

// List implements storage.Store: files whose path begins with prefix.
func (st *Store) List(prefix string) ([]storage.FileInfo, error) {
	f := st.f
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.alive(); err != nil {
		return nil, err
	}
	var out []storage.FileInfo
	for name, ino := range f.vol {
		if strings.HasPrefix(name, prefix) {
			out = append(out, storage.FileInfo{Path: name, Size: int64(len(ino.data))})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// UsedBytes implements storage.Store.
func (st *Store) UsedBytes() int64 {
	f := st.f
	f.mu.Lock()
	defer f.mu.Unlock()
	var total int64
	for _, ino := range f.vol {
		total += int64(len(ino.data))
	}
	return total
}

// sfile is an open storage.File.
type sfile struct {
	fs   *FS
	ino  *inode
	name string
}

func (s *sfile) ReadAt(b []byte, off int64) (int, error) {
	s.fs.mu.Lock()
	defer s.fs.mu.Unlock()
	if err := s.fs.alive(); err != nil {
		return 0, err
	}
	if off < 0 || off >= int64(len(s.ino.data)) {
		return 0, io.EOF
	}
	n := copy(b, s.ino.data[off:])
	if n < len(b) {
		return n, io.EOF
	}
	return n, nil
}

func (s *sfile) WriteAt(b []byte, off int64) (int, error) {
	s.fs.mu.Lock()
	defer s.fs.mu.Unlock()
	if off < 0 {
		return 0, fmt.Errorf("faultfs write %q: negative offset: %w", s.name, storage.ErrBadPath)
	}
	if s.fs.step() {
		return 0, fmt.Errorf("write %q: %w", s.name, ErrCrashed)
	}
	end := off + int64(len(b))
	for int64(len(s.ino.data)) < end {
		s.ino.data = append(s.ino.data, 0)
	}
	copy(s.ino.data[off:end], b)
	s.ino.markWrite(off)
	return len(b), nil
}

func (s *sfile) Size() int64 {
	s.fs.mu.Lock()
	defer s.fs.mu.Unlock()
	return int64(len(s.ino.data))
}

func (s *sfile) Truncate(size int64) error {
	s.fs.mu.Lock()
	defer s.fs.mu.Unlock()
	if size < 0 {
		return fmt.Errorf("faultfs truncate %q: negative size: %w", s.name, storage.ErrBadPath)
	}
	if s.fs.step() {
		return fmt.Errorf("truncate %q: %w", s.name, ErrCrashed)
	}
	cur := int64(len(s.ino.data))
	if size < cur {
		s.ino.data = s.ino.data[:size]
	} else {
		for int64(len(s.ino.data)) < size {
			s.ino.data = append(s.ino.data, 0)
		}
	}
	s.ino.markWrite(min64(size, cur))
	return nil
}

func (s *sfile) Close() error {
	s.fs.mu.Lock()
	defer s.fs.mu.Unlock()
	return s.fs.alive()
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
