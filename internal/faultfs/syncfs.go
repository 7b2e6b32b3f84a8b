package faultfs

import (
	"sync/atomic"
	"time"

	"repro/internal/vfs"
)

// SyncFS wraps a filesystem to put a test in charge of fsync, the one
// call a commit pipeline is built around.  Files opened for writing
// through it (Create, Append) behave as the inner filesystem's except
// that:
//
//   - every Sync does the real sync and then sleeps for the flush
//     time — a disk with a fixed flush time, on which bytes written
//     during the flush are not covered by it;
//   - after Hold, the next Sync parks before doing anything: AwaitHeld
//     returns once it has, and Release lets it go on (nil) or fail with
//     the given error having synced nothing;
//   - a Close that overlaps a Sync of the same file is recorded
//     (Unfenced): whoever swaps or closes a log's file must wait out
//     the flush in flight.
type SyncFS struct {
	vfs.FS
	delay time.Duration

	hold     atomic.Bool
	entered  chan struct{}
	release  chan error
	unfenced atomic.Bool
}

// NewSyncFS wraps inner with the given flush time (0 for none).
func NewSyncFS(inner vfs.FS, delay time.Duration) *SyncFS {
	return &SyncFS{FS: inner, delay: delay, entered: make(chan struct{}), release: make(chan error)}
}

// Hold arms the gate: the next Sync parks until Release.
func (s *SyncFS) Hold() { s.hold.Store(true) }

// AwaitHeld blocks until a Sync has parked at the gate.
func (s *SyncFS) AwaitHeld() { <-s.entered }

// Release lets the parked Sync proceed, or fail with err.
func (s *SyncFS) Release(err error) { s.release <- err }

// Unfenced reports whether any file was closed during a Sync of it.
func (s *SyncFS) Unfenced() bool { return s.unfenced.Load() }

func (s *SyncFS) wrap(f vfs.File, err error) (vfs.File, error) {
	if err != nil {
		return nil, err
	}
	return &syncFile{File: f, fs: s}, nil
}

// Create implements vfs.FS.
func (s *SyncFS) Create(name string) (vfs.File, error) { return s.wrap(s.FS.Create(name)) }

// Append implements vfs.FS.
func (s *SyncFS) Append(name string) (vfs.File, error) { return s.wrap(s.FS.Append(name)) }

type syncFile struct {
	vfs.File
	fs      *SyncFS
	syncing atomic.Int32
}

func (f *syncFile) Sync() error {
	f.syncing.Add(1)
	defer f.syncing.Add(-1)
	if f.fs.hold.CompareAndSwap(true, false) {
		f.fs.entered <- struct{}{}
		if err := <-f.fs.release; err != nil {
			return err
		}
	}
	err := f.File.Sync()
	time.Sleep(f.fs.delay)
	return err
}

func (f *syncFile) Close() error {
	if f.syncing.Load() != 0 {
		f.fs.unfenced.Store(true)
	}
	return f.File.Close()
}
