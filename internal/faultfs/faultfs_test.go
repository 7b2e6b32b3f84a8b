package faultfs_test

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/faultfs"
	"repro/internal/vfs"
)

// write creates name with data through the vfs seam; sync and syncdir
// select which durability barriers are issued.
func write(t *testing.T, fsys *faultfs.FS, name string, data []byte, sync, syncdir bool) {
	t.Helper()
	f, err := fsys.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if sync {
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if syncdir {
		if err := fsys.SyncDir(""); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCrashFiresAtNthMutatingOp(t *testing.T) {
	fsys := faultfs.New()
	write(t, fsys, "a", []byte("one"), true, true)
	base := fsys.Ops()
	fsys.SetCrash(2) // create counts, write fires
	_, err := fsys.Create("b")
	if err != nil {
		t.Fatalf("first op crashed early: %v", err)
	}
	f2, err := fsys.Create("c")
	if !errors.Is(err, faultfs.ErrCrashed) {
		f2.Close()
		t.Fatalf("second op: %v, want ErrCrashed", err)
	}
	if !fsys.Crashed() {
		t.Fatal("Crashed() false after the armed op")
	}
	if got := fsys.Ops() - base; got != 2 {
		t.Fatalf("ops consumed %d, want 2", got)
	}
	// The process is dead: even reads fail now.
	if _, err := vfs.ReadFile(fsys, "a"); !errors.Is(err, faultfs.ErrCrashed) {
		t.Fatalf("read after crash: %v, want ErrCrashed", err)
	}
}

func TestDropUnsyncedKeepsOnlyBarriers(t *testing.T) {
	fsys := faultfs.New()
	write(t, fsys, "durable", []byte("synced+dirsynced"), true, true)
	write(t, fsys, "content-only", []byte("synced, dirent volatile"), true, false)
	write(t, fsys, "volatile", []byte("never synced"), false, false)
	fsys.SetCrash(1)
	_, _ = fsys.Create("boom")

	rec := fsys.Recover(faultfs.DropUnsynced, 1)
	data, err := vfs.ReadFile(rec, "durable")
	if err != nil || string(data) != "synced+dirsynced" {
		t.Fatalf("durable file: %q, %v", data, err)
	}
	// An fsynced file whose dirent was never dir-synced is forgotten.
	if _, err := vfs.ReadFile(rec, "content-only"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("content-only: %v, want ErrNotExist", err)
	}
	if _, err := vfs.ReadFile(rec, "volatile"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("volatile: %v, want ErrNotExist", err)
	}
	// The recovered machine is alive and writable.
	if rec.Crashed() {
		t.Fatal("recovered fs starts crashed")
	}
	write(t, rec, "afterlife", []byte("ok"), true, true)
}

func TestKeepUnsyncedKeepsEverything(t *testing.T) {
	fsys := faultfs.New()
	write(t, fsys, "volatile", []byte("never synced"), false, false)
	fsys.SetCrash(1)
	_, _ = fsys.Create("boom")

	rec := fsys.Recover(faultfs.KeepUnsynced, 1)
	data, err := vfs.ReadFile(rec, "volatile")
	if err != nil || string(data) != "never synced" {
		t.Fatalf("volatile file under keep-unsynced: %q, %v", data, err)
	}
}

func TestTornWritesCutSectorAligned(t *testing.T) {
	syncedLen := faultfs.SectorSize + 100
	synced := bytes.Repeat([]byte{0xAA}, syncedLen)
	tail := bytes.Repeat([]byte{0xBB}, 3*faultfs.SectorSize)

	// Over many seeds: the synced prefix always survives byte-for-byte,
	// the cut lands sector-aligned (or at EOF) within the unsynced tail,
	// and at least one seed actually tears.
	tore := false
	for seed := int64(1); seed <= 32; seed++ {
		fsys := faultfs.New()
		f, err := fsys.Create("file")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(synced); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := fsys.SyncDir(""); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(tail); err != nil {
			t.Fatal(err)
		}
		fsys.SetCrash(1)
		_, _ = fsys.Create("boom")

		rec := fsys.Recover(faultfs.TornWrites, seed)
		data, err := vfs.ReadFile(rec, "file")
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		full := len(synced) + len(tail)
		if len(data) < syncedLen || len(data) > full {
			t.Fatalf("seed %d: torn length %d outside [%d,%d]", seed, len(data), syncedLen, full)
		}
		// Valid cuts: EOF, the synced boundary, or a sector boundary.
		if len(data) != full && len(data) != syncedLen && len(data)%faultfs.SectorSize != 0 {
			t.Fatalf("seed %d: cut at %d not sector-aligned", seed, len(data))
		}
		if !bytes.Equal(data[:syncedLen], synced) {
			t.Fatalf("seed %d: synced prefix damaged", seed)
		}
		if len(data) < full {
			tore = true
		}
	}
	if !tore {
		t.Fatal("no seed tore the unsynced tail")
	}
}

func TestRenameDurability(t *testing.T) {
	fsys := faultfs.New()
	write(t, fsys, "name.tmp", []byte("v2"), true, true)
	write(t, fsys, "name", []byte("v1"), true, true)
	if err := fsys.Rename("name.tmp", "name"); err != nil {
		t.Fatal(err)
	}
	// Rename without the directory barrier: drop-unsynced recovery still
	// sees the old mapping.
	rec := fsys.Recover(faultfs.DropUnsynced, 1)
	if data, _ := vfs.ReadFile(rec, "name"); string(data) != "v1" {
		t.Fatalf("unsynced rename visible after crash: %q", data)
	}
	// With the barrier it is durable.
	if err := fsys.SyncDir(""); err != nil {
		t.Fatal(err)
	}
	rec = fsys.Recover(faultfs.DropUnsynced, 1)
	if data, _ := vfs.ReadFile(rec, "name"); string(data) != "v2" {
		t.Fatalf("dir-synced rename lost: %q", data)
	}
	if _, err := vfs.ReadFile(rec, "name.tmp"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("rename source survived: %v", err)
	}
}

func TestWriteAtomicOldOrNew(t *testing.T) {
	// WriteAtomic on a crashing fs must leave old bytes, new bytes, or
	// nothing — never a mixture — under every crash point and mode.
	for point := 1; point <= 12; point++ {
		for _, mode := range faultfs.Modes() {
			fsys := faultfs.New()
			if err := vfs.WriteAtomic(fsys, "cfg", []byte("old-contents")); err != nil {
				t.Fatal(err)
			}
			fsys.SetCrash(point)
			err := vfs.WriteAtomic(fsys, "cfg", []byte("NEW-CONTENTS"))
			rec := fsys.Recover(mode, int64(point))
			data, rerr := vfs.ReadFile(rec, "cfg")
			if rerr != nil {
				t.Fatalf("point %d mode %s: %v", point, mode, rerr)
			}
			got := string(data)
			if got != "old-contents" && got != "NEW-CONTENTS" {
				t.Fatalf("point %d mode %s: torn atomic write: %q", point, mode, got)
			}
			if err == nil && !fsys.Crashed() && got != "NEW-CONTENTS" {
				t.Fatalf("point %d mode %s: completed write lost: %q", point, mode, got)
			}
		}
	}
}

func TestStoreViewSharesNamespace(t *testing.T) {
	fsys := faultfs.New()
	st := fsys.Store()
	f, err := st.Open("raw", true, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("store-bytes"), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	// The store view and the vfs view are the same crashing namespace.
	data, err := vfs.ReadFile(fsys, "raw")
	if err != nil || string(data) != "store-bytes" {
		t.Fatalf("vfs view of store file: %q, %v", data, err)
	}
	// Store writes were never fsynced (the Store interface has no sync),
	// so a drop-unsynced crash forgets them.
	fsys.SetCrash(1)
	_, _ = fsys.Create("boom")
	rec := fsys.Recover(faultfs.DropUnsynced, 1)
	if _, err := vfs.ReadFile(rec, "raw"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("unsynced store file survived drop-unsynced: %v", err)
	}
	rec2 := fsys.Recover(faultfs.KeepUnsynced, 1)
	if data, _ := vfs.ReadFile(rec2, "raw"); string(data) != "store-bytes" {
		t.Fatalf("store file lost under keep-unsynced: %q", data)
	}
}

// TestTransientFaultTearsOneWriteThenHeals checks SetFault: one Write
// lands half its bytes and errors, one Sync makes nothing durable, and
// the filesystem carries on afterwards.
func TestTransientFaultTearsOneWriteThenHeals(t *testing.T) {
	fsys := faultfs.New()
	f, err := fsys.Create("a")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fsys.SetFault(1)
	if n, err := f.Write([]byte("abcdef")); !errors.Is(err, faultfs.ErrInjected) || n != 3 {
		t.Fatalf("faulted write: n=%d err=%v, want 3 bytes and ErrInjected", n, err)
	}
	if _, err := f.Write([]byte("XYZ")); err != nil {
		t.Fatalf("write after the fault: %v", err)
	}
	fsys.SetFault(1)
	if err := f.Sync(); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("faulted sync: %v, want ErrInjected", err)
	}
	if err := fsys.SyncDir(""); err != nil {
		t.Fatal(err)
	}
	if got, _ := vfs.ReadFile(fsys.Recover(faultfs.DropUnsynced, 1), "a"); len(got) != 0 {
		t.Fatalf("failed sync made %q durable", got)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("sync after the fault: %v", err)
	}
	if got, _ := vfs.ReadFile(fsys.Recover(faultfs.DropUnsynced, 1), "a"); !bytes.Equal(got, []byte("abcXYZ")) {
		t.Fatalf("recovered %q, want the torn write then the healthy one", got)
	}
	if fsys.Crashed() {
		t.Fatal("a transient fault crashed the filesystem")
	}
}
