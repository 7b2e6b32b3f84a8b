package wal_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"testing"
	"time"

	"repro/internal/faultfs"
	"repro/internal/wal"
)

// Tests of the group-commit pipeline: run them under -race.

// durable reopens the image a crash would leave (un-fsynced bytes
// dropped) and returns its records.
func durable(t testing.TB, fsys *faultfs.FS) []wal.Record {
	l, rec, err := wal.Open(wal.Options{FS: fsys.Recover(faultfs.DropUnsynced, 1), Dir: dir})
	if err != nil {
		t.Errorf("reopen of the crash image: %v", err)
		return nil
	}
	l.Close()
	return rec.Records
}

func holds(recs []wal.Record, data []byte) bool {
	for _, r := range recs {
		if bytes.Equal(r.Data, data) {
			return true
		}
	}
	return false
}

// TestGroupCommitSharesFlushes: N appenders on a slow disk share
// flushes (fewer syncs than appends), and whenever Sync returns nil the
// caller's record survives a crash that drops every un-fsynced byte.
func TestGroupCommitSharesFlushes(t *testing.T) {
	const appenders, each = 8, 12
	mem := faultfs.New()
	fsys := faultfs.NewSyncFS(mem, time.Millisecond)
	l, _, err := wal.Open(wal.Options{FS: fsys, Dir: dir, SegmentBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	before := l.Stats()
	var wg sync.WaitGroup
	for a := 0; a < appenders; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				data := []byte(fmt.Sprintf("appender-%d-record-%03d", a, i))
				if err := l.Append(1, data); err != nil {
					t.Error(err)
					return
				}
				if err := l.Sync(); err != nil {
					t.Error(err)
					return
				}
				if !holds(durable(t, mem), data) {
					t.Errorf("Sync returned but %q would not survive a crash", data)
					return
				}
			}
		}(a)
	}
	wg.Wait()
	st := l.Stats()
	appends := st.Appends - before.Appends
	// Each rotation issues two syncs of its own.
	commits := st.Syncs - before.Syncs - 2*st.Rotations
	if appends != appenders*each || st.Rotations == 0 {
		t.Fatalf("stats %+v: want %d appends and rotation", st, appenders*each)
	}
	if commits >= appends {
		t.Fatalf("%d flushes for %d appends: nothing was grouped", commits, appends)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if fsys.Unfenced() {
		t.Fatal("a segment was closed while a flush of it was running")
	}
	if got := len(durable(t, mem)); got != appenders*each {
		t.Fatalf("recovered %d records, want %d", got, appenders*each)
	}
}

// TestLoneSyncDoesNotAllocate: with nobody to share with, Append+Sync
// runs on the caller's goroutine and allocates nothing.
func TestLoneSyncDoesNotAllocate(t *testing.T) {
	l, _, err := wal.Open(wal.Options{FS: faultfs.New(), Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	payload := make([]byte, 128)
	if err := l.Append(1, payload); err != nil { // sizes the frame buffer
		t.Fatal(err)
	}
	before := l.Stats().Syncs
	const runs = 200
	allocs := testing.AllocsPerRun(runs, func() {
		if err := l.Append(1, payload); err != nil {
			t.Fatal(err)
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Append+Sync allocates %.1f times per call", allocs)
	}
	if got := l.Stats().Syncs - before; got != runs+1 {
		t.Fatalf("%d flushes for %d lone syncs", got, runs+1)
	}
	if err := l.Sync(); err != nil || l.Stats().Syncs-before != runs+1 {
		t.Fatalf("Sync with nothing new to cover: err %v, or it flushed again", err)
	}
}

// inflight opens a log on a gated filesystem, appends one record and
// parks a Sync of it inside the fsync.
func inflight(t *testing.T) (mem *faultfs.FS, fsys *faultfs.SyncFS, l *wal.Log, leader chan error) {
	t.Helper()
	mem = faultfs.New()
	fsys = faultfs.NewSyncFS(mem, 0)
	var err error
	if l, _, err = wal.Open(wal.Options{FS: fsys, Dir: dir, SegmentBytes: 256}); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(1, record(0)); err != nil {
		t.Fatal(err)
	}
	fsys.Hold()
	leader = make(chan error, 1)
	go func() { leader <- l.Sync() }()
	fsys.AwaitHeld()
	return mem, fsys, l, leader
}

// TestRotationFencesInflightFlush: appends go on while a flush is in
// flight, and the one that must rotate waits for the flush to end
// before it closes the segment under it.
func TestRotationFencesInflightFlush(t *testing.T) {
	mem, fsys, l, leader := inflight(t)
	n := 1
	for ; 16+l.Stats().AppendBytes < 256; n++ { // 16: the segment header
		if err := l.Append(1, record(n)); err != nil { // must not wait for the parked flush
			t.Fatal(err)
		}
	}
	rotated := make(chan error, 1)
	go func() {
		if err := l.Append(1, record(n)); err != nil {
			rotated <- err
			return
		}
		rotated <- l.Sync()
	}()
	fsys.Release(nil)
	if err := <-leader; err != nil {
		t.Fatalf("leader: %v", err)
	}
	if err := <-rotated; err != nil {
		t.Fatalf("rotating append: %v", err)
	}
	if fsys.Unfenced() {
		t.Fatal("rotation closed the segment while its flush was running")
	}
	if st := l.Stats(); st.Rotations != 1 || st.Appends != uint64(n+1) {
		t.Fatalf("stats %+v: want one rotation and %d appends", st, n+1)
	}
	if got := len(durable(t, mem)); got != n+1 {
		t.Fatalf("%d records durable after the last Sync, want %d", got, n+1)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCloseFencesInflightFlush: Close waits for the flush in flight,
// and the waiter behind that flush is still acknowledged truthfully.
func TestCloseFencesInflightFlush(t *testing.T) {
	mem, fsys, l, leader := inflight(t)
	if err := l.Append(1, record(1)); err != nil {
		t.Fatal(err)
	}
	follower := make(chan error, 1)
	go func() { follower <- l.Sync() }()
	closed := make(chan error, 1)
	go func() { closed <- l.Close() }()
	fsys.Release(nil)
	if err := <-leader; err != nil {
		t.Fatalf("leader: %v", err)
	}
	if err := <-closed; err != nil {
		t.Fatalf("close: %v", err)
	}
	// The follower led its own flush before Close, or woke to find its
	// record covered by Close's final sync, or did not reach Sync until
	// the log was closed; whichever, Close has made its record durable.
	<-follower
	if fsys.Unfenced() {
		t.Fatal("Close closed the segment while its flush was running")
	}
	if got := len(durable(t, mem)); got != 2 {
		t.Fatalf("%d records durable after Close, want 2", got)
	}
	if err := l.Append(1, record(2)); err == nil {
		t.Fatal("append to a closed log succeeded")
	}
}

// TestFailedFlushFailsBatchAndPoisons: when the flush fails, the
// leader, the callers waiting behind it and everything afterwards
// fail, until the journal is reopened.
func TestFailedFlushFailsBatchAndPoisons(t *testing.T) {
	mem, fsys, l, leader := inflight(t)
	const followers = 3
	behind := make(chan error, followers)
	for i := 1; i <= followers; i++ {
		if err := l.Append(1, record(i)); err != nil {
			t.Fatal(err)
		}
		go func() { behind <- l.Sync() }()
	}
	eio := errors.New("EIO")
	fsys.Release(eio)
	if err := <-leader; !errors.Is(err, eio) {
		t.Fatalf("leader: %v, want the flush error", err)
	}
	for i := 0; i < followers; i++ {
		if err := <-behind; !errors.Is(err, eio) {
			t.Fatalf("follower: %v, want the flush error", err)
		}
	}
	if err := l.Append(1, record(9)); !errors.Is(err, eio) {
		t.Fatalf("append after a failed flush: %v", err)
	}
	if err := l.Sync(); !errors.Is(err, eio) {
		t.Fatalf("sync after a failed flush: %v", err)
	}
	if err := l.Compact([]byte("snap")); !errors.Is(err, eio) {
		t.Fatalf("compact after a failed flush: %v", err)
	}
	if err := l.Close(); !errors.Is(err, eio) {
		t.Fatalf("close after a failed flush: %v", err)
	}
	if got := len(durable(t, mem)); got != 0 {
		t.Fatalf("%d records durable, yet no Sync ever returned nil", got)
	}
}

// TestFailedWritePoisonsLog is the regression test for the torn frame
// buried mid-segment: after a short write the log used to carry on,
// acknowledge later records behind the torn one, and lose them all to
// the torn-tail rule on reopen.
func TestFailedWritePoisonsLog(t *testing.T) {
	mem := faultfs.New()
	l, _ := openLog(t, mem)
	const acked = 5
	for i := 0; i < acked; i++ {
		if err := l.Append(1, record(i)); err != nil {
			t.Fatal(err)
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	mem.SetFault(1)
	if err := l.Append(1, record(acked)); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("torn append: %v, want ErrInjected", err)
	}
	// The disk is healthy again; the log must refuse all the same.
	if err := l.Append(1, record(acked+1)); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("append behind a torn frame: %v, want the first failure", err)
	}
	if err := l.Sync(); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("sync of a failed log: %v, want the first failure", err)
	}
	if err := l.Compact(nil); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("compact of a failed log: %v", err)
	}
	if err := l.Close(); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("close of a failed log: %v", err)
	}
	l2, rec := openLog(t, mem)
	defer l2.Close()
	if len(rec.Records) != acked {
		t.Fatalf("reopen recovered %d records, want the %d acked", len(rec.Records), acked)
	}
	if l2.Stats().TornTailBytes == 0 {
		t.Fatal("the torn frame was not at the tail")
	}
	if err := l2.Append(1, record(acked)); err != nil {
		t.Fatalf("append after reopen: %v", err)
	}
}

// TestFrameChecksumIsCRC32COverTypeAndPayload pins the on-disk format:
// the type byte is folded into the checksum by hand (to spare an
// allocation), and must give what the hash gives for type‖payload.
func TestFrameChecksumIsCRC32COverTypeAndPayload(t *testing.T) {
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	for typ := 0; typ < 256; typ++ {
		for _, data := range [][]byte{nil, record(typ)} {
			frame := wal.EncodeRecord(byte(typ), data)
			want := crc32.Checksum(append([]byte{byte(typ)}, data...), castagnoli)
			if got := binary.LittleEndian.Uint32(frame[4:8]); got != want {
				t.Fatalf("type %d, %d payload bytes: frame carries checksum %08x, want %08x", typ, len(data), got, want)
			}
			if rec, err := wal.DecodeRecord(frame); err != nil || rec.Type != byte(typ) || !bytes.Equal(rec.Data, data) {
				t.Fatalf("type %d: round trip gave %+v, %v", typ, rec, err)
			}
		}
	}
}

// BenchmarkAppendSync is Append+Sync by 1 and by 8 goroutines on a disk
// whose flush takes a fixed millisecond.  syncs/op is the group-commit
// ratio: 1 for a lone caller, towards 1/8 when eight share each flush.
func BenchmarkAppendSync(b *testing.B) {
	for _, goroutines := range []int{1, 8} {
		b.Run(fmt.Sprintf("goroutines=%d", goroutines), func(b *testing.B) {
			l, _, err := wal.Open(wal.Options{FS: faultfs.NewSyncFS(faultfs.New(), time.Millisecond), Dir: dir})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			payload := make([]byte, 128)
			before := l.Stats().Syncs
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				n := b.N / goroutines
				if g < b.N%goroutines {
					n++
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < n; i++ {
						if err := l.Append(1, payload); err != nil {
							b.Error(err)
							return
						}
						if err := l.Sync(); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(float64(l.Stats().Syncs-before)/float64(b.N), "syncs/op")
		})
	}
}
