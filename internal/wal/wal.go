// Package wal is the write-ahead journal beneath the broker's durable
// state.  The paper's architecture trusts a "small database" with every
// placement, dataset and performance row; this package makes that trust
// survivable: each mutation is appended as a length-prefixed,
// checksummed record and fsynced before the caller acknowledges, so a
// crash at any instant replays to exactly the acknowledged history.
//
// Layout of a journal directory:
//
//	seg-00000001.wal   segment: 16-byte header, then records
//	seg-00000002.wal   (rotated when a segment passes SegmentBytes)
//	snap-00000002.db   snapshot covering segments 1..2 (compaction)
//
// File formats:
//
//	segment header  magic "MSRAWAL1" | u64 LE seq
//	record frame    u32 LE payload len | u32 LE CRC32C(type‖payload) |
//	                u8 type | payload
//	snapshot file   magic "MSRASNP1" | u64 LE seq | u32 LE payload len |
//	                u32 LE CRC32C(payload) | payload
//
// Durability discipline (every barrier is load-bearing):
//
//	append  = write frame under the append lock; not durable yet
//	sync    = group commit.  Every record appended before the call is
//	          durable when it returns.  The first caller leads: it notes
//	          how far the log has been appended, releases the append
//	          lock and fsyncs.  Callers that arrive meanwhile wait, and
//	          one of them leads the single next flush, which covers them
//	          all.  Append never waits on that fsync.  A lone caller
//	          flushes on its own goroutine: no hand-off, no allocation.
//	rotate  = wait out the in-flight flush, sync old segment, create
//	          new, write header, sync file, sync directory (a dirent is
//	          volatile until its dir is)
//	compact = rotate; write snapshot to .tmp; sync; rename; sync dir;
//	          then (and only then) remove covered segments; sync dir
//	close   = wait out the in-flight flush, sync, close
//
// The first failed write or flush poisons the log: a short write leaves
// a torn frame that later appends would bury mid-segment, where
// recovery's torn-tail rule would truncate acknowledged records away
// with it, and a failed fsync leaves the page cache in a state POSIX
// does not define.  So every later Append, Sync and Compact fails with
// that first error until the journal is reopened, and reopening
// recovers exactly the records whose Sync returned nil (plus, possibly,
// unacknowledged ones behind them).
//
// Recovery tolerates exactly what a crash can produce: a torn tail in
// the final segment (dropped and truncated away) and leftover files a
// compaction didn't finish removing.  A checksum failure anywhere else
// is ErrCorrupt — acknowledged history is never silently dropped.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"path"
	"sort"
	"sync"
	"time"

	"repro/internal/trace"
	"repro/internal/vfs"
)

// ErrCorrupt reports journal damage that recovery must not paper over:
// a bad record outside the final segment's tail, a missing segment in
// the middle of the sequence, or an unreadable snapshot with no intact
// fallback.
var ErrCorrupt = errors.New("wal: corrupt journal")

var (
	segMagic  = [8]byte{'M', 'S', 'R', 'A', 'W', 'A', 'L', '1'}
	snapMagic = [8]byte{'M', 'S', 'R', 'A', 'S', 'N', 'P', '1'}
	crcTable  = crc32.MakeTable(crc32.Castagnoli)
)

const (
	segHeaderLen  = 16 // magic + seq
	recHeaderLen  = 9  // len + crc + type
	snapHeaderLen = 24 // magic + seq + len + crc

	// DefaultSegmentBytes rotates segments at 1 MiB.
	DefaultSegmentBytes = 1 << 20
	// DefaultMaxRecordBytes caps a record's declared payload during
	// replay, bounding allocation from hostile or torn length prefixes.
	DefaultMaxRecordBytes = 16 << 20
)

// Options configures Open.
type Options struct {
	// FS is the filesystem seam (vfs.OS{} when nil; tests inject
	// faultfs).
	FS vfs.FS
	// Dir is the journal directory (required).
	Dir string
	// SegmentBytes rotates the active segment once it exceeds this
	// size (DefaultSegmentBytes when zero).
	SegmentBytes int64
	// MaxRecordBytes bounds replay-time record allocation
	// (DefaultMaxRecordBytes when zero).
	MaxRecordBytes int
	// Trace, when set, records one span per replay and checkpoint so
	// journal activity shows up next to native I/O.
	Trace *trace.Recorder
}

func (o *Options) defaults() {
	if o.FS == nil {
		o.FS = vfs.OS{}
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	if o.MaxRecordBytes <= 0 {
		o.MaxRecordBytes = DefaultMaxRecordBytes
	}
}

// Record is one journaled mutation.
type Record struct {
	Type byte
	Data []byte
}

// Recovery is what Open found: the newest intact snapshot (nil when
// none) and every intact record appended after it, in order.
type Recovery struct {
	Snapshot []byte
	Records  []Record
}

// Stats is a point-in-time snapshot of journal activity, the source of
// webui's msra_wal_* metric families.
type Stats struct {
	Appends     uint64 // records appended this process
	AppendBytes int64  // frame bytes appended
	Syncs       uint64 // fsync barriers issued on segment files
	Rotations   uint64
	Compactions uint64

	Segments    int    // live segment files
	ActiveSeq   uint64 // segment currently appended to
	SnapshotSeq uint64 // last segment covered by the snapshot (0 = none)

	ReplayRecords  int           // records replayed by Open
	ReplayBytes    int64         // journal bytes scanned by Open
	ReplayDuration time.Duration // wall time Open spent replaying
	TornTailBytes  int64         // bytes dropped from the final segment's torn tail

	LastCheckpoint time.Time // wall time of the last Compact (zero = none)
}

// Log is an open journal.  Append/Sync/Compact are safe for concurrent
// use.  A caller whose apply order must match journal order serializes
// its Appends under its own lock and releases that lock before Sync,
// so that concurrent callers share flushes (see metadb's commit
// pipeline).
type Log struct {
	opts Options

	mu      sync.Mutex // the append lock; never held across the group-commit fsync
	flushed sync.Cond  // on mu: a flush ended
	f       vfs.File   // active segment
	seq     uint64     // active segment's sequence number
	size    int64      // active segment's size
	segs    int        // live segment count
	st      Stats
	closed  bool
	scratch []byte // frame assembly buffer, reused across appends

	// Group commit positions count records (st.Appends is the append
	// position).  durable trails it by what no flush has covered yet.
	durable  uint64
	flushing bool  // a leader is inside fsync with mu released
	err      error // first write or flush failure; sticky until reopen
}

// Open opens (creating if needed) the journal in opts.Dir, replays it,
// and returns the log positioned for appending plus everything the
// replay recovered.  A torn tail in the final segment is truncated
// away; any other damage returns ErrCorrupt wrapped with detail.
func Open(opts Options) (*Log, Recovery, error) {
	opts.defaults()
	if opts.Dir == "" {
		return nil, Recovery{}, fmt.Errorf("wal: Options.Dir is required")
	}
	start := time.Now()
	fsys := opts.FS
	if err := fsys.MkdirAll(opts.Dir); err != nil {
		return nil, Recovery{}, fmt.Errorf("wal open: %w", err)
	}
	names, err := fsys.List(opts.Dir)
	if err != nil {
		return nil, Recovery{}, fmt.Errorf("wal open: %w", err)
	}
	snapSeqs, segSeqs := classify(names)

	l := &Log{opts: opts}
	l.flushed.L = &l.mu
	var rec Recovery

	// Newest intact snapshot wins.  An unreadable newer snapshot is
	// only tolerable while the segments it would cover still exist —
	// classify the fallback before deleting anything.
	snapSeq := uint64(0)
	for i := len(snapSeqs) - 1; i >= 0; i-- {
		data, seq, err := readSnapshot(fsys, opts.Dir, snapSeqs[i], opts.MaxRecordBytes)
		if err == nil {
			rec.Snapshot = data
			snapSeq = seq
			break
		}
	}

	// Live segments are those after the chosen snapshot; they must be
	// contiguous or acknowledged records are missing.
	var live []uint64
	for _, s := range segSeqs {
		if s > snapSeq {
			live = append(live, s)
		}
	}
	for i, s := range live {
		if want := snapSeq + 1 + uint64(i); s != want {
			return nil, Recovery{}, fmt.Errorf("%w: segment seq %d missing (found %d)", ErrCorrupt, want, s)
		}
	}

	// Replay.
	for i, seq := range live {
		final := i == len(live)-1
		data, err := vfs.ReadFile(fsys, segName(opts.Dir, seq))
		if err != nil {
			return nil, Recovery{}, fmt.Errorf("wal open: %w", err)
		}
		l.st.ReplayBytes += int64(len(data))
		validLen, recs, perr := parseSegment(data, seq, opts.MaxRecordBytes)
		if perr != nil && !final {
			return nil, Recovery{}, fmt.Errorf("%w: segment %d: %v", ErrCorrupt, seq, perr)
		}
		rec.Records = append(rec.Records, recs...)
		l.st.ReplayRecords += len(recs)
		if final {
			l.st.TornTailBytes = int64(len(data)) - validLen
			// Reopen the final segment for appending, truncating the
			// torn tail (or rebuilding a torn header) so the damage
			// cannot masquerade as mid-journal corruption later.
			f, err := fsys.Append(segName(opts.Dir, seq))
			if err != nil {
				return nil, Recovery{}, fmt.Errorf("wal open: %w", err)
			}
			if validLen < int64(len(data)) {
				if err := f.Truncate(validLen); err != nil {
					f.Close()
					return nil, Recovery{}, fmt.Errorf("wal open: %w", err)
				}
			}
			if validLen < segHeaderLen {
				if err := f.Truncate(0); err == nil {
					_, err = f.Write(segHeader(seq))
				}
				if err != nil {
					f.Close()
					return nil, Recovery{}, fmt.Errorf("wal open: %w", err)
				}
				validLen = segHeaderLen
			}
			if err := f.Sync(); err != nil {
				f.Close()
				return nil, Recovery{}, fmt.Errorf("wal open: %w", err)
			}
			l.st.Syncs++
			l.f, l.seq, l.size = f, seq, validLen
		}
	}

	// Fresh journal (or everything compacted away): start the next
	// segment.
	if l.f == nil {
		if err := l.newSegmentLocked(snapSeq + 1); err != nil {
			return nil, Recovery{}, err
		}
		live = append(live, snapSeq+1)
	}

	// Remove what a finished compaction covers but an interrupted one
	// may have left behind: segments at or below the snapshot and
	// older snapshots.
	cleaned := false
	for _, s := range segSeqs {
		if s <= snapSeq {
			_ = fsys.Remove(segName(opts.Dir, s))
			cleaned = true
		}
	}
	for _, s := range snapSeqs {
		if s < snapSeq {
			_ = fsys.Remove(snapName(opts.Dir, s))
			cleaned = true
		}
	}
	if cleaned {
		if err := fsys.SyncDir(opts.Dir); err != nil {
			return nil, Recovery{}, fmt.Errorf("wal open: %w", err)
		}
	}

	l.segs = len(live)
	l.st.Segments = l.segs
	l.st.ActiveSeq = l.seq
	l.st.SnapshotSeq = snapSeq
	l.st.ReplayDuration = time.Since(start)
	if opts.Trace != nil {
		opts.Trace.Record(trace.Event{
			Proc: "wal", Backend: "journal", Op: trace.OpWALReplay,
			Path: opts.Dir, Bytes: l.st.ReplayBytes, Cost: l.st.ReplayDuration,
		})
	}
	return l, rec, nil
}

// usableLocked reports why the log cannot take op: closed, or poisoned
// by an earlier write or flush failure.
func (l *Log) usableLocked(op string) error {
	if l.closed {
		return fmt.Errorf("wal %s: log closed", op)
	}
	if l.err != nil {
		return fmt.Errorf("wal %s: log failed earlier: %w", op, l.err)
	}
	return nil
}

// failLocked poisons the log with its first failure and returns err.
func (l *Log) failLocked(err error) error {
	if l.err == nil {
		l.err = err
	}
	return err
}

// fenceLocked waits out the in-flight group-commit flush, so that the
// caller may sync, close or replace the active segment's handle.  It
// releases mu while it waits: re-check closed and err afterwards.
func (l *Log) fenceLocked() {
	for l.flushing {
		l.flushed.Wait()
	}
}

// Append writes one record frame to the active segment, rotating
// first if the segment is full.  The record is NOT durable until Sync
// returns; callers must not acknowledge the mutation before then.
// Append does not wait for a flush in progress unless it must rotate.
func (l *Log) Append(typ byte, data []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usableLocked("append"); err != nil {
		return err
	}
	if l.size >= l.opts.SegmentBytes {
		l.fenceLocked()
		// If that waited, the log may meanwhile have been closed,
		// poisoned, or rotated by another appender.
		if err := l.usableLocked("append"); err != nil {
			return err
		}
		if l.size >= l.opts.SegmentBytes {
			if err := l.rotateLocked(); err != nil {
				return err
			}
		}
	}
	frame := appendFrame(l.scratch[:0], typ, data)
	l.scratch = frame[:0]
	if _, err := l.f.Write(frame); err != nil {
		return l.failLocked(fmt.Errorf("wal append: %w", err))
	}
	l.size += int64(len(frame))
	l.st.Appends++
	l.st.AppendBytes += int64(len(frame))
	return nil
}

// Sync is the durability barrier: when it returns nil, every record
// appended before the call is crash-safe.  Concurrent callers share
// flushes (group commit): one leads with the append lock released, the
// rest wait and are acknowledged by that flush or the single next one.
// A failed flush fails every caller it would have covered and poisons
// the log; a caller already waiting when the log fails or closes is
// still told the truth about its own records.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usableLocked("sync"); err != nil {
		return err
	}
	want := l.st.Appends
	for l.durable < want {
		if err := l.usableLocked("sync"); err != nil {
			return err
		}
		if l.flushing {
			l.flushed.Wait()
			continue
		}
		// Lead.  The flush covers what has been appended by now, which
		// includes every waiter's records; what is appended while it
		// runs waits for the next one.
		f, upto := l.f, l.st.Appends
		l.flushing = true
		l.mu.Unlock()
		err := f.Sync()
		l.mu.Lock()
		l.flushing = false
		if err != nil {
			l.failLocked(fmt.Errorf("wal sync: %w", err))
		} else {
			l.st.Syncs++
			l.durable = upto
		}
		l.flushed.Broadcast()
	}
	return nil
}

// Compact writes snapshot as the new recovery baseline and removes the
// segments it covers.  The caller must guarantee snapshot reflects
// every record appended so far (hold your state lock across the
// marshal and this call).  Crash-safe at every step: recovery sees
// either the old snapshot plus the full log, or the new snapshot.
func (l *Log) Compact(snapshot []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.fenceLocked()
	if err := l.usableLocked("compact"); err != nil {
		return err
	}
	fsys := l.opts.FS
	covered := l.seq
	oldest := covered - uint64(l.segs) + 1
	// New appends go to a fresh segment beyond the snapshot's reach.
	if err := l.rotateLocked(); err != nil {
		return err
	}

	buf := make([]byte, 0, snapHeaderLen+len(snapshot))
	buf = append(buf, snapMagic[:]...)
	buf = binary.LittleEndian.AppendUint64(buf, covered)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(snapshot)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(snapshot, crcTable))
	buf = append(buf, snapshot...)
	if err := vfs.WriteAtomic(fsys, snapName(l.opts.Dir, covered), buf); err != nil {
		return fmt.Errorf("wal compact: %w", err)
	}

	// Only now is the old history redundant.
	for s := oldest; s <= covered; s++ {
		if err := fsys.Remove(segName(l.opts.Dir, s)); err != nil {
			return fmt.Errorf("wal compact: %w", err)
		}
	}
	if l.st.SnapshotSeq > 0 {
		_ = fsys.Remove(snapName(l.opts.Dir, l.st.SnapshotSeq))
	}
	if err := fsys.SyncDir(l.opts.Dir); err != nil {
		return fmt.Errorf("wal compact: %w", err)
	}
	l.segs = 1
	l.st.Segments = 1
	l.st.SnapshotSeq = covered
	l.st.Compactions++
	l.st.LastCheckpoint = time.Now()
	if l.opts.Trace != nil {
		l.opts.Trace.Record(trace.Event{
			Proc: "wal", Backend: "journal", Op: trace.OpWALCheckpoint,
			Path: l.opts.Dir, Bytes: int64(len(snapshot)),
		})
	}
	return nil
}

// Close waits out the in-flight flush, then syncs and closes the active
// segment.  A poisoned log is closed without the final sync and
// reports the failure that poisoned it.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.fenceLocked()
	if l.closed {
		return nil
	}
	l.closed = true
	if l.err != nil {
		l.f.Close()
		return fmt.Errorf("wal close: log failed earlier: %w", l.err)
	}
	if err := l.f.Sync(); err != nil {
		l.f.Close()
		return l.failLocked(fmt.Errorf("wal close: %w", err))
	}
	l.st.Syncs++
	l.durable = l.st.Appends
	return l.f.Close()
}

// Stats snapshots the journal counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := l.st
	st.Segments = l.segs
	st.ActiveSeq = l.seq
	return st
}

// rotateLocked finishes the active segment and starts the next one.
// No group-commit flush may be in flight (fenceLocked): the handle it
// syncs is closed here.  A failure poisons the log, which may be left
// with no usable segment.
func (l *Log) rotateLocked() error {
	// Records appended but not yet synced must not lose their barrier
	// ordering when the file handle changes: sync the old segment
	// before abandoning it.
	if err := l.f.Sync(); err != nil {
		return l.failLocked(fmt.Errorf("wal rotate: %w", err))
	}
	l.st.Syncs++
	l.durable = l.st.Appends
	if err := l.f.Close(); err != nil {
		return l.failLocked(fmt.Errorf("wal rotate: %w", err))
	}
	if err := l.newSegmentLocked(l.seq + 1); err != nil {
		return l.failLocked(err)
	}
	l.segs++
	l.st.Rotations++
	return nil
}

// newSegmentLocked creates segment seq with a durable header and dirent.
func (l *Log) newSegmentLocked(seq uint64) error {
	fsys := l.opts.FS
	f, err := fsys.Create(segName(l.opts.Dir, seq))
	if err != nil {
		return fmt.Errorf("wal segment %d: %w", seq, err)
	}
	if _, err := f.Write(segHeader(seq)); err != nil {
		f.Close()
		return fmt.Errorf("wal segment %d: %w", seq, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal segment %d: %w", seq, err)
	}
	l.st.Syncs++
	// The dirent barrier: without it a crash can forget the file whose
	// contents were just fsynced.
	if err := fsys.SyncDir(l.opts.Dir); err != nil {
		f.Close()
		return fmt.Errorf("wal segment %d: %w", seq, err)
	}
	l.f, l.seq, l.size = f, seq, segHeaderLen
	return nil
}

// ------------------------------------------------------------------
// Encoding.

func segName(dir string, seq uint64) string {
	return path.Join(dir, fmt.Sprintf("seg-%08d.wal", seq))
}

func snapName(dir string, seq uint64) string {
	return path.Join(dir, fmt.Sprintf("snap-%08d.db", seq))
}

func segHeader(seq uint64) []byte {
	h := make([]byte, 0, segHeaderLen)
	h = append(h, segMagic[:]...)
	return binary.LittleEndian.AppendUint64(h, seq)
}

// frameCRC is the record checksum, CRC32C over type‖payload.  The type
// byte is folded in by one table step: passing it to the hash as a
// one-byte slice would cost a heap allocation per record, because the
// slice escapes into the hash's assembly.
func frameCRC(typ byte, data []byte) uint32 {
	ofType := ^(crcTable[0xff^typ] ^ 0x00ffffff) // = crc32.Checksum([]byte{typ}, crcTable)
	return crc32.Update(ofType, crcTable, data)
}

// appendFrame encodes one record frame onto buf.
func appendFrame(buf []byte, typ byte, data []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(data)))
	crc := frameCRC(typ, data)
	buf = binary.LittleEndian.AppendUint32(buf, crc)
	buf = append(buf, typ)
	return append(buf, data...)
}

// classify splits directory names into snapshot and segment sequence
// lists, both ascending.  Unknown names (including .tmp leftovers) are
// ignored.
func classify(names []string) (snaps, segs []uint64) {
	for _, n := range names {
		var seq uint64
		if _, err := fmt.Sscanf(n, "seg-%d.wal", &seq); err == nil && n == fmt.Sprintf("seg-%08d.wal", seq) {
			segs = append(segs, seq)
			continue
		}
		if _, err := fmt.Sscanf(n, "snap-%d.db", &seq); err == nil && n == fmt.Sprintf("snap-%08d.db", seq) {
			snaps = append(snaps, seq)
		}
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] < snaps[j] })
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	return snaps, segs
}

// readSnapshot validates and returns one snapshot's payload.
func readSnapshot(fsys vfs.FS, dir string, seq uint64, maxBytes int) ([]byte, uint64, error) {
	data, err := vfs.ReadFile(fsys, snapName(dir, seq))
	if err != nil {
		return nil, 0, err
	}
	if len(data) < snapHeaderLen || [8]byte(data[:8]) != snapMagic {
		return nil, 0, fmt.Errorf("%w: snapshot %d: bad header", ErrCorrupt, seq)
	}
	gotSeq := binary.LittleEndian.Uint64(data[8:16])
	n := binary.LittleEndian.Uint32(data[16:20])
	crc := binary.LittleEndian.Uint32(data[20:24])
	if gotSeq != seq {
		return nil, 0, fmt.Errorf("%w: snapshot %d: names seq %d", ErrCorrupt, seq, gotSeq)
	}
	if int64(n) > int64(maxBytes) || int64(n) != int64(len(data)-snapHeaderLen) {
		return nil, 0, fmt.Errorf("%w: snapshot %d: bad length %d", ErrCorrupt, seq, n)
	}
	payload := data[snapHeaderLen:]
	if crc32.Checksum(payload, crcTable) != crc {
		return nil, 0, fmt.Errorf("%w: snapshot %d: checksum mismatch", ErrCorrupt, seq)
	}
	return payload, seq, nil
}

// parseSegment walks one segment's bytes.  It returns the records that
// parse cleanly, the byte offset up to which the segment is intact, and
// the error that stopped the walk (nil when the whole segment parsed).
// The caller decides whether the stop is a tolerable torn tail (final
// segment) or corruption (anywhere else).
func parseSegment(data []byte, wantSeq uint64, maxRec int) (validLen int64, recs []Record, err error) {
	if len(data) < segHeaderLen {
		return 0, nil, fmt.Errorf("short header (%d bytes)", len(data))
	}
	if [8]byte(data[:8]) != segMagic {
		return 0, nil, fmt.Errorf("bad magic")
	}
	if seq := binary.LittleEndian.Uint64(data[8:16]); seq != wantSeq {
		return 0, nil, fmt.Errorf("header names seq %d, want %d", seq, wantSeq)
	}
	off := int64(segHeaderLen)
	for int64(len(data))-off >= recHeaderLen {
		n := int64(binary.LittleEndian.Uint32(data[off : off+4]))
		crc := binary.LittleEndian.Uint32(data[off+4 : off+8])
		typ := data[off+8]
		if n > int64(maxRec) {
			return off, recs, fmt.Errorf("record at %d declares %d bytes (cap %d)", off, n, maxRec)
		}
		if off+recHeaderLen+n > int64(len(data)) {
			return off, recs, fmt.Errorf("record at %d truncated", off)
		}
		payload := data[off+recHeaderLen : off+recHeaderLen+n]
		if frameCRC(typ, payload) != crc {
			return off, recs, fmt.Errorf("record at %d checksum mismatch", off)
		}
		recs = append(recs, Record{Type: typ, Data: append([]byte(nil), payload...)})
		off += recHeaderLen + n
	}
	if off != int64(len(data)) {
		return off, recs, fmt.Errorf("trailing %d bytes at %d", int64(len(data))-off, off)
	}
	return off, recs, nil
}

// ------------------------------------------------------------------
// Offline verification (srbd -fsck).

// SegmentCheck is one segment's verification result.
type SegmentCheck struct {
	Seq     uint64
	Bytes   int64
	Records int
	Problem string // empty when intact ("torn tail ..." is a problem of the final segment only)
}

// CheckReport is what Check found, printable via String.
type CheckReport struct {
	Dir           string
	SnapshotSeq   uint64 // chosen recovery baseline (0 = none)
	SnapshotBytes int
	Segments      []SegmentCheck
	Records       int // replayable records after the snapshot
	TornTailBytes int64
	Problems      []string // conditions that would fail Open
}

// OK reports whether Open would succeed losing nothing but a torn tail.
func (r CheckReport) OK() bool { return len(r.Problems) == 0 }

// Check verifies a journal directory without opening it for writing:
// snapshot integrity, segment continuity, record checksums.  It is the
// read-only core of srbd's -fsck mode.
func Check(fsys vfs.FS, dir string) CheckReport {
	if fsys == nil {
		fsys = vfs.OS{}
	}
	r := CheckReport{Dir: dir}
	names, err := fsys.List(dir)
	if err != nil {
		r.Problems = append(r.Problems, err.Error())
		return r
	}
	snapSeqs, segSeqs := classify(names)
	for i := len(snapSeqs) - 1; i >= 0; i-- {
		data, seq, err := readSnapshot(fsys, dir, snapSeqs[i], DefaultMaxRecordBytes)
		if err != nil {
			r.Problems = append(r.Problems, fmt.Sprintf("snapshot %d: %v", snapSeqs[i], err))
			continue
		}
		r.SnapshotSeq, r.SnapshotBytes = seq, len(data)
		break
	}
	var live []uint64
	for _, s := range segSeqs {
		if s > r.SnapshotSeq {
			live = append(live, s)
		}
	}
	for i, s := range live {
		if want := r.SnapshotSeq + 1 + uint64(i); s != want {
			r.Problems = append(r.Problems, fmt.Sprintf("segment seq %d missing (found %d)", want, s))
			break
		}
	}
	for i, seq := range live {
		final := i == len(live)-1
		sc := SegmentCheck{Seq: seq}
		data, err := vfs.ReadFile(fsys, segName(dir, seq))
		if err != nil {
			sc.Problem = err.Error()
			r.Problems = append(r.Problems, fmt.Sprintf("segment %d: %v", seq, err))
			r.Segments = append(r.Segments, sc)
			continue
		}
		sc.Bytes = int64(len(data))
		validLen, recs, perr := parseSegment(data, seq, DefaultMaxRecordBytes)
		sc.Records = len(recs)
		r.Records += len(recs)
		if perr != nil {
			if final {
				sc.Problem = fmt.Sprintf("torn tail: %v", perr)
				r.TornTailBytes = int64(len(data)) - validLen
			} else {
				sc.Problem = perr.Error()
				r.Problems = append(r.Problems, fmt.Sprintf("segment %d: %v", seq, perr))
			}
		}
		r.Segments = append(r.Segments, sc)
	}
	return r
}

// String renders the report for the -fsck terminal output.
func (r CheckReport) String() string {
	var b []byte
	w := func(format string, args ...any) { b = fmt.Appendf(b, format, args...) }
	w("journal %s\n", r.Dir)
	if r.SnapshotSeq == 0 {
		w("  snapshot: none\n")
	} else {
		w("  snapshot: seq %d, %d bytes\n", r.SnapshotSeq, r.SnapshotBytes)
	}
	for _, s := range r.Segments {
		w("  segment %8d: %7d bytes, %4d records", s.Seq, s.Bytes, s.Records)
		if s.Problem != "" {
			w("  [%s]", s.Problem)
		}
		w("\n")
	}
	w("  replayable records after snapshot: %d\n", r.Records)
	if r.TornTailBytes > 0 {
		w("  torn tail: %d bytes would be dropped\n", r.TornTailBytes)
	}
	if r.OK() {
		w("  status: OK\n")
	} else {
		for _, p := range r.Problems {
			w("  PROBLEM: %s\n", p)
		}
		w("  status: CORRUPT\n")
	}
	return string(b)
}
