// The replicated log.  Entries reuse the journal's WAL record framing
// (internal/wal EncodeRecord: length, CRC32C, type, payload), so a
// follower verifies exactly the checksum a journal replay would.
// Verification is fail-closed: a replica offered an entry whose frame
// fails its CRC, or that conflicts with an entry it already holds at
// the same index and term, refuses the entry and faults rather than
// store suspect history.
package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"sync"

	"repro/internal/wal"
)

// ErrDiverged reports a replica whose log cannot accept an offered
// entry: the frame failed its CRC, conflicted with stored history, or
// left a gap.  The cluster responds by faulting the replica — it drops
// out of the quorum instead of applying suspect records.
var ErrDiverged = errors.New("cluster: replica log diverged")

// Entry is one replicated-log slot.
type Entry struct {
	Index uint64 // 1-based log position
	Term  uint64 // leadership term that proposed it
	Frame []byte // wal.EncodeRecord framing: len | crc32c | type | payload
}

// Log is one node's copy of the replicated log.
type Log struct {
	mu      sync.Mutex
	entries []Entry
	commit  uint64 // highest index known durable on a quorum
	applied uint64 // highest index applied to this node's state
}

// LastIndex returns the index of the newest stored entry (0 if none).
func (l *Log) LastIndex() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return uint64(len(l.entries))
}

// Commit returns the commit index.
func (l *Log) Commit() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.commit
}

// Applied returns the apply high-water mark.
func (l *Log) Applied() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.applied
}

// appendEntries offers a contiguous batch to the log.  Each frame is
// CRC-verified before anything is stored.  An entry matching stored
// history (same index, term, and bytes) is idempotently skipped; a
// stored entry from an older term is truncated away with its suffix; a
// same-term byte mismatch or an index gap is divergence and the whole
// batch is refused.  The log keeps the offered frames without copying
// them: the caller must not modify a frame after offering it.
func (l *Log) appendEntries(es []Entry) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, e := range es {
		if _, err := wal.DecodeRecord(e.Frame); err != nil {
			return fmt.Errorf("%w: entry %d: %v", ErrDiverged, e.Index, err)
		}
		last := uint64(len(l.entries))
		switch {
		case e.Index == 0 || e.Index > last+1:
			return fmt.Errorf("%w: entry %d leaves a gap (log ends at %d)", ErrDiverged, e.Index, last)
		case e.Index <= last:
			have := l.entries[e.Index-1]
			if have.Term == e.Term {
				if !bytes.Equal(have.Frame, e.Frame) {
					return fmt.Errorf("%w: entry %d rewritten within term %d", ErrDiverged, e.Index, e.Term)
				}
				continue // identical replay
			}
			if e.Index <= l.commit {
				return fmt.Errorf("%w: entry %d would truncate committed history", ErrDiverged, e.Index)
			}
			// A newer term supersedes an uncommitted suffix.
			l.entries = l.entries[:e.Index-1]
			fallthrough
		default:
			l.entries = append(l.entries, e) // the frame is shared, read-only from here on
		}
	}
	return nil
}

// truncateFrom drops every entry at index i and above (quorum-failure
// rollback: an unacknowledged batch must not survive anywhere).
func (l *Log) truncateFrom(i uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if i == 0 {
		i = 1
	}
	if i <= uint64(len(l.entries)) {
		l.entries = l.entries[:i-1]
	}
	if l.commit > uint64(len(l.entries)) {
		l.commit = uint64(len(l.entries))
	}
	if l.applied > l.commit {
		l.applied = l.commit
	}
}

// setCommit raises the commit index.
func (l *Log) setCommit(i uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if i > l.commit {
		l.commit = i
	}
}

// nextToApply returns the oldest committed-but-unapplied entry.
func (l *Log) nextToApply() (Entry, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.applied >= l.commit || l.applied >= uint64(len(l.entries)) {
		return Entry{}, false
	}
	return l.entries[l.applied], true
}

// markApplied records that entry i has been applied.
func (l *Log) markApplied(i uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if i > l.applied {
		l.applied = i
	}
}

// adopt replaces this log with a copy of src, marking everything
// applied (the rejoin path pairs it with a metadb snapshot adoption).
func (l *Log) adopt(src *Log) {
	src.mu.Lock()
	entries := make([]Entry, len(src.entries))
	for i, e := range src.entries {
		e.Frame = append([]byte(nil), e.Frame...)
		entries[i] = e
	}
	commit := src.commit
	src.mu.Unlock()
	l.mu.Lock()
	l.entries, l.commit, l.applied = entries, commit, commit
	l.mu.Unlock()
}
