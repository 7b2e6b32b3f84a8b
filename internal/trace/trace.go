// Package trace records the native I/O calls a storage backend served,
// with their simulated completion times and costs.  The paper's
// predictor reasons about "the number of 'native' I/O calls … and the
// data size of each 'native' I/O unit"; the trace makes those exact
// quantities observable, which the tests use to verify that each
// run-time optimization issues the call pattern eq. (2) assumes, and
// which `cmd/astro3d -trace` exposes for users.
package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Op labels one traced operation type.
type Op string

// Operation labels recorded by the backends.
const (
	OpConnect Op = "connect"
	OpOpen    Op = "open"
	OpRead    Op = "read"
	OpWrite   Op = "write"
	OpClose   Op = "close"
	OpMount   Op = "mount"
)

// Span labels recorded by the staging engine (package stage), so cache
// traffic is attributable in the same trace as the native calls it
// causes.  Backend names the *home* resource the copy moves data for;
// Path is the home-tier path.
const (
	OpStageIn   Op = "stagein"   // foreground copy into the fast-tier cache
	OpPrefetch  Op = "prefetch"  // background copy into the cache
	OpWriteBack Op = "writeback" // dirty cache copy drained to its home tier
)

// Journal labels recorded by the write-ahead log (package wal) that
// guards broker-durable meta-data.  Backend is "journal"; Path is the
// journal directory.  Cost carries wall time (the journal lives outside
// the simulated clock domain), Bytes the journal bytes processed.
const (
	OpWALReplay     Op = "walreplay"     // recovery replayed the journal on open
	OpWALCheckpoint Op = "walcheckpoint" // snapshot+truncate compaction completed
)

// Lifecycle span labels recorded by the HSM engine (package hsm).
// Backend names the disk pool the move concerns; Path is the pool-tier
// path; Bytes the instance size; Cost the span's virtual duration on
// the engine's clock.
const (
	OpMigrate Op = "migrate" // cold disk copy written to tape (disk copy retained: dual)
	OpRecall  Op = "recall"  // tape-resident instance staged back for a read
	OpGC      Op = "gc"      // watermark GC purged a dual disk copy
	OpRepack  Op = "repack"  // fragmented cartridges compacted via tape.Reclaim
)

// Queue-decision labels recorded by the multi-tenant scheduler
// (package qos).  Proc carries the tenant; Cost carries the decision's
// latency dimension (wall wait for grants, the honor-after hint for
// rejections), not device time.
const (
	OpQueueGrant  Op = "qgrant"  // request left the queue and started
	OpQueueReject Op = "qreject" // admission control shed the request
	OpQueueBatch  Op = "qbatch"  // a tape batch was formed (Path names the cartridge)
)

// Event is one native call.
type Event struct {
	// At is the simulated completion time on the calling process clock.
	At time.Duration
	// Proc names the calling process.
	Proc string
	// Backend names the storage resource instance.
	Backend string
	// Op is the operation type.
	Op Op
	// Path is the file acted on (empty for connection events).
	Path string
	// Bytes moved (reads/writes only).
	Bytes int64
	// Cost is the simulated duration charged for the call.
	Cost time.Duration
}

// Recorder collects events.  A nil *Recorder is valid and records
// nothing, so backends can hold one unconditionally.
type Recorder struct {
	mu      sync.Mutex
	events  []Event
	limit   int
	metrics *Metrics
}

// New returns a recorder; limit > 0 caps the number of retained events
// (oldest dropped), limit <= 0 retains everything.
func New(limit int) *Recorder { return &Recorder{limit: limit} }

// SetMetrics attaches a metrics aggregation: every subsequent Record
// folds the event into m as well.  The fold survives Reset and the
// retention limit, so the aggregates cover the whole run even when only
// a window of raw events is retained.  nil detaches.
func (r *Recorder) SetMetrics(m *Metrics) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.metrics = m
	r.mu.Unlock()
}

// Metrics returns the attached metrics aggregation (nil when none).
func (r *Recorder) Metrics() *Metrics {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.metrics
}

// Record appends one event.  Safe for concurrent use; no-op on nil.
func (r *Recorder) Record(e Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.events = append(r.events, e)
	if r.limit > 0 && len(r.events) > r.limit {
		r.events = r.events[len(r.events)-r.limit:]
	}
	m := r.metrics
	r.mu.Unlock()
	m.Observe(e)
}

// Events returns a copy of the recorded events in arrival order.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.events...)
}

// Len returns the number of retained events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

// Reset discards all events.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = nil
}

// Count returns the number of events matching backend and op (empty
// strings match everything).  It scans under the lock without copying
// the retained slice, so calling it in a loop stays allocation-free.
func (r *Recorder) Count(backend string, op Op) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for i := range r.events {
		e := &r.events[i]
		if (backend == "" || e.Backend == backend) && (op == "" || e.Op == op) {
			n++
		}
	}
	return n
}

// line is one row of a per-(backend, op) summary.
type line struct {
	Backend string
	Op      Op
	Calls   int
	Bytes   int64
	Cost    time.Duration
}

// summary aggregates events per (backend, op), sorted.  The fold runs
// over the retained slice under the lock — no per-call copy of the
// whole event log.
func (r *Recorder) summary() []line {
	if r == nil {
		return nil
	}
	agg := make(map[string]*line)
	r.mu.Lock()
	for i := range r.events {
		e := &r.events[i]
		key := e.Backend + "\x00" + string(e.Op)
		l, ok := agg[key]
		if !ok {
			l = &line{Backend: e.Backend, Op: e.Op}
			agg[key] = l
		}
		l.Calls++
		l.Bytes += e.Bytes
		l.Cost += e.Cost
	}
	r.mu.Unlock()
	out := make([]line, 0, len(agg))
	for _, l := range agg {
		out = append(out, *l)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Backend != out[j].Backend {
			return out[i].Backend < out[j].Backend
		}
		return out[i].Op < out[j].Op
	})
	return out
}

// SummaryString renders the summary as a table.
func (r *Recorder) SummaryString() string {
	s := fmt.Sprintf("%-16s %-10s %8s %14s %12s\n", "backend", "op", "calls", "bytes", "cost(s)")
	for _, l := range r.summary() {
		s += fmt.Sprintf("%-16s %-10s %8d %14d %12.3f\n", l.Backend, l.Op, l.Calls, l.Bytes, l.Cost.Seconds())
	}
	return s
}

// csvHeader is the column layout of WriteCSV.
var csvHeader = []string{"at_s", "proc", "backend", "op", "path", "bytes", "cost_s"}

// WriteCSV emits the raw events as CSV (header + one row per event).
// Fields are RFC 4180 quoted, so commas, quotes and newlines in paths
// or process names survive a round trip through a CSV reader.
func (r *Recorder) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return fmt.Errorf("trace csv: %w", err)
	}
	r.mu.Lock()
	for i := range r.events {
		e := &r.events[i]
		rec := []string{
			strconv.FormatFloat(e.At.Seconds(), 'f', 6, 64),
			e.Proc,
			e.Backend,
			string(e.Op),
			e.Path,
			strconv.FormatInt(e.Bytes, 10),
			strconv.FormatFloat(e.Cost.Seconds(), 'f', 6, 64),
		}
		if err := cw.Write(rec); err != nil {
			r.mu.Unlock()
			return fmt.Errorf("trace csv: %w", err)
		}
	}
	r.mu.Unlock()
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("trace csv: %w", err)
	}
	return nil
}
