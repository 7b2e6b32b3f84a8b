package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/benchmark/load"
	"repro/internal/storage"
	"repro/internal/vtime"
)

// runConfig is one invocation's settings, shared by every workload.
type runConfig struct {
	seed    int64
	seconds float64
	traced  bool
	clients int    // closed-loop clients of a throughput phase: nproc, at most 4
	dir     string // scratch directory on a real filesystem, owned by this run
	csvDir  string // where a traced run writes its span CSV
}

// setups is how many times a run sets the workload up; set-up time is
// the median.  A traced run reports no set-up time and sets up once.
func (c runConfig) setups() int {
	if c.traced {
		return 1
	}
	return 5
}

// tracer returns the span ring of a traced run, nil otherwise.
func (c runConfig) tracer() *tracer {
	if !c.traced {
		return nil
	}
	return newTracer()
}

// span returns a share of the timed length.
func (c runConfig) span(share float64) time.Duration {
	return time.Duration(share * c.seconds * float64(time.Second))
}

// Every op-driven workload splits --seconds the same way.  Untraced:
// a one-client latency phase (L) then an nproc-client throughput phase
// (T).  Traced: L with recording off (the overhead baseline), L with
// recording on, then T for the results only a loaded run can give.
const (
	shareL          = 0.4
	shareT          = 0.6
	shareTracedBase = 0.25
	shareTracedL    = 0.35
	shareTracedT    = 0.4
)

// latencyCapacity bounds the samples one L phase records (8 MiB).
const latencyCapacity = 1 << 21

// setupMedian sets a workload up n times, tearing every instance but
// the last down again, and returns the last one with the median
// set-up seconds.
func setupMedian[T any](n int, setup func(i int) (T, error), teardown func(T) error) (T, float64, error) {
	var env T
	secs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if i > 0 {
			if err := teardown(env); err != nil {
				return env, 0, fmt.Errorf("teardown %d: %w", i-1, err)
			}
		}
		start := time.Now()
		e, err := setup(i)
		if err != nil {
			return env, 0, fmt.Errorf("set-up %d: %w", i, err)
		}
		secs = append(secs, time.Since(start).Seconds())
		env = e
	}
	return env, median(secs), nil
}

// lt is the standard pair of timed phases of an op-driven workload.
type lt struct {
	base phase    // traced only: L with recording off
	l, t phase    // latency and throughput phases
	lat  *samples // L-phase latencies
}

// runLT drives the phases; tr is toggled around the traced L.  besideT,
// when non-nil, starts a companion that runs beside the T phase only
// and returns the function that stops it.
func runLT(cfg runConfig, tr *tracer, first []int, step stepFn, besideT func() (stop func())) lt {
	out := lt{lat: newSamples(latencyCapacity)}
	// Start every run from a collected heap, so what set-up left behind
	// does not decide when the first timed GC cycle falls.
	runtime.GC()
	shareOfL, shareOfT := shareL, shareT
	if cfg.traced {
		shareOfL, shareOfT = shareTracedL, shareTracedT
		out.base = runPhase(1, cfg.span(shareTracedBase), first, out.lat, step)
		out.lat.reset()
		tr.on.Store(true)
	}
	out.l = runPhase(1, cfg.span(shareOfL), first, out.lat, step)
	if cfg.traced {
		tr.on.Store(false)
	}
	stop := func() {}
	if besideT != nil {
		stop = besideT()
	}
	out.t = runPhase(cfg.clients, cfg.span(shareOfT), first, nil, step)
	stop()
	return out
}

// record writes what every op-driven workload reports from its phases:
// the end-to-end metrics, the runtime's share, and — traced — the
// tracing overhead.  tailQ is the tail percentile the L phase supports
// with at least ten samples beyond it.
func (r *result) record(m lt, tailQ float64, setupS float64) {
	r.count(m.base)
	r.count(m.l)
	r.count(m.t)
	n := int64(m.lat.n)
	r.setN("ops_per_s", m.t.opsPerSec(), int64(len(m.t.windows)))
	r.setN("p50_us", m.lat.quantileUS(0.5), n)
	r.setN("lat.tail_us", m.lat.quantileUS(tailQ), n)
	r.setN("proc.cpu_us_per_op", m.t.per(float64(m.t.use.cpu)/1e3), m.t.ok())
	// Heap traffic is counted in L: one client and nothing beside it, so
	// the count repeats where T's varies with what ran next to it.
	r.setN("allocs_per_op", m.l.per(float64(m.l.use.mallocs)), m.l.ok())
	r.setN("alloc_bytes_per_op", m.l.per(float64(m.l.use.bytes)), m.l.ok())
	r.set("setup_s", setupS)
	r.set("go.gc_cycles", float64(m.t.use.gcCycles))
	r.set("go.gc_pause_ms", float64(m.t.use.gcPause)/1e6)
	r.set("go.heap_mib", float64(m.t.use.heap)/(1<<20))
	r.notef("L: 1 client %.1fs, %d ops, tail = p%g; T: %d clients %.1fs, %d ops in %d windows of %.2fs",
		m.l.elapsed.Seconds(), m.l.ok(), tailQ*100, m.t.clients, m.t.elapsed.Seconds(), m.t.ok(), len(m.t.windows), m.t.window.Seconds())
	r.notef("T windows, ops/s: %s", fmtRates(m.t))
	if m.lat.dropped > 0 {
		r.notef("latency store full: %d L-phase samples not recorded", m.lat.dropped)
	}
	if m.base.elapsed > 0 {
		off, on := float64(m.base.ok())/m.base.elapsed.Seconds(), float64(m.l.ok())/m.l.elapsed.Seconds()
		r.set("trace.overhead_pct", 100*(off-on)/off)
		r.notef("one client: %.0f ops/s with recording off, %.0f ops/s with it on", off, on)
	}
}

// recordTrace nests the recorded spans, writes the CSV and reports the
// span-derived layer metrics.  It returns the summary for workload-
// specific shares.
func (r *result) recordTrace(cfg runConfig, tr *tracer) traceSummary {
	nodes := nest(tr.recorded())
	sum := summarize(nodes)
	r.set("trace.spans", float64(len(nodes)))
	r.set("trace.dropped", float64(tr.dropped.Load()))
	for _, layer := range []string{"srbnet", "qos", "device", "store", "metadb", "cluster"} {
		r.setN(layer+".self_us", sum.selfUSPerRoot(layer), sum.byLayer[layer].calls)
	}
	var selfSum int64
	for _, l := range sum.byLayer {
		selfSum += l.self
	}
	if sum.rootTotal > 0 {
		r.notef("trace: %d requests, %d spans; layer self times sum to %.1f%% of the root spans",
			sum.roots, len(nodes), 100*float64(selfSum)/float64(sum.rootTotal))
		for _, layer := range []string{"srbnet", "qos", "device", "store", "metadb", "cluster", "vfs"} {
			if l, ok := sum.byLayer[layer]; ok {
				r.notef("trace: %-8s self %5.1f%% of request time (%d spans)", layer, 100*float64(l.self)/float64(sum.rootTotal), l.calls)
			}
		}
	}
	path := filepath.Join(cfg.csvDir, fmt.Sprintf("%s-seed%d.csv", r.workload, cfg.seed))
	if err := writeSpanCSV(path, nodes); err != nil {
		r.problemf("span CSV: %v", err)
	} else {
		r.notef("trace: spans written to %s (first %d)", path, csvSpanLimit)
	}
	return sum
}

// ---- block clients: the 4 KiB read/write mix of wire-small, reused
// by cluster-meta's sharded phase ----

const (
	blockSize      = 4096
	filesPerClient = 64
	blocksPerFile  = 256
)

// blockClient is one closed-loop client of the block mix: its own
// connection, session, open files and (file, block, version) shadow.
type blockClient struct {
	id      int
	p       *vtime.Proc
	sess    storage.Session
	handles []storage.Handle
	ops     []load.BlockOp
	version [][]uint32
	buf     []byte
}

// newBlockClient connects, creates the client's files at full size and
// keeps them open.  names are the files' paths on the resource.
func newBlockClient(id int, be storage.Backend, sim *vtime.Sim, names []string) (*blockClient, error) {
	c := &blockClient{id: id, p: sim.NewProc(fmt.Sprintf("client%d", id)), buf: make([]byte, blockSize)}
	var err error
	if c.sess, err = be.Connect(c.p); err != nil {
		return nil, err
	}
	for _, name := range names {
		h, err := c.sess.Open(c.p, name, storage.ModeCreate)
		if err != nil {
			return nil, err
		}
		// Size the file so every block reads back (as zeros) before its
		// first write.
		if _, err := h.WriteAt(c.p, c.buf, (blocksPerFile-1)*blockSize); err != nil {
			return nil, err
		}
		c.handles = append(c.handles, h)
		c.version = append(c.version, make([]uint32, blocksPerFile))
	}
	return c, nil
}

// word is the 8-byte pattern a block holds at a version; 0 (all zero
// bytes) only for a block never written.
func (c *blockClient) word(file, block int, version uint32) uint64 {
	if version == 0 {
		return 0
	}
	x := uint64(c.id)<<56 ^ uint64(file)<<44 ^ uint64(block)<<32 ^ uint64(version)
	x *= 0x9E3779B97F4A7C15
	return x | 1
}

// fill writes w over the whole buffer by doubling copies.
func fill(buf []byte, w uint64) {
	binary.LittleEndian.PutUint64(buf, w)
	for n := 8; n < len(buf); n *= 2 {
		copy(buf[n:], buf[:n])
	}
}

// holds reports whether every 8-byte word of buf equals w.
func holds(buf []byte, w uint64) bool {
	return binary.LittleEndian.Uint64(buf) == w && bytes.Equal(buf[8:], buf[:len(buf)-8])
}

// run executes one op: a write bumps the block's version, a read must
// return the last version written.
func (c *blockClient) run(op load.BlockOp) bool {
	f, b := int(op.File), int(op.Block)
	off := int64(b) * blockSize
	if op.Write {
		v := c.version[f][b] + 1
		fill(c.buf, c.word(f, b, v))
		if n, err := c.handles[f].WriteAt(c.p, c.buf, off); err != nil || n != blockSize {
			return false
		}
		c.version[f][b] = v
		return true
	}
	n, err := c.handles[f].ReadAt(c.p, c.buf, off)
	return err == nil && n == blockSize && holds(c.buf, c.word(f, b, c.version[f][b]))
}

func (c *blockClient) step(i int) bool { return c.run(c.ops[i%len(c.ops)]) }

// warm runs ops outside any timed region and fails on the first that
// does not verify.
func (c *blockClient) warm(ops []load.BlockOp) error {
	for i, op := range ops {
		if !c.run(op) {
			return fmt.Errorf("client %d: warm-up op %d (%+v) failed", c.id, i, op)
		}
	}
	return nil
}

func (c *blockClient) close() error {
	for _, h := range c.handles {
		if err := h.Close(c.p); err != nil {
			return err
		}
	}
	return c.sess.Close(c.p)
}

// fmtRates lists a phase's per-window rates, so a run shows how steady
// the machine was while it measured.
func fmtRates(p phase) string {
	var b strings.Builder
	for _, n := range p.windows {
		fmt.Fprintf(&b, "%.0f ", float64(n)/p.window.Seconds())
	}
	return b.String()
}
