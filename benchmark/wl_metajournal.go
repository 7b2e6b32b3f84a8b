package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/benchmark/load"
	"repro/internal/faultfs"
	"repro/internal/metadb"
	"repro/internal/wal"
)

// meta-journal: metadb.OpenJournal on the real filesystem.  nproc
// writers issue the production mutators (PutLifecycle 70 %, PutDataset
// 20 %, AddSample 10 %) over 1 000 keys each while one paced reader
// runs beside them; the latency phase is one writer, no reader.
// op = one acknowledged (fsynced) mutation.

const (
	metaKeys      = 1000
	metaWarmOps   = 500 // set-up: warm-up mutations over all writers (each is one flush)
	metaTimedOps  = 1 << 16
	metaFaultOps  = 2000 // mutations of the faultfs durability leg
	readerBatch   = 64
	readerIdle    = 50 * time.Microsecond
	readerSamples = 1 << 20
)

// metaWriter is one closed-loop writer with the shadow of what the
// database acknowledged to it.
type metaWriter struct {
	pool, runID, resource string
	keys                  []string
	ops                   []load.MetaOp
	dims                  []int

	seq     int64   // version stamped into the next mutation
	lcVer   []int64 // last acked lifecycle version per key (0 = none)
	dsVer   []int64 // last acked dataset version per key
	samples int64   // acked AddSample calls
}

func newMetaWriter(g *load.Gen, id int) *metaWriter {
	return &metaWriter{
		pool: fmt.Sprintf("pool-c%d", id), runID: fmt.Sprintf("run-c%d", id), resource: fmt.Sprintf("bench-c%d", id),
		keys: g.Keys(id, metaKeys), dims: []int{64, 64, 64},
		lcVer: make([]int64, metaKeys), dsVer: make([]int64, metaKeys),
	}
}

// run issues one mutation; an op is verified when the mutator
// acknowledged it, and the shadow records it as durable.
func (w *metaWriter) run(db *metadb.DB, op load.MetaOp) bool {
	w.seq++
	key := w.keys[op.Key]
	switch op.Kind {
	case load.PutLifecycle:
		if db.PutLifecycle(nil, metadb.Lifecycle{
			Pool: w.pool, Path: key, State: "resident", Bytes: blockSize, LastAccess: w.seq, Accesses: w.seq,
		}) != nil {
			return false
		}
		w.lcVer[op.Key] = w.seq
	case load.PutDataset:
		if db.PutDataset(nil, metadb.Dataset{
			RunID: w.runID, Name: key, AMode: "create", NDims: 3, Dims: w.dims, ETypeSize: 4,
			Pattern: "B**", Location: "REMOTEDISK", Frequency: int(w.seq), Resource: resRDisk, PathBase: key,
		}) != nil {
			return false
		}
		w.dsVer[op.Key] = w.seq
	case load.AddSample:
		if db.AddSample(nil, metadb.PerfSample{Resource: w.resource, Op: "write", Size: w.seq, Seconds: float64(w.seq) * 1e-6}) != nil {
			return false
		}
		w.samples++
	}
	return true
}

// check asserts that db holds the last value of every mutation this
// writer was acked.  inDoubt tolerates one newer value per table: a
// mutation cut off by a crash may or may not have reached the disk.
func (w *metaWriter) check(db *metadb.DB, inDoubt bool) error {
	match := func(got, acked int64) bool { return got == acked || (inDoubt && got > acked) }
	for k, key := range w.keys {
		if v := w.lcVer[k]; v > 0 {
			l, err := db.GetLifecycle(nil, w.pool, key)
			if err != nil || !match(l.Accesses, v) {
				return fmt.Errorf("lifecycle %s/%s: acked version %d, recovered %d (%v)", w.pool, key, v, l.Accesses, err)
			}
		}
		if v := w.dsVer[k]; v > 0 {
			d, err := db.GetDataset(nil, w.runID, key)
			if err != nil || !match(int64(d.Frequency), v) {
				return fmt.Errorf("dataset %s/%s: acked version %d, recovered %d (%v)", w.runID, key, v, d.Frequency, err)
			}
		}
	}
	if got := int64(len(db.Samples(nil, w.resource, "write"))); !match(got, w.samples) {
		return fmt.Errorf("samples of %s: acked %d, recovered %d", w.resource, w.samples, got)
	}
	return nil
}

// metaReader is the paced reader beside the writers: 64 reads, then
// 50 µs idle.  A read verifies when it returns the row (or a clean
// not-found) and the row's version never goes backwards.
type metaReader struct {
	writers []*metaWriter
	keys    []uint16
	seen    [][]int64 // last version seen per (writer, key)
	lat     *samples

	attempted, failed int64
}

func newMetaReader(g *load.Gen, writers []*metaWriter) *metaReader {
	rd := &metaReader{writers: writers, keys: g.ReadKeys(0, 1<<14, metaKeys), lat: newSamples(readerSamples)}
	for range writers {
		rd.seen = append(rd.seen, make([]int64, metaKeys))
	}
	return rd
}

func (rd *metaReader) loop(db *metadb.DB, stop *atomic.Bool) {
	for i := 0; !stop.Load(); {
		for b := 0; b < readerBatch; b, i = b+1, i+1 {
			w, k := i%len(rd.writers), rd.keys[i%len(rd.keys)]
			t0 := time.Now()
			l, err := db.GetLifecycle(nil, rd.writers[w].pool, rd.writers[w].keys[k])
			d := time.Since(t0)
			rd.attempted++
			switch {
			case err == nil && l.Accesses >= rd.seen[w][k]:
				rd.seen[w][k] = l.Accesses
				rd.lat.add(d)
			case errors.Is(err, metadb.ErrNotFound) && rd.seen[w][k] == 0:
				rd.lat.add(d)
			default:
				rd.failed++
			}
		}
		if len(db.Constants(nil)) == 0 {
			rd.failed++
		}
		time.Sleep(readerIdle)
	}
}

// beside starts the reader and returns the function that stops it and
// waits for it to end.
func (rd *metaReader) beside(db *metadb.DB) func() {
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rd.loop(db, &stop)
	}()
	return func() {
		stop.Store(true)
		wg.Wait()
	}
}

type metaJournalEnv struct {
	st      *stack // the `srbd -journal` assembly the database belongs to
	db      *metadb.DB
	fs      *journalFS
	dir     string
	writers []*metaWriter
}

func (e *metaJournalEnv) close() error {
	if err := e.st.close(); err != nil {
		return err
	}
	return e.db.CloseJournal()
}

// openJournal opens dir through fs, or straight on the OS filesystem
// (no flush budget) when fs is nil.
func openJournal(dir string, fs *journalFS) (*metadb.DB, error) {
	opts := wal.Options{Dir: dir}
	if fs != nil {
		opts.FS = fs
	}
	return metadb.OpenJournal(opts)
}

// setupMetaJournal is `srbd -journal` up to the point it listens: open
// the journal, assemble the broker around it (one PTool sweep into the
// journaled tables), checkpoint, then the warm-up mutations.
func setupMetaJournal(cfg runConfig, g *load.Gen, dir string, tr *tracer) (*metaJournalEnv, error) {
	e := &metaJournalEnv{dir: dir, fs: newJournalFS(tr)}
	var err error
	if e.db, err = openJournal(dir, e.fs); err != nil {
		return nil, err
	}
	if e.st, err = newStack(stackConfig{meta: e.db}); err != nil {
		return nil, err
	}
	if err := e.db.Checkpoint(); err != nil {
		return nil, err
	}
	for c := 0; c < cfg.clients; c++ {
		w := newMetaWriter(g, c)
		for i, op := range g.MetaOps("warm", c, metaWarmOps/cfg.clients, metaKeys) {
			if !w.run(e.db, op) {
				return nil, fmt.Errorf("writer %d: warm-up mutation %d failed", c, i)
			}
		}
		w.ops = g.MetaOps("timed", c, metaTimedOps, metaKeys)
		e.writers = append(e.writers, w)
	}
	return e, nil
}

func runMetaJournal(cfg runConfig) (*result, error) {
	r := newResult("meta-journal")
	g := load.New(cfg.seed)
	tr := cfg.tracer()
	env, setupS, err := setupMedian(cfg.setups(),
		func(i int) (*metaJournalEnv, error) {
			return setupMetaJournal(cfg, g, filepath.Join(cfg.dir, fmt.Sprintf("journal%d", i)), tr)
		},
		(*metaJournalEnv).close)
	if err != nil {
		return nil, err
	}
	reader := newMetaReader(g, env.writers)
	faultOps := g.MetaOps("fault", 0, metaFaultOps, metaKeys)
	faultWriter := newMetaWriter(g, 0)
	generated := g.Calls()

	before, _ := env.db.JournalStats()
	step := func(c, i int) bool {
		w := env.writers[c]
		t := tr.begin()
		ok := w.run(env.db, w.ops[i%len(w.ops)])
		tr.end(spMutate, t)
		return ok
	}
	m := runLT(cfg, tr, make([]int, cfg.clients), step, func() func() { return reader.beside(env.db) })
	if g.Calls() != generated {
		r.problemf("input generator ran inside a timed region")
	}
	after, _ := env.db.JournalStats()
	r.record(m, 0.99, setupS)
	r.attempted += reader.attempted
	r.failed += reader.failed

	acked := m.base.ok() + m.l.ok() + m.t.ok()
	r.setN("journal.fsyncs_per_op", float64(after.Syncs-before.Syncs)/float64(acked), acked)
	r.setN("journal.reader_p50_us", reader.lat.quantileUS(0.5), int64(reader.lat.n))
	r.setN("journal.reader_p99_us", reader.lat.quantileUS(0.99), int64(reader.lat.n))
	r.notef("journal: %d records, %.1f B/record, %d rotations while timed", after.Appends-before.Appends,
		float64(after.AppendBytes-before.AppendBytes)/float64(after.Appends-before.Appends), after.Rotations-before.Rotations)
	recordVFS(r, env.fs)
	if cfg.traced {
		if sum := r.recordTrace(cfg, tr); sum.rootTotal > 0 {
			r.set("journal.sync_share_pct", 100*float64(sum.byKind[spVFSSync].total)/float64(sum.rootTotal))
		}
	}

	// Restart: close without a checkpoint, verify the journal offline,
	// reopen (replay) and require every acked mutation's last value.
	if err := env.close(); err != nil {
		return nil, err
	}
	if rep := wal.Check(nil, env.dir); !rep.OK() {
		r.problemf("wal.Check after close: %v", rep.Problems)
	}
	db, err := openJournal(env.dir, nil)
	if err != nil {
		return nil, fmt.Errorf("reopen: %w", err)
	}
	st, _ := db.JournalStats()
	r.setN("journal.replay_ms", float64(st.ReplayDuration)/1e6, int64(st.ReplayRecords))
	for c, w := range env.writers {
		if err := w.check(db, false); err != nil {
			r.problemf("after reopen, writer %d: %v", c, err)
		}
	}
	start := time.Now()
	if err := db.Checkpoint(); err != nil {
		return nil, err
	}
	r.set("journal.checkpoint_ms", float64(time.Since(start))/1e6)
	if err := db.CloseJournal(); err != nil {
		return nil, err
	}
	if err := dropUnsyncedLeg(faultWriter, faultOps); err != nil {
		r.problemf("faultfs leg: %v", err)
	}
	return r, nil
}

// dropUnsyncedLeg proves acked ⊆ recovered against a crash that keeps
// only fsynced bytes — killing this process would leave the OS cache
// intact and prove nothing.  The filesystem dies inside one further
// mutation, which is therefore not acked and may or may not survive.
func dropUnsyncedLeg(w *metaWriter, ops []load.MetaOp) error {
	fs := faultfs.New()
	db, err := metadb.OpenJournal(wal.Options{FS: fs, Dir: "journal"})
	if err != nil {
		return err
	}
	for i, op := range ops {
		if !w.run(db, op) {
			return fmt.Errorf("mutation %d failed before the crash", i)
		}
	}
	fs.SetCrash(1)
	if w.run(db, ops[0]) {
		return fmt.Errorf("mutation acked by a crashed filesystem")
	}
	recovered, err := metadb.OpenJournal(wal.Options{FS: fs.Recover(faultfs.DropUnsynced, 1), Dir: "journal"})
	if err != nil {
		return fmt.Errorf("reopen after crash: %w", err)
	}
	defer recovered.CloseJournal()
	return w.check(recovered, true)
}
