package main

import (
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"repro/benchmark/load"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/hsm"
	"repro/internal/memfs"
	"repro/internal/metadb"
	"repro/internal/pattern"
	"repro/internal/predict"
	"repro/internal/qos"
	"repro/internal/remotedisk"
	"repro/internal/srb"
	"repro/internal/srbnet"
	"repro/internal/storage"
	"repro/internal/tape"
	"repro/internal/vtime"
	"repro/internal/wal"
)

// Probes call one layer's public functions in isolation, with
// workload-shaped inputs, for a fixed number of iterations.  They are
// the same on every workload: a probe tells what a layer costs alone,
// the traced spans tell what it cost inside a request.

// nullBackend is a storage.Backend that does nothing: reads and writes
// report success without touching a byte, so what is left of a round
// trip against it is the layers above.
type nullBackend struct{ size int64 }

type nullSession struct{ b nullBackend }

type nullHandle struct {
	b    nullBackend
	path string
}

func (nullBackend) Name() string                                           { return "null" }
func (nullBackend) Kind() storage.Kind                                     { return storage.KindRemoteDisk }
func (nullBackend) Capacity() (int64, int64)                               { return 0, 0 }
func (b nullBackend) Connect(*vtime.Proc) (storage.Session, error)         { return nullSession{b}, nil }
func (s nullSession) Remove(*vtime.Proc, string) error                     { return nil }
func (s nullSession) Close(*vtime.Proc) error                              { return nil }
func (s nullSession) List(*vtime.Proc, string) ([]storage.FileInfo, error) { return nil, nil }
func (s nullSession) Stat(_ *vtime.Proc, name string) (storage.FileInfo, error) {
	return storage.FileInfo{Path: name, Size: s.b.size}, nil
}
func (s nullSession) Open(_ *vtime.Proc, name string, _ storage.AMode) (storage.Handle, error) {
	return nullHandle{s.b, name}, nil
}
func (h nullHandle) ReadAt(_ *vtime.Proc, b []byte, _ int64) (int, error)  { return len(b), nil }
func (h nullHandle) WriteAt(_ *vtime.Proc, b []byte, _ int64) (int, error) { return len(b), nil }
func (h nullHandle) Size() int64                                           { return h.b.size }
func (h nullHandle) Path() string                                          { return h.path }
func (h nullHandle) Close(*vtime.Proc) error                               { return nil }

func probes(cfg runConfig, r *result) error {
	g := load.New(cfg.seed)
	r.set("harness.timer_ns", timerNS())
	idle := runPhase(1, 200*time.Millisecond, []int{0}, newSamples(latencyCapacity), func(int, int) bool { return true })
	r.setN("harness.allocs_per_op", idle.per(float64(idle.use.mallocs)), idle.ok())

	// One swept performance database serves every probe that prices.
	st, err := newStack(stackConfig{})
	if err != nil {
		return err
	}
	defer st.close()
	pdb := predict.NewDB(st.meta)

	for _, probe := range []func() error{
		func() error { return probeSRBNet(r) },
		func() error { return probeQoS(cfg, r, pdb) },
		func() error { return probePredict(r, pdb) },
		func() error { return probeSRB(r) },
		func() error { return probeMetaDB(r, g) },
		func() error { return probeWAL(cfg, r, g) },
		func() error { return probeCluster(r, g) },
		func() error { return probeCore(r, st) },
		func() error { return probeHSM(cfg, r) },
	} {
		if err := probe(); err != nil {
			return err
		}
	}
	return nil
}

// probeSRBNet: the wire alone — v3 codec, demux, broker dispatch — with
// the scheduler off and a backend that does nothing.
func probeSRBNet(r *result) error {
	const smallOps, objects = 20000, 16
	broker := srb.NewBroker()
	if err := broker.Register(nullBackend{size: bulkObjectBytes}); err != nil {
		return err
	}
	broker.AddUser(userAstro, secret)
	srv, err := srbnet.Serve("127.0.0.1:0", broker, vtime.NewVirtual())
	if err != nil {
		return err
	}
	defer srv.Close()
	srv.SetLogf(func(string, ...any) {})
	client := srbnet.NewClient(srv.Addr(), userAstro, secret, "null", storage.KindRemoteDisk)
	defer client.Close()
	p := vtime.NewVirtual().NewProc("probe")
	sess, err := client.Connect(p)
	if err != nil {
		return err
	}
	h, err := sess.Open(p, "f", storage.ModeWrite)
	if err != nil {
		return err
	}
	buf := make([]byte, blockSize)
	var opErr error
	us, allocs := measureN(smallOps, func(i int) {
		var err error
		if i%2 == 0 {
			_, err = h.WriteAt(p, buf, 0)
		} else {
			_, err = h.ReadAt(p, buf, 0)
		}
		if err != nil {
			opErr = err
		}
	})
	if opErr != nil {
		return fmt.Errorf("null round trip: %w", opErr)
	}
	r.setN("srbnet.null_rtt_us", us, smallOps)
	r.setN("srbnet.null_allocs_per_op", allocs, smallOps)

	obj := make([]byte, bulkObjectBytes)
	wf := sess.(storage.WholeFiler)
	us, _ = measureN(objects, func(i int) {
		if err := wf.PutFile(p, "obj", storage.ModeOverWrite, obj); err != nil {
			opErr = err
		}
		if got, err := wf.GetFile(p, "obj"); err != nil || len(got) != bulkObjectBytes {
			opErr = fmt.Errorf("get: %d bytes, %v", len(got), err)
		}
	})
	if opErr != nil {
		return fmt.Errorf("null stream: %w", opErr)
	}
	r.setN("srbnet.stream_mib_per_s", 2*float64(bulkObjectBytes)/(1<<20)/(us/1e6), 2*objects)
	if err := h.Close(p); err != nil {
		return err
	}
	return sess.Close(p)
}

// probeQoS: Scheduler.Do around a no-op, priced by the production
// pricer, uncontended and from nproc goroutines; and the pricer alone.
func probeQoS(cfg runConfig, r *result, pdb *predict.DB) error {
	const ops = 100000
	price := qos.PredictPricer(pdb)
	sched, err := qos.New(qos.Config{Tenants: benchTenants, MaxInFlight: 8, Price: price})
	if err != nil {
		return err
	}
	defer sched.Close()
	p := vtime.NewVirtual().NewProc("probe")
	req := qos.Request{Tenant: userAstro, Backend: resRDisk, Class: storage.KindRemoteDisk.String(), Op: "write", Path: "f", Bytes: blockSize}
	noop := func() error { return nil }
	var opErr error
	us, allocs := measureN(ops, func(int) {
		if err := sched.Do(p, req, noop); err != nil {
			opErr = err
		}
	})
	if opErr != nil {
		return fmt.Errorf("qos.Do: %w", opErr)
	}
	r.setN("qos.do_us", us, ops)
	r.setN("qos.do_allocs", allocs, ops)

	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < cfg.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			p := vtime.NewVirtual().NewProc("probe")
			req := req
			req.Tenant = userFor(c)
			for i := 0; i < ops/cfg.clients; i++ {
				_ = sched.Do(p, req, noop) // errors were ruled out by the uncontended leg
			}
		}(c)
	}
	wg.Wait()
	// Latency of one Do as a caller sees it with every core submitting.
	r.setN("qos.do_contended_us", float64(time.Since(start))/1e3/float64(ops/cfg.clients), ops)

	var sink float64
	us, allocs = measureN(ops, func(int) { sink += price(req.Class, req.Op, req.Bytes) })
	if sink <= 0 {
		return fmt.Errorf("pricer returned no cost")
	}
	r.setN("qos.price_us", us, ops)
	r.setN("qos.price_allocs", allocs, ops)
	return nil
}

// probePredict: DB.Unit at the two sizes the wire workloads price.
func probePredict(r *result, pdb *predict.DB) error {
	const ops = 50000
	var opErr error
	us, allocs := measureN(ops, func(i int) {
		size := int64(blockSize)
		if i%2 == 1 {
			size = bulkObjectBytes
		}
		if _, err := pdb.Unit(storage.KindRemoteDisk.String(), "write", size); err != nil {
			opErr = err
		}
	})
	r.setN("predict.unit_us", us, ops)
	r.setN("predict.unit_allocs", allocs, ops)
	return opErr
}

// probeSRB: what the broker adds to connect + open + write + close on
// the null backend, over calling the backend directly.
func probeSRB(r *result) error {
	const ops = 100000
	null := nullBackend{}
	broker := srb.NewBroker()
	if err := broker.Register(null); err != nil {
		return err
	}
	broker.AddUser(userAstro, secret)
	p := vtime.NewVirtual().NewProc("probe")
	buf := make([]byte, blockSize)
	var opErr error
	session := func(connect func() (storage.Session, error)) float64 {
		us, _ := measureN(ops, func(int) {
			sess, err := connect()
			if err != nil {
				opErr = err
				return
			}
			h, _ := sess.Open(p, "f", storage.ModeWrite) // the null backend cannot fail
			h.WriteAt(p, buf, 0)
			h.Close(p)
			sess.Close(p)
		})
		return us
	}
	via := session(func() (storage.Session, error) { return broker.Connect(p, userAstro, secret, "null") })
	direct := session(func() (storage.Session, error) { return null.Connect(p) })
	r.setN("srb.dispatch_us", via-direct, ops)
	return opErr
}

// probeMetaDB: the production mutator mix and a point read against an
// unjournaled database — metadb's own cost, no disk.
func probeMetaDB(r *result, g *load.Gen) error {
	const ops = 50000
	db := metadb.New()
	w := newMetaWriter(g, 0)
	mix := g.MetaOps("probe", 0, ops, metaKeys)
	failed := 0
	us, allocs := measureN(ops, func(i int) {
		if !w.run(db, mix[i]) {
			failed++
		}
	})
	r.setN("metadb.mutate_us", us, ops)
	r.setN("metadb.mutate_allocs", allocs, ops)
	us, _ = measureN(ops, func(i int) {
		if _, err := db.GetLifecycle(nil, w.pool, w.keys[mix[i].Key]); err != nil && w.lcVer[mix[i].Key] > 0 {
			failed++
		}
	})
	r.setN("metadb.read_us", us, ops)
	if failed > 0 {
		return fmt.Errorf("metadb probe: %d calls failed", failed)
	}
	return nil
}

// probeWAL: Append and Sync of the raw log on the scratch filesystem,
// then the restart cost of a journal of production-shaped records:
// replay through metadb.OpenJournal and one Checkpoint.
func probeWAL(cfg runConfig, r *result, g *load.Gen) error {
	const appends, syncs, records = 20000, 500, 2000
	l, _, err := wal.Open(wal.Options{Dir: filepath.Join(cfg.dir, "probe-wal")})
	if err != nil {
		return err
	}
	payload := make([]byte, 128)
	var opErr error
	us, _ := measureN(appends, func(int) {
		if err := l.Append(1, payload); err != nil {
			opErr = err
		}
	})
	r.setN("wal.append_us", us, appends)
	var syncNS int64
	for i := 0; i < syncs; i++ {
		if err := l.Append(1, payload); err != nil {
			opErr = err
		}
		start := nowNS()
		if err := l.Sync(); err != nil {
			opErr = err
		}
		syncNS += nowNS() - start
	}
	r.setN("wal.sync_us", float64(syncNS)/1e3/syncs, syncs)
	if err := l.Close(); err != nil {
		return err
	}
	if opErr != nil {
		return fmt.Errorf("wal probe: %w", opErr)
	}

	dir := filepath.Join(cfg.dir, "probe-journal")
	db, err := openJournal(dir, nil)
	if err != nil {
		return err
	}
	w := newMetaWriter(g, 0)
	for i, op := range g.MetaOps("probe-wal", 0, records, metaKeys) {
		if !w.run(db, op) {
			return fmt.Errorf("journal probe: mutation %d failed", i)
		}
	}
	st, _ := db.JournalStats()
	r.setN("wal.bytes_per_rec", float64(st.AppendBytes)/float64(st.Appends), int64(st.Appends))
	r.set("wal.rotations", float64(st.Rotations))
	if err := db.CloseJournal(); err != nil {
		return err
	}
	if db, err = openJournal(dir, nil); err != nil {
		return err
	}
	st, _ = db.JournalStats()
	r.setN("wal.replay_us_per_rec", float64(st.ReplayDuration)/1e3/float64(st.ReplayRecords), int64(st.ReplayRecords))
	start := time.Now()
	if err := db.Checkpoint(); err != nil {
		return err
	}
	r.set("wal.compact_ms", float64(time.Since(start))/1e6)
	return db.CloseJournal()
}

// probeCluster: a replicated mutation over three in-memory replicas —
// the protocol's cost with no disk under it — and one shard routing
// decision.
func probeCluster(r *result, g *load.Gen) error {
	const ops = 20000
	cl, err := cluster.New(cluster.Config{Nodes: clusterNodes, Shards: clusterShards})
	if err != nil {
		return err
	}
	leader := cl.Node(0)
	w := newMetaWriter(g, 0)
	mix := g.MetaOps("probe-cluster", 0, ops, metaKeys)
	failed := 0
	us, _ := measureN(ops, func(i int) {
		if !w.run(leader.DB(), mix[i]) {
			failed++
		}
	})
	if failed > 0 {
		return fmt.Errorf("cluster probe: %d replicated mutations failed", failed)
	}
	r.setN("cluster.replicate_us", us, ops)
	us, _ = measureN(ops, func(i int) { leader.Route(0, w.keys[mix[i].Key]) })
	r.setN("cluster.route_us", us, ops)
	return nil
}

// probeCore: one collective dump of a 64³ float32 dataset from four
// ranks, in-process onto the remote disk's memfs — what core and
// collective cost before a byte reaches the wire.
func probeCore(r *result, st *stack) error {
	const dumps = 8
	sys, err := core.NewSystem(core.SystemConfig{Sim: vtime.NewVirtual(), Meta: metadb.New(), LocalDisk: st.local, RemoteDisk: st.rdisk, RemoteTape: st.rtape})
	if err != nil {
		return err
	}
	run, err := sys.Initialize(core.RunConfig{ID: "probe", App: "probe", User: userAstro, Iterations: dumps, Procs: pipelineScale.Procs})
	if err != nil {
		return err
	}
	n := pipelineScale.N
	d, err := run.OpenDataset(core.DatasetSpec{
		Name: "temp", AMode: storage.ModeCreate, Dims: []int{n, n, n}, Etype: 4,
		Pattern: pattern.Pattern{pattern.Block, pattern.All, pattern.All}, Location: core.LocRemoteDisk, Frequency: 1,
	})
	if err != nil {
		return err
	}
	bufs := make([][]byte, pipelineScale.Procs)
	for rank := range bufs {
		size, err := d.LocalSize(rank)
		if err != nil {
			return err
		}
		bufs[rank] = make([]byte, size)
	}
	var opErr error
	us, _ := measureN(dumps, func(i int) {
		if err := d.WriteIter(i, bufs); err != nil {
			opErr = err
		}
	})
	if opErr != nil {
		return fmt.Errorf("core probe: %w", opErr)
	}
	r.setN("core.writeiter_ms", us/1e3, dumps)
	return run.Finalize()
}

// probeHSM: the lifecycle engine over a journaled metadb on the
// scratch filesystem, pool and tape on memfs.  32 objects are put and
// read (pool hits), aged past the cold threshold and swept — the pool
// is sized so the sweep's GC purges some of the freshly migrated disk
// copies — and the purged ones are read back (tape recalls).
func probeHSM(cfg runConfig, r *result) error {
	const objects, objBytes = 32, 16 << 10
	db, err := openJournal(filepath.Join(cfg.dir, "probe-hsm"), nil)
	if err != nil {
		return err
	}
	defer db.CloseJournal()
	pool, err := remotedisk.New("pool", memfs.New())
	if err != nil {
		return err
	}
	lib, err := tape.New(tape.Config{Name: "vault", Store: memfs.New()})
	if err != nil {
		return err
	}
	sim := vtime.NewVirtual()
	eng, err := hsm.New(hsm.Config{Sim: sim, Meta: db, Pool: pool, Tape: lib, PoolCapacity: objects * objBytes * 35 / 32})
	if err != nil {
		return err
	}
	defer eng.Close()
	p := sim.NewProc("probe")
	data := make([]byte, objBytes)
	name := func(i int) string { return fmt.Sprintf("obj%02d", i) }
	before, _ := db.JournalStats()
	var opErr error
	us, _ := measureN(objects, func(i int) {
		if err := eng.Put(p, name(i), data); err != nil {
			opErr = err
		}
	})
	r.setN("hsm.put_us", us, objects)
	us, _ = measureN(objects, func(i int) {
		if _, err := eng.Read(p, name(i)); err != nil {
			opErr = err
		}
	})
	r.setN("hsm.read_hit_us", us, objects)
	if opErr != nil {
		return fmt.Errorf("hsm probe: %w", opErr)
	}
	p.Advance(eng.Policy().ColdAfter + time.Hour)
	start := time.Now()
	if err := eng.Tick(p); err != nil {
		return fmt.Errorf("hsm probe: tick: %w", err)
	}
	r.set("hsm.tick_ms", float64(time.Since(start))/1e6)
	var recalled int64
	var recallNS int64
	for i := 0; i < objects; i++ {
		if state, err := eng.State(name(i)); err != nil || state != hsm.StateMigrated {
			continue
		}
		t0 := nowNS()
		if _, err := eng.Read(p, name(i)); err != nil {
			return fmt.Errorf("hsm probe: recall: %w", err)
		}
		recallNS += nowNS() - t0
		recalled++
	}
	if recalled == 0 {
		return fmt.Errorf("hsm probe: the sweep purged no disk copy, so nothing was recalled")
	}
	r.setN("hsm.recall_us", float64(recallNS)/1e3/float64(recalled), recalled)
	after, _ := db.JournalStats()
	ops := int64(2*objects) + recalled
	r.setN("hsm.journal_recs_per_op", float64(after.Appends-before.Appends)/float64(ops), ops)
	return nil
}
