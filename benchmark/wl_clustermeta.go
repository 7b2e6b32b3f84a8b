package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"

	"repro/benchmark/load"
	"repro/internal/cluster"
	"repro/internal/metadb"
	"repro/internal/srbnet"
	"repro/internal/storage"
	"repro/internal/vtime"
)

// cluster-meta: `srbd -cluster 3 -shards 6` with journal-backed
// replicas, so a replicated mutation is durable on every replica
// before it is acked.  Phase R: mutations through the leader's
// Node.DB() (quorum replicate + apply + journal on each replica), L
// then T like every op-driven workload.  Phase S: the wire-small block
// mix over 12 collections on all 6 shards through one WithCluster
// client whose cold routes all point at the wrong broker, so each
// shard is redirected once and then cached.
// op = one acknowledged replicated mutation (phase R).

const (
	clusterNodes       = 3
	clusterShards      = 6
	clusterCollections = 12
	clusterWarmMuts    = 100  // set-up: replicated warm-up mutations (three flushes each)
	clusterWarmBlocks  = 2000 // set-up: phase-S warm-up ops per client
	shareClusterR      = 0.7  // of --seconds; phase S takes the rest
)

type clusterEnv struct {
	cl      *cluster.Cluster
	dbs     []*metadb.DB
	stacks  []*stack
	fs      *journalFS
	repl    *tracedReplicator // nil untraced
	writers []*metaWriter
	conn    *srbnet.Client
	blocks  []*blockClient
	base    uint64 // leader log index once set-up's sweep committed
	warmed  int64  // replicated mutations set-up was acked
}

func (e *clusterEnv) close() error {
	for _, b := range e.blocks {
		if err := b.close(); err != nil {
			return err
		}
	}
	if err := e.conn.Close(); err != nil {
		return err
	}
	for _, st := range e.stacks {
		if err := st.close(); err != nil {
			return err
		}
	}
	for _, db := range e.dbs {
		if err := db.CloseJournal(); err != nil {
			return err
		}
	}
	return nil
}

func setupClusterMeta(cfg runConfig, g *load.Gen, dir string, tr *tracer) (*clusterEnv, error) {
	e := &clusterEnv{fs: newJournalFS(tr)}
	for n := 0; n < clusterNodes; n++ {
		db, err := openJournal(filepath.Join(dir, fmt.Sprintf("node%d", n)), e.fs)
		if err != nil {
			return nil, err
		}
		e.dbs = append(e.dbs, db)
	}
	var err error
	if e.cl, err = cluster.New(cluster.Config{Nodes: clusterNodes, Shards: clusterShards, DBs: e.dbs}); err != nil {
		return nil, err
	}
	addrs := make([]string, clusterNodes)
	for n := 0; n < clusterNodes; n++ {
		node := e.cl.Node(n)
		st, err := newStack(stackConfig{router: node, meta: node.DB(), skipSweep: true, tr: tr})
		if err != nil {
			return nil, err
		}
		e.stacks = append(e.stacks, st)
		addrs[n] = st.addr
	}
	e.cl.SetAddrs(addrs)
	leader := e.cl.Node(0)
	// One sweep at the genesis leader, as srbd does: the rows replicate,
	// so every broker's pricer reads them from its own replica.
	if err := e.stacks[0].sweep(leader.DB()); err != nil {
		return nil, err
	}
	e.base = leader.Log().LastIndex()
	if tr != nil {
		e.repl = &tracedReplicator{inner: leader, tr: tr}
		leader.DB().SetReplicator(e.repl)
	}
	for c := 0; c < cfg.clients; c++ {
		w := newMetaWriter(g, c)
		for i, op := range g.MetaOps("warm", c, clusterWarmMuts/cfg.clients, metaKeys) {
			if !w.run(leader.DB(), op) {
				return nil, fmt.Errorf("writer %d: warm-up mutation %d failed", c, i)
			}
			e.warmed++
		}
		w.ops = g.MetaOps("timed", c, metaTimedOps, metaKeys)
		e.writers = append(e.writers, w)
	}

	// Phase S.  The client's address list is the cluster's rotated by
	// one, so the cold route of every shard is a broker that does not
	// own it.
	wrong := append(append([]string{}, addrs[1:]...), addrs[0])
	e.conn = srbnet.NewClient(wrong[0], userAstro, secret, resRDisk, storage.KindRemoteDisk, srbnet.WithCluster(wrong, clusterShards))
	colls := g.Collections(clusterShards, clusterCollections/clusterShards, func(name string) int {
		return cluster.ShardOf(name, clusterShards)
	})
	sim := vtime.NewVirtual()
	for c := 0; c < cfg.clients; c++ {
		names := make([]string, filesPerClient)
		for f := range names {
			names[f] = fmt.Sprintf("%s/c%d-f%02d", colls[f%len(colls)], c, f)
		}
		bc, err := newBlockClient(c, e.conn, sim, names)
		if err != nil {
			return nil, err
		}
		e.blocks = append(e.blocks, bc)
		if err := bc.warm(g.BlockOps("warm", c, clusterWarmBlocks, filesPerClient, blocksPerFile, 0.5)); err != nil {
			return nil, err
		}
		bc.ops = g.BlockOps("timed", c, timedBlockOp, filesPerClient, blocksPerFile, 0.5)
	}
	return e, nil
}

func (e *clusterEnv) syncs() (n uint64) {
	for _, db := range e.dbs {
		st, _ := db.JournalStats()
		n += st.Syncs
	}
	return n
}

func runClusterMeta(cfg runConfig) (*result, error) {
	r := newResult("cluster-meta")
	g := load.New(cfg.seed)
	tr := cfg.tracer()
	env, setupS, err := setupMedian(cfg.setups(),
		func(i int) (*clusterEnv, error) {
			return setupClusterMeta(cfg, g, filepath.Join(cfg.dir, fmt.Sprintf("cluster%d", i)), tr)
		},
		(*clusterEnv).close)
	if err != nil {
		return nil, err
	}
	generated := g.Calls()
	leader := env.cl.Node(0)

	// Phase R.
	rcfg := cfg
	rcfg.seconds = cfg.seconds * shareClusterR
	syncsBefore := env.syncs()
	m := runLT(rcfg, tr, make([]int, cfg.clients), func(c, i int) bool {
		w := env.writers[c]
		t := tr.begin()
		ok := w.run(leader.DB(), w.ops[i%len(w.ops)])
		tr.end(spMutate, t)
		return ok
	}, nil)
	syncs := env.syncs() - syncsBefore
	r.record(m, 0.99, setupS)
	acked := m.base.ok() + m.l.ok() + m.t.ok()
	r.setN("journal.fsyncs_per_op", float64(syncs)/float64(acked), acked)

	// Phase S.
	s := runPhase(cfg.clients, cfg.span(1-shareClusterR), make([]int, cfg.clients), nil,
		func(c, i int) bool { return env.blocks[c].step(i) })
	if g.Calls() != generated {
		r.problemf("input generator ran inside a timed region")
	}
	r.count(s)
	r.setN("cluster.sharded_ops_per_s", s.opsPerSec(), int64(len(s.windows)))
	redirects, failovers := env.conn.ClusterStats()
	r.set("srbnet.redirects", float64(redirects))
	r.set("srbnet.failovers", float64(failovers))
	if want := int64(clusterShards * cfg.clients); redirects != want {
		r.problemf("%d redirects, want %d: one per shard per session, then cached", redirects, want)
	}
	var counts stackCounts
	for _, st := range env.stacks {
		counts = counts.plus(st.counts())
	}
	r.recordCounts(counts)
	r.set("cluster.log_entries", float64(leader.Log().LastIndex()))

	recordVFS(r, env.fs)
	if cfg.traced {
		r.recordTrace(cfg, tr)
		calls := env.repl.calls.Load()
		r.setN("cluster.replicate_durable_us", float64(env.repl.ns.Load())/1e3/float64(calls), calls)
	}

	// The replicas must have applied one history: the log holds exactly
	// the sweep's entries plus every acked mutation, every replica has
	// committed all of it, and their Save dumps are byte-identical.
	if want := env.base + uint64(env.warmed+acked); leader.Log().Commit() != want {
		r.problemf("leader commit index %d, want %d (set-up %d + warm-up %d + acked %d)", leader.Log().Commit(), want, env.base, env.warmed, acked)
	}
	var dump0 []byte
	for n := 0; n < clusterNodes; n++ {
		node := env.cl.Node(n)
		if node.Down() {
			r.problemf("node %d is down: %v", n, node.Err())
		}
		if node.Log().Commit() != leader.Log().Commit() {
			r.problemf("node %d commit index %d, leader %d", n, node.Log().Commit(), leader.Log().Commit())
		}
		path := filepath.Join(cfg.dir, fmt.Sprintf("dump%d.json", n))
		if err := node.DB().Save(path); err != nil {
			return nil, err
		}
		dump, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		if n == 0 {
			dump0 = dump
		} else if !bytes.Equal(dump, dump0) {
			r.problemf("replica %d's Save dump differs from replica 0's", n)
		}
	}
	for c, w := range env.writers {
		if err := w.check(leader.DB(), false); err != nil {
			r.problemf("writer %d: %v", c, err)
		}
	}
	return r, env.close()
}
