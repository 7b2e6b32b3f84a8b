package main

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync/atomic"

	"repro/benchmark/load"
	"repro/internal/srbnet"
	"repro/internal/storage"
	"repro/internal/vtime"
)

// wire-bulk: the `srbd -root` shape (remote disk over osfs under the
// scratch directory), whole-file PutFile then GetFile of 4 MiB objects
// through v3 chunk streaming.  op = one object put and fetched back
// (8 MiB over the wire); the CRC32C of every get is compared with the
// CRC32C of what was put.  Put and get are timed separately.

const (
	bulkObjectBytes = 4 << 20
	bulkObjects     = 4 // per client, rewritten round-robin
	bulkWarmRounds  = 8 // per client, in set-up
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

type bulkClient struct {
	id       int
	p        *vtime.Proc
	conn     *srbnet.Client
	sess     storage.WholeFiler
	closer   storage.Session
	payloads [][]byte
	crcs     []uint32

	// put and get time and bytes, summed over verified rounds.
	putNS, getNS, bytes atomic.Int64
}

// step puts object i mod 4 with the payload of the round and reads it
// back.
func (c *bulkClient) step(i int) bool {
	obj := i % bulkObjects
	pay := (i/bulkObjects + obj) % len(c.payloads)
	name := fmt.Sprintf("bulk/c%d/obj%d", c.id, obj)
	t0 := nowNS()
	if err := c.sess.PutFile(c.p, name, storage.ModeOverWrite, c.payloads[pay]); err != nil {
		return false
	}
	t1 := nowNS()
	got, err := c.sess.GetFile(c.p, name)
	t2 := nowNS()
	if err != nil || len(got) != bulkObjectBytes || crc32.Checksum(got, castagnoli) != c.crcs[pay] {
		return false
	}
	c.putNS.Add(t1 - t0)
	c.getNS.Add(t2 - t1)
	c.bytes.Add(bulkObjectBytes)
	return true
}

type wireBulkEnv struct {
	st      *stack
	root    string // the remote disk's osfs directory
	clients []*bulkClient
}

func (e *wireBulkEnv) close() error {
	for _, c := range e.clients {
		if err := c.closer.Close(c.p); err != nil {
			return err
		}
		if err := c.conn.Close(); err != nil {
			return err
		}
	}
	if err := e.st.close(); err != nil {
		return err
	}
	// Objects left behind would still be written back while the next
	// set-up (or workload) runs, and slow it by half.
	return os.RemoveAll(e.root)
}

func setupWireBulk(cfg runConfig, g *load.Gen, payloads [][][]byte, root string, tr *tracer) (*wireBulkEnv, error) {
	st, err := newStack(stackConfig{rdiskRoot: root, tr: tr})
	if err != nil {
		return nil, err
	}
	e := &wireBulkEnv{st: st, root: root}
	sim := vtime.NewVirtual()
	for c := 0; c < cfg.clients; c++ {
		bc := &bulkClient{id: c, p: sim.NewProc(fmt.Sprintf("client%d", c)), payloads: payloads[c]}
		bc.conn = st.client(userFor(c), resRDisk, storage.KindRemoteDisk)
		sess, err := bc.conn.Connect(bc.p)
		if err != nil {
			return nil, err
		}
		bc.closer, bc.sess = sess, sess.(storage.WholeFiler)
		for _, p := range bc.payloads {
			bc.crcs = append(bc.crcs, crc32.Checksum(p, castagnoli))
		}
		e.clients = append(e.clients, bc)
		for i := 0; i < bulkWarmRounds; i++ {
			if !bc.step(i) {
				return nil, fmt.Errorf("client %d: warm-up round %d failed", c, i)
			}
		}
		bc.putNS.Store(0)
		bc.getNS.Store(0)
		bc.bytes.Store(0)
	}
	return e, nil
}

func runWireBulk(cfg runConfig) (*result, error) {
	r := newResult("wire-bulk")
	g := load.New(cfg.seed)
	payloads := make([][][]byte, cfg.clients)
	for c := range payloads {
		payloads[c] = g.Payloads(c, bulkObjects+1, bulkObjectBytes)
	}
	tr := cfg.tracer()
	env, setupS, err := setupMedian(cfg.setups(),
		func(i int) (*wireBulkEnv, error) {
			return setupWireBulk(cfg, g, payloads, filepath.Join(cfg.dir, fmt.Sprintf("root%d", i)), tr)
		},
		(*wireBulkEnv).close)
	if err != nil {
		return nil, err
	}
	generated := g.Calls()
	// Rounds continue after the warm-up's so each put changes the
	// object's content.
	first := make([]int, cfg.clients)
	for c := range first {
		first[c] = bulkWarmRounds
	}
	m := runLT(cfg, tr, first, func(c, i int) bool {
		t := tr.begin()
		ok := env.clients[c].step(i)
		tr.end(spClientOp, t)
		return ok
	}, nil)
	if g.Calls() != generated {
		r.problemf("input generator ran inside a timed region")
	}
	// At ~4 ms per object the L phase yields a few hundred to a few
	// thousand rounds: p95 keeps ten samples beyond it from 200 up.
	r.record(m, 0.95, setupS)

	var putNS, getNS, bytes int64
	for _, c := range env.clients {
		putNS += c.putNS.Load()
		getNS += c.getNS.Load()
		bytes += c.bytes.Load()
	}
	if putNS > 0 && getNS > 0 {
		// Per-client rates: bytes over the time that client spent in
		// puts (gets), so two clients are not counted as one pipe.
		r.set("bulk.write_mib_per_s", float64(bytes)/(1<<20)/(float64(putNS)/1e9))
		r.set("bulk.read_mib_per_s", float64(bytes)/(1<<20)/(float64(getNS)/1e9))
	}
	r.recordCounts(env.st.counts())
	if cfg.traced {
		r.recordTrace(cfg, tr)
	}
	return r, env.close()
}
