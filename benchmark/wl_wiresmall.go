package main

import (
	"fmt"

	"repro/benchmark/load"
	"repro/internal/srbnet"
	"repro/internal/storage"
	"repro/internal/vtime"
)

// wire-small: the full single-broker composition over loopback, 4 KiB
// WriteAt/ReadAt 50/50 on sdsc-disk at Zipf offsets, every read checked
// against the client's shadow.  op = one 4 KiB read or write.

const (
	warmOps      = 20000   // set-up: warm-up ops over all clients
	timedBlockOp = 1 << 17 // ops generated per client; the list is cycled
)

type wireSmallEnv struct {
	st      *stack
	conns   []*srbnet.Client
	clients []*blockClient
}

func (e *wireSmallEnv) close() error {
	for _, c := range e.clients {
		if err := c.close(); err != nil {
			return err
		}
	}
	for _, c := range e.conns {
		if err := c.Close(); err != nil {
			return err
		}
	}
	return e.st.close()
}

// setupWireSmall is the fixed set-up work: assemble the stack (one
// PTool sweep inside), create and size every file, run the warm-up.
func setupWireSmall(cfg runConfig, g *load.Gen, sc stackConfig) (*wireSmallEnv, error) {
	st, err := newStack(sc)
	if err != nil {
		return nil, err
	}
	e := &wireSmallEnv{st: st}
	sim := vtime.NewVirtual()
	for c := 0; c < cfg.clients; c++ {
		conn := st.client(userFor(c), resRDisk, storage.KindRemoteDisk)
		e.conns = append(e.conns, conn)
		names := make([]string, filesPerClient)
		for f := range names {
			names[f] = fmt.Sprintf("small/c%d/f%02d", c, f)
		}
		bc, err := newBlockClient(c, conn, sim, names)
		if err != nil {
			return nil, err
		}
		e.clients = append(e.clients, bc)
		if err := bc.warm(g.BlockOps("warm", c, warmOps/cfg.clients, filesPerClient, blocksPerFile, 0.5)); err != nil {
			return nil, err
		}
		bc.ops = g.BlockOps("timed", c, timedBlockOp, filesPerClient, blocksPerFile, 0.5)
	}
	return e, nil
}

func runWireSmall(cfg runConfig) (*result, error) {
	r := newResult("wire-small")
	g := load.New(cfg.seed)
	tr := cfg.tracer()
	env, setupS, err := setupMedian(cfg.setups(),
		func(int) (*wireSmallEnv, error) { return setupWireSmall(cfg, g, stackConfig{tr: tr}) },
		(*wireSmallEnv).close)
	if err != nil {
		return nil, err
	}
	generated := g.Calls()
	step := func(c, i int) bool {
		t := tr.begin()
		ok := env.clients[c].step(i)
		tr.end(spClientOp, t)
		return ok
	}
	m := runLT(cfg, tr, make([]int, cfg.clients), step, nil)
	if g.Calls() != generated {
		r.problemf("input generator ran inside a timed region")
	}
	r.record(m, 0.99, setupS)

	r.recordCounts(env.st.counts())
	if cfg.traced {
		r.recordTrace(cfg, tr)
	}
	if err := env.close(); err != nil {
		return nil, err
	}
	if cfg.traced {
		if err := schedulerAllocGap(cfg, g, r); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// schedulerAllocGap measures allocations per op of the same one-client
// traffic with the scheduler on and off; the difference is what
// qos.do_allocs (which contains qos.price_allocs) has to explain.
func schedulerAllocGap(cfg runConfig, g *load.Gen, r *result) error {
	const ops = 20000
	one := cfg
	one.clients = 1
	perOp := func(noSched bool) (float64, error) {
		env, err := setupWireSmall(one, g, stackConfig{noSched: noSched})
		if err != nil {
			return 0, err
		}
		failed := 0
		_, allocs := measureN(ops, func(i int) {
			if !env.clients[0].step(i) {
				failed++
			}
		})
		if failed > 0 {
			r.problemf("scheduler alloc gap: %d of %d ops failed (scheduler off = %v)", failed, ops, noSched)
		}
		return allocs, env.close()
	}
	on, err := perOp(false)
	if err != nil {
		return err
	}
	off, err := perOp(true)
	if err != nil {
		return err
	}
	r.set("qos.allocs_gap", on-off)
	r.notef("allocs/op one client: scheduler on %.2f, off %.2f", on, off)
	return nil
}
