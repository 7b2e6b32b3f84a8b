package main

import (
	"fmt"
	"path/filepath"
	"sync"

	"repro/internal/dbstore"
	"repro/internal/device"
	"repro/internal/localdisk"
	"repro/internal/memfs"
	"repro/internal/metadb"
	"repro/internal/model"
	"repro/internal/osfs"
	"repro/internal/predict"
	"repro/internal/ptool"
	"repro/internal/qos"
	"repro/internal/remotedisk"
	"repro/internal/srb"
	"repro/internal/srbnet"
	"repro/internal/storage"
	"repro/internal/tape"
	"repro/internal/vtime"
)

// The account table and resource names cmd/srbd registers.
const (
	resLocal  = "argonne-ssa"
	resRDisk  = "sdsc-disk"
	resTape   = "sdsc-hpss"
	resDB     = "nwu-postgres"
	secret    = "nwu"
	userAstro = "astro3d"
	userView  = "viewer"
)

// benchTenants is the -tenants astro3d:3,viewer:1 composition.
var benchTenants = map[string]int{userAstro: 3, userView: 1}

// userFor spreads clients over the two tenants.
func userFor(client int) string {
	if client%2 == 0 {
		return userAstro
	}
	return userView
}

// stackConfig selects the srbd composition a workload runs against.
type stackConfig struct {
	// rdiskRoot, when set, backs the remote disk with osfs under this
	// directory (the `srbd -root` shape); the other resources stay on
	// memfs.
	rdiskRoot string
	// noSched leaves the qos scheduler out (`-max-inflight 0`).
	noSched bool
	// router and meta are set by the clustered composition: the node's
	// shard router and its metadb replica.
	router srbnet.ShardRouter
	meta   *metadb.DB
	// skipSweep leaves the PTool sweep to the caller (a cluster sweeps
	// once, at the genesis leader).
	skipSweep bool
	// tr, when set, installs the span decorators at the backend, store
	// and pricer seams.
	tr *tracer
}

// stack is one assembled broker: what cmd/srbd's main builds before it
// listens, with a zero-cost device model (vtime.NewVirtual: modelled
// device time is charged to virtual clocks and never slept).  It
// mirrors cmd/srbd until that assembly is extracted into a package.
type stack struct {
	broker *srb.Broker
	local  *device.Backend
	rdisk  *device.Backend
	rtape  *tape.Library
	meta   *metadb.DB
	sched  *qos.Scheduler
	srv    *srbnet.Server
	addr   string

	devCounts   seamCounts
	storeCounts seamCounts
}

func newStack(cfg stackConfig) (_ *stack, err error) {
	st := &stack{broker: srb.NewBroker(), meta: cfg.meta}
	if st.meta == nil {
		st.meta = metadb.New()
	}
	store := func(root string) (storage.Store, error) {
		var s storage.Store = memfs.New()
		if root != "" {
			fs, err := osfs.New(root)
			if err != nil {
				return nil, err
			}
			s = fs
		}
		if cfg.tr != nil {
			s = &tracedStore{Store: s, tr: cfg.tr, counts: &st.storeCounts}
		}
		return s, nil
	}
	localStore, _ := store("")
	if st.local, err = localdisk.New(resLocal, localStore); err != nil {
		return nil, err
	}
	rdiskRoot := cfg.rdiskRoot
	if rdiskRoot != "" {
		rdiskRoot = filepath.Join(rdiskRoot, "rdisk")
	}
	rdiskStore, err := store(rdiskRoot)
	if err != nil {
		return nil, err
	}
	if st.rdisk, err = remotedisk.New(resRDisk, rdiskStore); err != nil {
		return nil, err
	}
	tapeStore, _ := store("")
	if st.rtape, err = tape.New(tape.Config{Name: resTape, Params: model.RemoteTape2000(), Store: tapeStore}); err != nil {
		return nil, err
	}
	dbStore, _ := store("")
	localdb, err := dbstore.New(resDB, dbStore)
	if err != nil {
		return nil, err
	}
	for _, be := range []storage.Backend{st.local, st.rdisk, st.rtape, localdb} {
		if cfg.tr != nil {
			be = &tracedBackend{Backend: be, tr: cfg.tr, counts: &st.devCounts}
		}
		if err := st.broker.Register(be); err != nil {
			return nil, err
		}
	}
	st.broker.AddUser(userAstro, secret)
	st.broker.AddUser(userView, secret)

	if !cfg.skipSweep {
		if err := st.sweep(st.meta); err != nil {
			return nil, err
		}
	}
	var opts []srbnet.ServerOption
	if cfg.router != nil {
		opts = append(opts, srbnet.WithShardRouter(cfg.router))
	}
	if !cfg.noSched {
		price := qos.PredictPricer(predict.NewDB(st.meta))
		if cfg.tr != nil {
			price = tracedPricer(cfg.tr, price)
		}
		st.sched, err = qos.New(qos.Config{
			Tenants: benchTenants, MaxInFlight: 8, Price: price, Tape: st.rtape,
		})
		if err != nil {
			return nil, err
		}
		opts = append(opts, srbnet.WithScheduler(st.sched))
	}
	if st.srv, err = srbnet.Serve("127.0.0.1:0", st.broker, vtime.NewVirtual(), opts...); err != nil {
		return nil, err
	}
	st.srv.SetLogf(func(string, ...any) {})
	st.addr = st.srv.Addr()
	return st, nil
}

// sweep is the one PTool pass srbd runs before it prices admission,
// followed by the same return-to-idle of the device clocks.
func (st *stack) sweep(meta *metadb.DB) error {
	if _, err := ptool.MeasureAll(vtime.NewVirtual(), meta, ptool.Config{Repeats: 1}, st.local, st.rdisk, st.rtape); err != nil {
		return fmt.Errorf("ptool sweep: %w", err)
	}
	st.local.ResetClocks()
	st.rdisk.ResetClocks()
	st.rtape.ResetClocks()
	return nil
}

// close shuts down in srbd's order: scheduler first so queued requests
// fail out, then the server.
func (st *stack) close() error {
	if st.sched != nil {
		st.sched.Close()
	}
	return st.srv.Close()
}

// client dials the stack's broker as one tenant.
func (st *stack) client(user, resource string, kind storage.Kind, opts ...srbnet.Option) *srbnet.Client {
	return srbnet.NewClient(st.addr, user, secret, resource, kind, opts...)
}

// tracedClient wraps a client-side backend so each public-API call is
// a request root, one in flight at a time.
func tracedClient(tr *tracer, be storage.Backend, gate *sync.Mutex) storage.Backend {
	if tr == nil {
		return be
	}
	return &tracedBackend{Backend: be, tr: tr, counts: new(seamCounts), oneAtATime: gate}
}

// stackCounts are the work counts of one or more brokers: the
// schedulers' decisions, the tape library's mounts and — when the span
// decorators are installed — the calls and bytes at the backend and
// store seams.
type stackCounts struct {
	granted, shed, batches int64
	mounts                 int64
	devCalls, devBytes     int64
	storeCalls, storeBytes int64
}

func (st *stack) counts() stackCounts {
	c := stackCounts{
		devCalls: st.devCounts.calls.Load(), devBytes: st.devCounts.bytes.Load(),
		storeCalls: st.storeCounts.calls.Load(), storeBytes: st.storeCounts.bytes.Load(),
	}
	c.mounts, _, _ = st.rtape.Stats()
	if st.sched != nil {
		qs := st.sched.Stats()
		for _, t := range qs.Tenants {
			c.granted += t.Granted
		}
		c.shed, c.batches = qs.Overloads, qs.Batches
	}
	return c
}

func (c stackCounts) plus(d stackCounts) stackCounts {
	return stackCounts{
		c.granted + d.granted, c.shed + d.shed, c.batches + d.batches, c.mounts + d.mounts,
		c.devCalls + d.devCalls, c.devBytes + d.devBytes, c.storeCalls + d.storeCalls, c.storeBytes + d.storeBytes,
	}
}

// recordCounts reports the counts.  A shed request is an overload the
// workloads are sized never to cause, so any is a problem.
func (r *result) recordCounts(c stackCounts) {
	r.set("qos.granted", float64(c.granted))
	r.set("qos.shed", float64(c.shed))
	r.set("qos.batches", float64(c.batches))
	r.set("tape.mounts", float64(c.mounts))
	r.set("device.calls", float64(c.devCalls))
	r.set("device.bytes", float64(c.devBytes))
	r.set("store.calls", float64(c.storeCalls))
	r.set("store.bytes", float64(c.storeBytes))
	if c.shed > 0 {
		r.problemf("qos shed %d requests; the workload must run unshed", c.shed)
	}
}
