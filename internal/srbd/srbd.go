// Package srbd is the SRB daemon as a library: Config is cmd/srbd's
// flags one for one, Open validates it and assembles every composition
// — one broker or a cluster of them, journaled or not, with or without
// the scheduler, the lifecycle engine and workflow pricing — through
// one function per broker, and Close shuts it all down in one order.
package srbd

import (
	"errors"
	"fmt"
	"log"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/hsm"
	"repro/internal/metadb"
	"repro/internal/predict"
	"repro/internal/qos"
	"repro/internal/srb"
	"repro/internal/srbnet"
	"repro/internal/storage"
	"repro/internal/testbed"
	"repro/internal/vtime"
	"repro/internal/wal"
	"repro/internal/workflow"
)

// Config holds the daemon's flags; see cmd/srbd for what each means.
type Config struct {
	Addr            string  // -addr
	Root            string  // -root
	User            string  // -user
	Secret          string  // -secret
	Timescale       float64 // -timescale
	Tenants         string  // -tenants
	MaxInflight     int     // -max-inflight
	QueueBytes      int64   // -queue-bytes
	Journal         bool    // -journal
	JournalDir      string  // -journal-dir
	Fsck            bool    // -fsck: main calls Fsck, not Open
	HSM             bool    // -hsm
	HSMPolicy       string  // -hsm-policy
	HSMCapacity     int64   // -hsm-capacity
	Workflow        string  // -workflow
	WorkflowOverlap float64 // -workflow-overlap
	Cluster         int     // -cluster
	Peers           string  // -peers
	Shards          int     // -shards
}

// ErrReplay marks an Open that failed because journal replay found
// damage: the daemon must not serve (cmd/srbd exits 2 on it).
var ErrReplay = errors.New("journal replay failed")

func (c Config) journalDir() string {
	if c.JournalDir == "" && c.Root != "" {
		return filepath.Join(c.Root, "journal")
	}
	return c.JournalDir
}

// Fsck verifies the journal without serving and returns its printable
// state, with an error when it is damaged.
func Fsck(cfg Config) (report string, err error) {
	dir := cfg.journalDir()
	if dir == "" {
		return "", errors.New("-fsck needs -journal-dir (or -root)")
	}
	rep := wal.Check(nil, dir)
	if !rep.OK() {
		err = fmt.Errorf("journal %s is damaged", dir)
	}
	return rep.String(), err
}

// Daemon is a serving srbd.
type Daemon struct {
	cfg     Config
	sim     *vtime.Sim
	tenants map[string]int
	policy  hsm.Policy
	dag     *workflow.DAG
	journal *metadb.DB       // the one broker's journaled meta-data; nil without -journal
	cl      *cluster.Cluster // nil with one broker
	banner  string

	// What Close stops, in this order; servers has one per broker.
	stop    chan struct{} // ends the lifecycle sweeps
	sweeps  sync.WaitGroup
	engines []*hsm.Engine
	scheds  []*qos.Scheduler
	servers []*srbnet.Server
}

// Open validates cfg and starts serving.  Every failure is an error,
// bad flag combinations included, and leaves nothing running.
func Open(cfg Config) (*Daemon, error) {
	d := &Daemon{cfg: cfg, stop: make(chan struct{})}
	n, dir := max(cfg.Cluster, 1), cfg.journalDir()
	var err error
	switch {
	case cfg.Cluster < 0 || cfg.MaxInflight < 0 || cfg.QueueBytes < 0:
		return nil, fmt.Errorf("-cluster, -max-inflight and -queue-bytes must be >= 0, got %d, %d and %d", cfg.Cluster, cfg.MaxInflight, cfg.QueueBytes)
	case cfg.HSMCapacity <= 0:
		return nil, fmt.Errorf("-hsm-capacity must be > 0, got %d", cfg.HSMCapacity)
	case cfg.Timescale <= 0:
		return nil, fmt.Errorf("-timescale must be > 0, got %g", cfg.Timescale)
	case cfg.HSM && !cfg.Journal:
		return nil, errors.New("-hsm needs -journal: lifecycle migration and recall markers must be crash-recoverable, or an interrupted sweep silently strands datasets (add -journal, and -journal-dir or -root)")
	case cfg.Journal && n > 1:
		return nil, errors.New("-journal (and so -hsm) cannot yet be combined with -cluster N>1: a restart would have to order N replica journals against each other, which needs the cluster log persisted through the journal first (ROADMAP 3(b))")
	case cfg.Journal && dir == "":
		return nil, errors.New("-journal needs -journal-dir (or -root)")
	}
	if d.tenants, err = qos.ParseTenants(cfg.Tenants); err != nil {
		return nil, err
	}
	if d.policy, err = hsm.ParsePolicy(cfg.HSMPolicy); err != nil {
		return nil, err
	}
	if cfg.Workflow != "" {
		text, err := os.ReadFile(cfg.Workflow)
		if err != nil {
			return nil, err
		}
		if d.dag, err = workflow.Parse(string(text)); err != nil {
			return nil, fmt.Errorf("-workflow %s: %w", cfg.Workflow, err)
		}
	}
	peers, err := listenAddrs(cfg.Addr, cfg.Peers, n)
	if err != nil {
		return nil, err
	}
	d.sim = vtime.NewScaled(cfg.Timescale)

	// One broker keeps its meta-data store direct and installs no shard
	// router: the cluster's append path holds one mutex across every
	// replica's flush, which a lone journaled broker's mutators share.
	if n > 1 {
		d.cl, err = cluster.New(cluster.Config{Nodes: n, Shards: cfg.Shards, QueueBudget: cfg.QueueBytes})
		if err != nil {
			return nil, err
		}
	} else if cfg.Journal {
		if d.journal, err = metadb.OpenJournal(wal.Options{Dir: dir}); err != nil {
			return nil, fmt.Errorf("%w: %w (inspect with srbd -fsck -journal-dir %s)", ErrReplay, err, dir)
		}
		st, _ := d.journal.JournalStats()
		log.Printf("journal %s replayed: %d records, %d bytes in %s (torn tail %d bytes)",
			dir, st.ReplayRecords, st.ReplayBytes, st.ReplayDuration, st.TornTailBytes)
	}

	var resources []string
	for i, addr := range peers {
		root, node := cfg.Root, (*cluster.Node)(nil)
		if d.cl != nil {
			node = d.cl.Node(i)
			if root != "" {
				root = filepath.Join(root, fmt.Sprintf("node%d", i))
			}
		}
		if resources, err = d.serve(addr, root, node); err != nil {
			return nil, errors.Join(err, d.Close())
		}
	}
	mode := "unscheduled"
	if cfg.MaxInflight > 0 {
		mode = fmt.Sprintf("qos max-inflight %d, tenants %q", cfg.MaxInflight, qos.FormatTenants(d.tenants))
	}
	if d.journal != nil {
		mode += fmt.Sprintf(", journal %s", dir)
	}
	if cfg.HSM {
		mode += fmt.Sprintf(", hsm %s capacity %d", hsm.FormatPolicy(d.policy), cfg.HSMCapacity)
	}
	addrs := d.Addrs()
	if d.cl != nil {
		d.cl.SetAddrs(addrs)
		mode += fmt.Sprintf(", %d brokers, %d shards, queue budget %d", n, d.cl.Ring().Shards(), cfg.QueueBytes)
	}
	d.banner = fmt.Sprintf("srbd listening on %s (resources: %v, timescale %g, %s)",
		strings.Join(addrs, ","), resources, cfg.Timescale, mode)
	return d, nil
}

// listenAddrs resolves one listen address per broker: -peers if given,
// else -addr with the port incremented per broker (port 0 stays 0: the
// kernel picks, and the banner prints the result).
func listenAddrs(addr, peers string, n int) ([]string, error) {
	if peers != "" {
		out := strings.Split(peers, ",")
		if len(out) != n {
			return nil, fmt.Errorf("-peers lists %d addresses for %d brokers", len(out), n)
		}
		for i := range out {
			if out[i] = strings.TrimSpace(out[i]); out[i] == "" {
				return nil, fmt.Errorf("-peers entry %d is empty", i)
			}
		}
		return out, nil
	}
	ta, err := net.ResolveTCPAddr("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("-addr %q: %w", addr, err)
	}
	out := make([]string, n)
	for i := range out {
		out[i] = ta.String()
		if ta.Port != 0 {
			ta.Port++
		}
	}
	return out, nil
}

// serve assembles one broker over stores under root and starts its
// server on addr.  A cluster member's node supplies three things: its
// meta-data replica, itself as the shard router, and its leased slice
// of the -queue-bytes budget (re-leases arrive through OnQuota).
func (d *Daemon) serve(addr, root string, node *cluster.Node) (resources []string, err error) {
	cfg := d.cfg
	res, err := testbed.New(testbed.Dir(root), nil)
	if err != nil {
		return nil, err
	}
	reg := srb.NewBroker()
	for _, be := range []storage.Backend{res.Local, res.RDisk, res.Tape, res.DB} {
		if err := reg.Register(be); err != nil {
			return nil, err
		}
	}
	reg.AddUser(cfg.User, cfg.Secret)

	meta, queueBytes := d.journal, cfg.QueueBytes
	var opts []srbnet.ServerOption
	if node != nil {
		meta, queueBytes = node.DB(), node.Budget().QueueBytes
		opts = append(opts, srbnet.WithShardRouter(node))
	} else if meta == nil {
		meta = metadb.New()
	}
	pdb := predict.NewDB(meta)

	// Admission and workflow pricing need a measured database.  A
	// replayed journal already holds the sweep, and a cluster replica
	// receives the first broker's through the log.
	if (cfg.MaxInflight > 0 || d.dag != nil) && len(meta.Constants(nil)) == 0 {
		if _, err := res.Sweep(meta, 1); err != nil {
			return nil, err
		}
		if err := meta.Checkpoint(); err != nil {
			return nil, err
		}
	}
	var sched *qos.Scheduler
	if cfg.MaxInflight > 0 {
		sched, err = qos.New(qos.Config{
			Tenants:        d.tenants,
			MaxInFlight:    cfg.MaxInflight,
			MaxQueuedBytes: queueBytes,
			Price:          qos.PredictPricer(pdb),
			Tape:           res.Tape,
		})
		if err != nil {
			return nil, err
		}
		d.scheds = append(d.scheds, sched)
		opts = append(opts, srbnet.WithScheduler(sched))
		if node != nil {
			node.OnQuota(func(lease cluster.Budgets) { sched.SetMaxQueuedBytes(lease.QueueBytes) })
		}
	}

	if cfg.HSM {
		hcfg := hsm.Config{
			Sim: d.sim, Meta: meta, Pool: res.RDisk, Tape: res.Tape,
			PoolCapacity: cfg.HSMCapacity, Policy: d.policy, QoS: sched,
		}
		if sched != nil {
			hcfg.PDB = pdb // swept above: prices GC victim scoring and recall staging
		}
		eng, err := hsm.New(hcfg)
		if err != nil {
			return nil, err
		}
		d.engines = append(d.engines, eng)
		// A crash may have left migration or recall markers behind;
		// map them back to their safe states before serving.
		fixed, err := eng.Recover()
		if err != nil {
			return nil, err
		}
		if fixed > 0 {
			log.Printf("hsm: recovered %d in-flight lifecycle rows", fixed)
		}
		d.sweeps.Add(1)
		go d.sweepLoop(eng)
	}

	if d.dag != nil && len(d.servers) == 0 { // priced once, by the first broker
		if err := d.priceWorkflow(pdb, res); err != nil {
			return nil, err
		}
	}
	srv, err := srbnet.Serve(addr, reg, d.sim, opts...)
	if err != nil {
		return nil, err
	}
	d.servers = append(d.servers, srv)
	return reg.Resources(), nil
}

// sweepLoop ticks the lifecycle engine once per scan interval of
// virtual time.  The wait advances the clock in slices of at most
// 50 ms of wall time so Close is honoured promptly at any -timescale;
// the slices sum to exactly one scan interval, so ageing is unchanged.
func (d *Daemon) sweepLoop(eng *hsm.Engine) {
	defer d.sweeps.Done()
	p := d.sim.NewProc("hsm-sweep")
	slice := max(time.Duration(float64(50*time.Millisecond)/d.cfg.Timescale), 1)
	for {
		for left := eng.Policy().ScanInterval; left > 0; left -= slice {
			select {
			case <-d.stop:
				return
			default:
			}
			p.Advance(min(left, slice))
		}
		if err := eng.Tick(p); err != nil {
			log.Printf("hsm: sweep: %v", err)
		}
	}
}

// priceWorkflow logs the chain's makespan and provisioning plan, priced
// against the same performance database admission uses.
func (d *Daemon) priceWorkflow(pdb *predict.DB, res *testbed.Resources) error {
	file, overlap := d.cfg.Workflow, d.cfg.WorkflowOverlap
	pred, err := d.dag.PredictMakespan(pdb, overlap)
	if err != nil {
		return err
	}
	log.Printf("workflow %s: predicted makespan %.3f s at overlap %.2f (critical path %s)",
		file, pred.Makespan.Seconds(), overlap, strings.Join(pred.CriticalPath, " -> "))
	local, rdisk := res.Local.Kind().String(), res.RDisk.Kind().String()
	plan, err := d.dag.Provision(pdb, local, []workflow.Tier{{Class: local, Free: 1 << 31}, {Class: rdisk, Free: 1 << 31}})
	if err != nil {
		return err
	}
	prov, err := d.dag.PredictMakespanProvisioned(pdb, plan, overlap)
	if err != nil {
		return err
	}
	log.Printf("workflow %s: provisioned makespan %.3f s (cache budget %d B, %d prefetch items, %d placements)",
		file, prov.Makespan.Seconds(), plan.CacheBudget, len(plan.Prefetch), len(plan.Intermediates))
	return nil
}

// Addrs returns the brokers' listen addresses in cluster node order.
func (d *Daemon) Addrs() []string {
	addrs := make([]string, len(d.servers))
	for i, srv := range d.servers {
		addrs[i] = srv.Addr()
	}
	return addrs
}

// Banner is the one startup line: addresses, resources and composition.
func (d *Daemon) Banner() string { return d.banner }

// Close, called once, stops the lifecycle sweeps first, so no migration
// batch meets a closing scheduler; then the schedulers, so queued
// requests fail out and no server's drain waits on them; then every
// server; then it checkpoints and closes the journal.
func (d *Daemon) Close() error {
	close(d.stop)
	d.sweeps.Wait()
	for _, eng := range d.engines {
		eng.Close()
	}
	for _, sched := range d.scheds {
		sched.Close()
	}
	var errs []error
	for _, srv := range d.servers {
		errs = append(errs, srv.Close())
	}
	if d.journal != nil {
		err := d.journal.Checkpoint()
		if err == nil {
			log.Printf("journal checkpointed")
		}
		errs = append(errs, err, d.journal.CloseJournal())
	}
	return errors.Join(errs...)
}
