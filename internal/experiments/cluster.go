package experiments

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/device"
	"repro/internal/memfs"
	"repro/internal/metadb"
	"repro/internal/model"
	"repro/internal/srb"
	"repro/internal/srbnet"
	"repro/internal/storage"
	"repro/internal/vtime"
)

// ClusterResult is the clustered-broker evaluation: the replicated
// meta-data layer's failover safety (no acked mutation lost, replicas
// bit-identical, budgets re-leased whole), the single-broker
// degeneration (a one-address cluster must cost what the plain client
// costs), and the sharded scale-out win (three brokers beat one on the
// same device-bound workload).
type ClusterResult struct {
	Brokers int
	Shards  int

	// Failover leg (in-process, virtual time).
	AckedMutations  int   // mutations acknowledged across both phases
	LostAcked       int   // acked mutations missing from any survivor
	DumpMismatches  int   // survivor canonical dumps that disagree
	FailoverRetries int   // refusals observed inside the fencing window
	QueueBudget     int64 // the configured cluster-wide admission budget
	SurvivorBudget  int64 // survivor leases summed after the failover

	// Degeneration leg (TCP, scaled time): the same pipelined workload
	// through a plain client and a one-address cluster client.
	Direct        time.Duration // wall clock, plain client
	SingleCluster time.Duration // wall clock, WithCluster over one broker

	// Scale-out leg (TCP, scaled time): the same device-bound workload
	// against one broker and against three sharded brokers.
	SingleBroker time.Duration // wall clock, every shard on one broker
	Sharded      time.Duration // wall clock, shards spread over three
	Redirects    int64         // redirects the sharded client followed
}

// SingleOverDirect is the one-address cluster's wall-clock cost
// relative to the plain client (1.0 = free degeneration).
func (r ClusterResult) SingleOverDirect() float64 {
	if r.Direct <= 0 {
		return 0
	}
	return r.SingleCluster.Seconds() / r.Direct.Seconds()
}

// ShardedSpeedup is the three-broker wall-clock win over the single
// broker on the same workload.
func (r ClusterResult) ShardedSpeedup() float64 {
	if r.Sharded <= 0 {
		return 0
	}
	return r.SingleBroker.Seconds() / r.Sharded.Seconds()
}

// Headline flattens the result into the scalars clusterGate reads.
func (r ClusterResult) Headline() map[string]float64 {
	return map[string]float64{
		"acked_mutations":       float64(r.AckedMutations),
		"lost_acked":            float64(r.LostAcked),
		"dump_mismatches":       float64(r.DumpMismatches),
		"failover_retries":      float64(r.FailoverRetries),
		"survivor_budget_bytes": float64(r.SurvivorBudget),
		"queue_budget_bytes":    float64(r.QueueBudget),
		"single_over_direct_x":  r.SingleOverDirect(),
		"sharded_speedup_x":     r.ShardedSpeedup(),
	}
}

// clusterGate is the acceptance gate: nothing acked is lost, survivor
// replicas agree byte-for-byte, the fencing window was actually
// exercised, the full admission budget survived the failover, the
// degeneration leg ran, and sharding pays at least 2x.
var clusterGate = gates(
	want("acked_mutations", ">", 0), want("lost_acked", "==", 0), want("dump_mismatches", "==", 0),
	want("failover_retries", ">", 0),
	want("queue_budget_bytes", ">", 0), want("survivor_budget_bytes", "==", "queue_budget_bytes"),
	want("single_over_direct_x", ">", 0), want("sharded_speedup_x", ">=", 2))

// ClusterString renders the result for the report.
func ClusterString(r ClusterResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d brokers, %d shards\n", r.Brokers, r.Shards)
	fmt.Fprintf(&b, "failover: %d acked mutations, %d lost, %d dump mismatches, %d fenced retries\n",
		r.AckedMutations, r.LostAcked, r.DumpMismatches, r.FailoverRetries)
	fmt.Fprintf(&b, "budgets:  %d of %d bytes re-leased to survivors\n", r.SurvivorBudget, r.QueueBudget)
	fmt.Fprintf(&b, "degeneration: direct %v, one-address cluster %v (%.2fx)\n",
		r.Direct, r.SingleCluster, r.SingleOverDirect())
	fmt.Fprintf(&b, "scale-out: one broker %v, sharded %v (%.2fx, %d redirects)\n",
		r.SingleBroker, r.Sharded, r.ShardedSpeedup(), r.Redirects)
	return b.String()
}

// Cluster runs the three clustered-broker legs.
func Cluster(scale Scale) (ClusterResult, error) {
	res := ClusterResult{Brokers: 3, Shards: 6, QueueBudget: 6 << 20}
	if err := clusterFailoverLeg(scale, &res); err != nil {
		return res, err
	}
	if err := clusterDegenerationLeg(scale, &res); err != nil {
		return res, err
	}
	if err := clusterShardedLeg(scale, &res); err != nil {
		return res, err
	}
	return res, nil
}

// clusterFailoverLeg kills the leader mid-workload and audits the
// survivors: every acknowledged mutation present, canonical dumps
// identical, the admission budget re-leased in full.
func clusterFailoverLeg(scale Scale, res *ClusterResult) error {
	lease := 2 * time.Second
	cl, err := cluster.New(cluster.Config{
		Nodes: res.Brokers, Shards: res.Shards,
		Lease: lease, QueueBudget: res.QueueBudget,
	})
	if err != nil {
		return err
	}
	p := vtime.NewVirtual().NewProc("driver")
	var acked []string
	put := func(n *cluster.Node, id string) error {
		if err := n.DB().PutRun(p, metadb.Run{ID: id, App: "astro3d"}); err != nil {
			return err
		}
		if err := n.DB().AddSample(p, metadb.PerfSample{
			Resource: "remote-disk", Op: "write", Size: int64(4096 * (len(acked) + 1)), Seconds: 0.01,
		}); err != nil {
			return err
		}
		acked = append(acked, id)
		return nil
	}
	phase := 5 * scale.Procs
	for i := 0; i < phase; i++ {
		if err := put(cl.Node(0), fmt.Sprintf("pre-%03d", i)); err != nil {
			return fmt.Errorf("cluster: pre-kill mutation: %w", err)
		}
	}
	cl.Node(0).Kill()

	// Keep writing through the outage the way a live client would:
	// refusals inside the fencing window are retried after a backoff
	// on the rank's clock until the lease lapses and the survivors
	// elect.  Nothing refused was acked, so nothing refused may count.
	leaderID := -1
	for try := 0; try < 64; try++ {
		if id, ok := cl.Leader(p); ok {
			leaderID = id
			break
		}
		if err := put(cl.Node(1), "fenced"); err != nil {
			if !errors.Is(err, cluster.ErrNotLeader) {
				return fmt.Errorf("cluster: fenced write failed oddly: %w", err)
			}
			res.FailoverRetries++
		}
		p.Advance(lease / 8)
	}
	if leaderID != 1 {
		return fmt.Errorf("cluster: leader after failover = %d, want 1", leaderID)
	}
	for i := 0; i < phase; i++ {
		if err := put(cl.Node(leaderID), fmt.Sprintf("post-%03d", i)); err != nil {
			return fmt.Errorf("cluster: post-failover mutation: %w", err)
		}
	}
	res.AckedMutations = len(acked)

	survivors := []*cluster.Node{cl.Node(1), cl.Node(2)}
	for _, n := range survivors {
		for _, id := range acked {
			if _, err := n.DB().GetRun(nil, id); err != nil {
				res.LostAcked++
			}
		}
	}
	dumps := make([]string, len(survivors))
	for i, n := range survivors {
		d, err := metadbCanon(n.DB())
		if err != nil {
			return err
		}
		dumps[i] = d
	}
	if dumps[0] != dumps[1] {
		res.DumpMismatches++
	}
	for _, n := range survivors {
		res.SurvivorBudget += n.Budget().QueueBytes
	}
	return nil
}

// clusterBrokerSet serves n brokers over TCP, each with its own
// multi-channel disk array and a cluster shard router, and returns the
// cluster plus the servers.
func clusterBrokerSet(sim *vtime.Sim, n, shards, channels int) (*cluster.Cluster, []*srbnet.Server, []string, error) {
	cl, err := cluster.New(cluster.Config{Nodes: n, Shards: shards})
	if err != nil {
		return nil, nil, nil, err
	}
	servers := make([]*srbnet.Server, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		broker := srb.NewBroker()
		be, err := device.New(device.Config{
			Name: "sdsc-array", Kind: storage.KindRemoteDisk,
			Params: model.RemoteDisk2000(), Store: memfs.New(), Channels: channels,
		})
		if err != nil {
			return nil, nil, nil, err
		}
		if err := broker.Register(be); err != nil {
			return nil, nil, nil, err
		}
		broker.AddUser("shen", "nwu")
		srv, err := srbnet.Serve("127.0.0.1:0", broker, sim, srbnet.WithShardRouter(cl.Node(i)))
		if err != nil {
			return nil, nil, nil, err
		}
		srv.SetLogf(func(string, ...any) {})
		servers[i] = srv
		addrs[i] = srv.Addr()
	}
	cl.SetAddrs(addrs)
	return cl, servers, addrs, nil
}

// clusterWorkload runs ranks of pipelined whole-file put/get rounds
// through one shared session, rank r working in collection cols[r %
// len(cols)], and returns the wall time.
func clusterWorkload(sim *vtime.Sim, sess storage.Session, ranks, files, chunk int, cols []string) (time.Duration, error) {
	wf, ok := sess.(storage.WholeFiler)
	if !ok {
		return 0, fmt.Errorf("cluster: session lacks whole-file ops")
	}
	procs := make([]*vtime.Proc, ranks)
	for r := range procs {
		procs[r] = sim.NewProc(fmt.Sprintf("rank%d", r))
	}
	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, ranks)
	for r := range procs {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			payload := make([]byte, chunk)
			col := cols[r%len(cols)]
			for k := 0; k < files; k++ {
				path := fmt.Sprintf("%s/rank%d/f%03d", col, r, k)
				if err := wf.PutFile(procs[r], path, storage.ModeCreate, payload); err != nil {
					errs[r] = err
					return
				}
				if _, err := wf.GetFile(procs[r], path); err != nil {
					errs[r] = err
					return
				}
			}
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// shardCollections probes collection names until every shard in
// 0..want-1 has one, so a workload can address each broker's slice of
// the namespace deliberately.
func shardCollections(want, shards int) []string {
	cols := make([]string, want)
	found := 0
	for i := 0; found < want && i < 100*shards; i++ {
		name := fmt.Sprintf("col%03d", i)
		s := cluster.ShardOf(name, shards)
		if s < want && cols[s] == "" {
			cols[s] = name
			found++
		}
	}
	return cols
}

// clusterDegenerationLeg runs the same pipelined workload through a
// plain client and a one-address cluster client against identical
// single brokers; the cluster layer must cost nothing.
func clusterDegenerationLeg(scale Scale, res *ClusterResult) error {
	files := scale.Dumps()
	run := func(clustered bool) (time.Duration, error) {
		sim := vtime.NewScaled(1e-3)
		_, servers, addrs, err := clusterBrokerSet(sim, 1, 1, 4)
		if err != nil {
			return 0, err
		}
		defer servers[0].Close()
		var opts []srbnet.Option
		if clustered {
			opts = append(opts, srbnet.WithCluster(addrs, 1))
		}
		client := srbnet.NewClient(addrs[0], "shen", "nwu", "sdsc-array", storage.KindRemoteDisk, opts...)
		defer client.Close()
		p := sim.NewProc("rank0")
		sess, err := client.Connect(p)
		if err != nil {
			return 0, err
		}
		defer sess.Close(p)
		return clusterWorkload(sim, sess, scale.Procs, files, 64<<10, []string{"col000"})
	}
	var err error
	if res.Direct, err = run(false); err != nil {
		return fmt.Errorf("cluster: direct leg: %w", err)
	}
	if res.SingleCluster, err = run(true); err != nil {
		return fmt.Errorf("cluster: one-address leg: %w", err)
	}
	return nil
}

// clusterShardedLeg runs the device-bound workload once against a
// single broker holding every shard and once against three sharded
// brokers; the sharded run should win by roughly the broker count.
func clusterShardedLeg(scale Scale, res *ClusterResult) error {
	// Single-channel arrays and 1 MiB files put the workload firmly in
	// the transfer-bound regime (0.27 MiB/s per channel), so wall time
	// tracks the scaled channel waits and the broker count is the
	// parallelism: twelve ranks queue ~12 deep on one broker's channel
	// and 4 deep per broker when sharded across three.
	const ranks, channels = 12, 1
	files := scale.Dumps()
	cols := shardCollections(3, 3)
	run := func(brokers, shards int) (time.Duration, int64, error) {
		sim := vtime.NewScaled(1e-3)
		_, servers, addrs, err := clusterBrokerSet(sim, brokers, shards, channels)
		if err != nil {
			return 0, 0, err
		}
		defer func() {
			for _, s := range servers {
				s.Close()
			}
		}()
		client := srbnet.NewClient(addrs[0], "shen", "nwu", "sdsc-array", storage.KindRemoteDisk,
			srbnet.WithCluster(addrs, shards))
		defer client.Close()
		p := sim.NewProc("rank0")
		sess, err := client.Connect(p)
		if err != nil {
			return 0, 0, err
		}
		defer sess.Close(p)
		d, err := clusterWorkload(sim, sess, ranks, files, 1<<20, cols)
		if err != nil {
			return 0, 0, err
		}
		redirects, _ := client.ClusterStats()
		return d, redirects, nil
	}
	var err error
	if res.SingleBroker, _, err = run(1, 1); err != nil {
		return fmt.Errorf("cluster: single-broker leg: %w", err)
	}
	if res.Sharded, res.Redirects, err = run(3, 3); err != nil {
		return fmt.Errorf("cluster: sharded leg: %w", err)
	}
	return nil
}
