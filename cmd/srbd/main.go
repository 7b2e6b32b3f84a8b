// Command srbd runs the SRB-like middleware daemon: it assembles the
// three storage resources (backed by real directories when -root is
// given, in-memory otherwise), registers them with a broker, and serves
// the broker over TCP.  Remote applications reach the resources with
// msra.NewSRBClient.
//
// Because live clients share real wall time, the daemon runs the
// simulation in scaled mode: device costs are slept at -timescale of
// real time (default 1/1000, so a 25 s tape mount takes 25 ms).
//
// The data plane runs through a multi-tenant qos scheduler: deficit
// round robin over predictor-priced cost per user, cartridge-batched
// tape reads, and bounded queue budgets that shed excess load with a
// retry-after hint.  -max-inflight 0 disables the scheduler entirely
// (every opcode executes on arrival).  Users absent from -tenants are
// scheduled at weight 1.
//
// Usage:
//
//	srbd [-addr :5544] [-root /var/srb] [-user shen -secret nwu] [-timescale 0.001]
//	     [-tenants astro3d:3,viewer:1] [-max-inflight 8] [-queue-bytes 268435456]
//	     [-journal] [-journal-dir DIR] [-hsm] [-hsm-policy cold=48h,...] [-hsm-capacity N]
//	     [-workflow DAG-FILE] [-workflow-overlap 0.5]
//	     [-cluster N] [-peers a:1,b:2,...] [-shards S]
//
// Example: give the simulation account 3× the share of the viewer and
// cap the backlog at 64 MiB:
//
//	srbd -user astro3d -secret x -tenants astro3d:3,viewer:1 -queue-bytes 67108864
//
// With -journal, the broker's meta-data (the performance database the
// admission pricer consults) is persisted through a write-ahead journal
// in -journal-dir (default <root>/journal): every mutation is fsynced
// before it is acknowledged, startup replays the journal, and a clean
// shutdown checkpoints it.  If replay finds corruption the daemon
// refuses to serve and exits non-zero; `srbd -fsck -journal-dir DIR`
// verifies and prints the journal state without serving.
//
// With -hsm, a lifecycle engine manages the remote-disk pool in front
// of the tape library: a background sweep at the policy's scan
// interval migrates cold datasets to tape (batched through the qos
// staging-cartridge lane when the scheduler is on), GCs the pool
// against the -hsm-policy watermarks, and repacks fragmented
// cartridges.  -hsm-capacity sets the pool bytes the watermarks divide
// and -hsm-policy tunes the engine (see hsm.ParsePolicy), e.g.
//
//	srbd -hsm -hsm-capacity 1073741824 -hsm-policy cold=48h,scan=1h,high=0.85,low=0.6
//
// Combined with -journal the lifecycle rows ride the same write-ahead
// journal as the rest of the broker state, and startup maps any
// in-flight migration or recall interrupted by a crash back to its
// safe state.
//
// With -cluster N (N > 1) the daemon serves N brokers in one process as
// one logical broker: each listens on its own address (-peers, or
// -addr's port incremented), owns a hash-sharded slice of the namespace
// (-shards, default N), and replicates the shared meta-data through a
// leader-leased log.  Clients built with srbnet.WithCluster route by
// shard and follow redirects; the -queue-bytes budget becomes
// cluster-wide, leased to brokers by the shards they own.  Every broker
// is assembled by the same code (internal/srbd), so -cluster composes
// with -workflow, which node 0 prices.  Only -journal (and so -hsm,
// which needs it) is refused with N > 1: a restart cannot yet order N
// replica journals against each other (ROADMAP 3(b)).
//
// With -workflow, the daemon prices a whole post-processing chain
// against its performance database before serving: the DAG file (in
// the workflow stage/dataset/edge syntax) is validated, the composed
// makespan at -workflow-overlap and the provisioning plan — stage
// cache budgets, DAG-edge prefetch schedule, intermediate placements —
// are logged, so the operator sees the capacity a submitted chain will
// need.  A bad DAG fails startup.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/srbd"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("srbd: ")
	var cfg srbd.Config
	flag.StringVar(&cfg.Addr, "addr", "127.0.0.1:5544", "TCP listen address")
	flag.StringVar(&cfg.Root, "root", "", "directory for on-disk stores (in-memory if empty)")
	flag.StringVar(&cfg.User, "user", "shen", "account name")
	flag.StringVar(&cfg.Secret, "secret", "nwu", "account secret")
	flag.Float64Var(&cfg.Timescale, "timescale", 0.001, "wall seconds slept per simulated second")
	flag.StringVar(&cfg.Tenants, "tenants", "", "per-tenant DRR weights, name:weight,... (unknown tenants get weight 1)")
	flag.IntVar(&cfg.MaxInflight, "max-inflight", 8, "concurrently executing requests; 0 disables the scheduler")
	flag.Int64Var(&cfg.QueueBytes, "queue-bytes", 0, "global queued-byte budget before requests are shed; 0 unlimited")
	flag.BoolVar(&cfg.Journal, "journal", false, "persist broker meta-data through a write-ahead journal")
	flag.StringVar(&cfg.JournalDir, "journal-dir", "", "journal directory (default <root>/journal)")
	flag.BoolVar(&cfg.Fsck, "fsck", false, "verify and print journal state, then exit without serving")
	flag.BoolVar(&cfg.HSM, "hsm", false, "run the disk-pool lifecycle engine (migration, GC, repack)")
	flag.StringVar(&cfg.HSMPolicy, "hsm-policy", "", "lifecycle policy, key=value,... (cold, scan, high, low, repack, batch)")
	flag.Int64Var(&cfg.HSMCapacity, "hsm-capacity", 1<<30, "disk-pool byte capacity the lifecycle watermarks divide")
	flag.StringVar(&cfg.Workflow, "workflow", "", "price a workflow DAG file against the performance database at startup")
	flag.Float64Var(&cfg.WorkflowOverlap, "workflow-overlap", 0, "producer/consumer overlap for -workflow (0 staged .. 1 pipelined)")
	flag.IntVar(&cfg.Cluster, "cluster", 0, "run N brokers as one logical clustered broker (0 = single broker)")
	flag.StringVar(&cfg.Peers, "peers", "", "comma-separated listen addresses, one per cluster broker (default: -addr's port, incremented)")
	flag.IntVar(&cfg.Shards, "shards", 0, "cluster namespace shard count (default: number of brokers)")
	flag.Parse()

	if cfg.Fsck {
		report, err := srbd.Fsck(cfg)
		fmt.Print(report)
		if err != nil {
			log.Fatal(err)
		}
		return
	}
	d, err := srbd.Open(cfg)
	if errors.Is(err, srbd.ErrReplay) {
		// The distinct line the operator (and the crash-smoke CI job)
		// greps for, and its own exit code.
		log.Printf("FATAL: %v", err)
		os.Exit(2)
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(d.Banner())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("shutting down")
	if err := d.Close(); err != nil {
		log.Fatal(err)
	}
}
