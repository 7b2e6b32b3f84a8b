package srbd

import (
	"bytes"
	"errors"
	"io"
	"log"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/qos"
	"repro/internal/srbnet"
	"repro/internal/storage"
	"repro/internal/vtime"
	"repro/internal/wal"
)

func init() { log.SetOutput(io.Discard) }

const tinyDAG = `# a tiny chain
stage a iters=6
dataset a x mode=create dims=4 etype=1 pat=B loc=localdisk
stage b iters=6
dataset b x mode=read dims=4 etype=1 pat=B loc=localdisk
edge a b x
`

// flagDefaults is what cmd/srbd's flags yield with no arguments, on a
// kernel-picked loopback port.
func flagDefaults() Config {
	return Config{
		Addr: "127.0.0.1:0", User: "shen", Secret: "nwu", Timescale: 0.001,
		MaxInflight: 8, HSMCapacity: 1 << 30,
	}
}

func writeFile(t *testing.T, text string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "chain.dag")
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// leftRunning returns the stacks of goroutines still inside the daemon
// or one of its servers.
func leftRunning() string {
	var left []string
	buf := make([]byte, 1<<20)
	for range 50 {
		left = left[:0]
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "internal/srbd.(*Daemon)") || strings.Contains(g, "internal/srbnet.(*Server)") {
				left = append(left, g)
			}
		}
		if len(left) == 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	return strings.Join(left, "\n\n")
}

// roundTrip puts and gets one file on the remote disk through a wire
// client.  Against a cluster the client is given the address list
// rotated by one, so its cold route is always wrong and the put only
// lands by following a redirect.
func roundTrip(t *testing.T, d *Daemon, cfg Config) {
	t.Helper()
	addrs := d.Addrs()
	var opts []srbnet.Option
	if len(addrs) > 1 {
		rotated := append(append([]string(nil), addrs[1:]...), addrs[0])
		opts = append(opts, srbnet.WithCluster(rotated, cfg.Shards))
	}
	client := srbnet.NewClient(addrs[0], cfg.User, cfg.Secret, "sdsc-disk", storage.KindRemoteDisk, opts...)
	defer client.Close()
	p := vtime.NewScaled(cfg.Timescale).NewProc("client")
	sess, err := client.Connect(p)
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte("srbd"), 1<<10)
	if err := storage.PutFile(p, sess, "coll/data", storage.ModeCreate, want); err != nil {
		t.Fatal(err)
	}
	got, err := storage.GetFile(p, sess, "coll/data")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("read back %d bytes, want %d", len(got), len(want))
	}
	if err := sess.Close(p); err != nil {
		t.Fatal(err)
	}
	if redirects, _ := client.ClusterStats(); len(addrs) > 1 && redirects == 0 {
		t.Fatal("clustered round trip followed no redirect")
	}
}

func TestCompositions(t *testing.T) {
	three := "127.0.0.1:0,127.0.0.1:0,127.0.0.1:0"
	for _, tc := range []struct {
		name    string
		set     func(*Config)
		brokers int
		banner  string
	}{
		{"plain", func(c *Config) {}, 1, "qos max-inflight 8"},
		{"unscheduled", func(c *Config) { c.MaxInflight = 0 }, 1, "unscheduled"},
		{"journal", func(c *Config) { c.Root, c.Journal = t.TempDir(), true }, 1, ", journal "},
		{"journal+hsm", func(c *Config) { c.Root, c.Journal, c.HSM = t.TempDir(), true, true }, 1, ", hsm "},
		{"workflow", func(c *Config) { c.Workflow = writeFile(t, tinyDAG) }, 1, ""},
		{"one broker with peers and shards", func(c *Config) { c.Peers, c.Shards = "127.0.0.1:0", 4 }, 1, ""},
		{"cluster", func(c *Config) { c.Cluster = 3 }, 3, "3 brokers, 3 shards"},
		{"cluster on disk", func(c *Config) { c.Cluster, c.Root = 3, t.TempDir() }, 3, "3 brokers"},
		{"cluster+workflow", func(c *Config) { c.Cluster, c.Workflow = 3, writeFile(t, tinyDAG) }, 3, "3 brokers"},
		{"cluster+peers+shards", func(c *Config) { c.Cluster, c.Peers, c.Shards = 3, three, 6 }, 3, "3 brokers, 6 shards"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := flagDefaults()
			tc.set(&cfg)
			d, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(d.Addrs()) != tc.brokers || !strings.Contains(d.Banner(), tc.banner) ||
				!strings.HasPrefix(d.Banner(), "srbd listening on "+strings.Join(d.Addrs(), ",")+" (") {
				t.Errorf("%d brokers, banner %q", len(d.Addrs()), d.Banner())
			}
			roundTrip(t, d, cfg)
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			if left := leftRunning(); left != "" {
				t.Fatalf("goroutines left after Close:\n%s", left)
			}
			if cfg.Root != "" && tc.brokers > 1 {
				if _, err := os.Stat(filepath.Join(cfg.Root, "node2", "rdisk")); err != nil {
					t.Errorf("on-disk layout: %v", err)
				}
			}
		})
	}
}

func TestOpenRejects(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  func(*Config)
		want string
	}{
		{"cluster+journal", func(c *Config) { c.Cluster, c.Journal, c.Root = 3, true, t.TempDir() }, "ROADMAP 3(b)"},
		{"cluster+journal+hsm", func(c *Config) { c.Cluster, c.Journal, c.HSM, c.Root = 2, true, true, t.TempDir() }, "ROADMAP 3(b)"},
		{"hsm without journal", func(c *Config) { c.HSM = true }, "-hsm needs -journal"},
		{"journal without a directory", func(c *Config) { c.Journal = true }, "-journal needs -journal-dir"},
		{"peers count", func(c *Config) { c.Cluster, c.Peers = 3, "127.0.0.1:0,127.0.0.1:0" }, "-peers lists 2 addresses for 3 brokers"},
		{"peers for one broker", func(c *Config) { c.Peers = "127.0.0.1:0,127.0.0.1:0" }, "-peers lists 2 addresses for 1 brokers"},
		{"empty peer", func(c *Config) { c.Cluster, c.Peers = 2, "127.0.0.1:0, " }, "-peers entry 1 is empty"},
		{"bad addr", func(c *Config) { c.Addr = "nowhere" }, "-addr"},
		{"negative max-inflight", func(c *Config) { c.MaxInflight = -1 }, "must be >= 0"},
		{"negative queue-bytes", func(c *Config) { c.QueueBytes = -1 }, "must be >= 0"},
		{"negative cluster", func(c *Config) { c.Cluster = -1 }, "must be >= 0"},
		{"zero hsm-capacity", func(c *Config) { c.HSMCapacity = 0 }, "-hsm-capacity"},
		{"zero timescale", func(c *Config) { c.Timescale = 0 }, "-timescale"},
		{"negative shards", func(c *Config) { c.Cluster, c.Shards = 3, -1 }, "at least one shard"},
		{"tenants", func(c *Config) { c.Tenants = "astro3d:heavy" }, "bad weight"},
		{"hsm policy", func(c *Config) { c.HSMPolicy = "cold=banana" }, "cold"},
		{"workflow file", func(c *Config) { c.Workflow = filepath.Join(t.TempDir(), "absent") }, "absent"},
		{"workflow text", func(c *Config) { c.Workflow = writeFile(t, "stage a iters=zz") }, "-workflow"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := flagDefaults()
			tc.set(&cfg)
			d, err := Open(cfg)
			if err == nil {
				d.Close()
				t.Fatal("Open accepted it")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
			if errors.Is(err, ErrReplay) {
				t.Fatalf("a bad flag reported as a replay failure: %v", err)
			}
		})
	}
}

// A start that fails after the first broker is serving — here the
// second broker's address is the first's — stops what it started.
func TestFailedOpenLeavesNothingRunning(t *testing.T) {
	cfg := flagDefaults()
	cfg.Cluster = 2
	d, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	taken := d.Addrs()[0]
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	cfg.Peers = taken + "," + taken
	if d, err = Open(cfg); err == nil {
		d.Close()
		t.Fatal("two brokers share one address")
	}
	if left := leftRunning(); left != "" {
		t.Fatalf("goroutines left after a failed Open:\n%s", left)
	}
}

// The journal across three process lifetimes, in one process: the first
// start measures and checkpoints, the second replays and measures
// nothing, and a start over a damaged snapshot is the replay error.
func TestJournalLifecycle(t *testing.T) {
	cfg := flagDefaults()
	cfg.Root, cfg.Journal = t.TempDir(), true
	dir := filepath.Join(cfg.Root, "journal")

	d, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	measured := d.journal.Constants(nil)
	if len(measured) == 0 {
		t.Fatal("first start left the performance database empty")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if rep := wal.Check(nil, dir); !rep.OK() {
		t.Fatalf("journal after a clean shutdown:\n%s", rep)
	}

	d, err = Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := d.journal.JournalStats(); st.Appends != 0 {
		t.Errorf("restart appended %d records: the sweep ran again", st.Appends)
	}
	if got := d.journal.Constants(nil); !reflect.DeepEqual(got, measured) {
		t.Errorf("replayed constants differ from the measured ones")
	}
	roundTrip(t, d, cfg)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if report, err := Fsck(Config{Root: cfg.Root}); err != nil || report == "" {
		t.Fatalf("fsck of a clean journal: %v\n%s", err, report)
	}

	// Damage in the final segment is a tolerable torn tail; damage to
	// the snapshot is acknowledged history gone.
	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.db"))
	if len(snaps) == 0 {
		t.Fatal("no snapshot after a clean shutdown")
	}
	if err := os.WriteFile(snaps[0], []byte("MSRASNP1garbage-over-acked-history"), 0o644); err != nil {
		t.Fatal(err)
	}
	if d, err = Open(cfg); !errors.Is(err, ErrReplay) {
		if err == nil {
			d.Close()
		}
		t.Fatalf("Open over a gutted snapshot: %v, want ErrReplay", err)
	}
	if !strings.Contains(err.Error(), "srbd -fsck -journal-dir "+dir) {
		t.Errorf("replay error does not point at fsck: %v", err)
	}
	if _, err := Fsck(Config{JournalDir: dir}); err == nil {
		t.Error("fsck passed a gutted snapshot")
	}
	if _, err := Fsck(Config{}); err == nil {
		t.Error("fsck ran without a directory")
	}
}

// Before the fix the sweep goroutine slept one whole scan interval of
// scaled wall time — an hour here — before it looked at the stop
// channel, and the journal stayed open and un-checkpointed meanwhile.
func TestCloseDoesNotWaitForScanInterval(t *testing.T) {
	cfg := flagDefaults()
	cfg.Root, cfg.Journal, cfg.HSM = t.TempDir(), true, true
	cfg.Timescale, cfg.HSMPolicy = 1, "scan=1h"
	d, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(120 * time.Millisecond) // the sweep is well inside its wait
	start := time.Now()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("Close took %v", took)
	}
	if left := leftRunning(); left != "" {
		t.Fatalf("goroutines left after Close:\n%s", left)
	}
	if rep := wal.Check(nil, filepath.Join(cfg.Root, "journal")); !rep.OK() || rep.SnapshotSeq == 0 {
		t.Fatalf("journal not checkpointed and clean after Close:\n%s", rep)
	}
}

// queueBudget measures a scheduler's queued-byte bound from outside:
// with granting paused, 1 MiB requests queue until one would exceed
// the bound and is shed.
func queueBudget(t *testing.T, s *qos.Scheduler) int64 {
	t.Helper()
	s.Pause()
	var queued sync.WaitGroup
	defer queued.Wait()
	defer s.Resume()
	p := vtime.NewVirtual().NewProc("probe")
	for n := 0; ; n++ {
		errc := make(chan error, 1)
		queued.Add(1)
		go func() {
			defer queued.Done()
			errc <- s.Do(p, qos.Request{Tenant: "probe", Class: "remotedisk", Op: "write", Bytes: 1 << 20}, func() error { return nil })
		}()
		for s.QueueDepth() == n {
			select {
			case err := <-errc:
				if !errors.Is(err, storage.ErrOverload) {
					t.Fatalf("probe request %d: %v", n, err)
				}
				return int64(n) << 20
			default:
				time.Sleep(50 * time.Microsecond)
			}
		}
	}
}

// The -queue-bytes budget is one broker's whole bound, or leased out
// whole across a cluster's brokers, before and after a re-lease.
func TestQueueBudgetIsLeasedWhole(t *testing.T) {
	cfg := flagDefaults()
	cfg.QueueBytes = 6 << 20
	d, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := queueBudget(t, d.scheds[0]); got != cfg.QueueBytes {
		t.Errorf("one broker's scheduler bounds %d queued bytes, want %d", got, cfg.QueueBytes)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	cfg.Cluster = 3
	if d, err = Open(cfg); err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	check := func(when string, budget int64) {
		t.Helper()
		var leased, bounded int64
		for i, sched := range d.scheds {
			leased += d.cl.Node(i).Budget().QueueBytes
			bounded += queueBudget(t, sched)
		}
		if leased != budget || bounded != budget {
			t.Errorf("%s: leases sum to %d, scheduler bounds to %d, want %d", when, leased, bounded, budget)
		}
	}
	check("at genesis", 6<<20)
	if err := d.cl.SetGlobalBudget(vtime.NewVirtual().NewProc("admin"), 9<<20, 0); err != nil {
		t.Fatal(err)
	}
	check("after a re-lease", 9<<20)
}
