package cluster

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/faultfs"
	"repro/internal/metadb"
	"repro/internal/vfs"
	"repro/internal/wal"
)

// Tests of the durable half of replication: three journal-backed
// replicas, each on a filesystem of its own.  Run them under -race.

// journaled opens one journal-backed replica per filesystem and binds
// them into a cluster.
func journaled(t testing.TB, fss []vfs.FS) *Cluster {
	t.Helper()
	dbs := make([]*metadb.DB, len(fss))
	for i, fsys := range fss {
		db, err := metadb.OpenJournal(wal.Options{FS: fsys, Dir: "journal"})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.CloseJournal() })
		dbs[i] = db
	}
	cl, err := New(Config{Nodes: len(fss), DBs: dbs})
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// dump renders a database through its persisted form.
func dump(t *testing.T, db *metadb.DB) string {
	t.Helper()
	scratch := faultfs.New()
	if err := db.SaveFS(scratch, "dump"); err != nil {
		t.Fatal(err)
	}
	data, err := vfs.ReadFile(scratch, "dump")
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestReplicasFlushConcurrently parks the journal flush of all three
// replicas at once: flushing them one after another, the second would
// never start while the first is parked.
func TestReplicasFlushConcurrently(t *testing.T) {
	gates := make([]*faultfs.SyncFS, 3)
	fss := make([]vfs.FS, 3)
	for i := range gates {
		gates[i] = faultfs.NewSyncFS(faultfs.New(), 0)
		fss[i] = gates[i]
	}
	cl := journaled(t, fss)
	for _, g := range gates {
		g.Hold()
	}
	acked := make(chan error, 1)
	go func() { acked <- cl.Node(0).DB().PutRun(nil, metadb.Run{ID: "overlapped"}) }()
	for _, g := range gates {
		g.AwaitHeld()
	}
	for _, n := range cl.Nodes() {
		if _, err := n.DB().GetRun(nil, "overlapped"); err == nil {
			t.Fatalf("node %d shows the run before its journal flushed", n.ID())
		}
	}
	for _, g := range gates {
		g.Release(nil)
	}
	if err := <-acked; err != nil {
		t.Fatal(err)
	}
	for _, n := range cl.Nodes() {
		if _, err := n.DB().GetRun(nil, "overlapped"); err != nil {
			t.Fatalf("node %d after the ack: %v", n.ID(), err)
		}
	}
}

// TestAckNeedsDurableQuorum: a replica whose journal fails is faulted
// out, and the mutation is acknowledged only if a majority — leader or
// not — journaled, flushed and applied it.  Acknowledged rows must be
// in the journal of every replica that stayed up.
func TestAckNeedsDurableQuorum(t *testing.T) {
	cases := []struct {
		name   string
		broken []int
		acked  bool
	}{
		{"one follower", []int{1}, true},
		{"the leader", []int{0}, true},
		{"two followers", []int{1, 2}, false},
		{"leader and follower", []int{0, 2}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mems := []*faultfs.FS{faultfs.New(), faultfs.New(), faultfs.New()}
			cl := journaled(t, []vfs.FS{mems[0], mems[1], mems[2]})
			if err := cl.Node(0).DB().PutRun(nil, metadb.Run{ID: "healthy"}); err != nil {
				t.Fatal(err)
			}
			for _, i := range tc.broken {
				mems[i].SetCrash(1)
			}
			err := cl.Node(0).DB().PutRun(nil, metadb.Run{ID: "contested"})
			if tc.acked && err != nil {
				t.Fatalf("a durable majority remained, yet: %v", err)
			}
			if !tc.acked && !errors.Is(err, ErrNoQuorum) {
				t.Fatalf("acked with %d of 3 journals failing: %v", len(tc.broken), err)
			}
			broken := make(map[int]bool)
			for _, i := range tc.broken {
				broken[i] = true
			}
			for i, n := range cl.Nodes() {
				if n.Down() != broken[i] {
					t.Fatalf("node %d down=%v, journal broken=%v (%v)", i, n.Down(), broken[i], n.Err())
				}
				if broken[i] {
					continue
				}
				rec, err := metadb.OpenJournal(wal.Options{FS: mems[i].Recover(faultfs.DropUnsynced, 1), Dir: "journal"})
				if err != nil {
					t.Fatalf("node %d: recovery: %v", i, err)
				}
				defer rec.CloseJournal()
				want := []string{"healthy"}
				if tc.acked {
					want = append(want, "contested")
				}
				for _, id := range want {
					if _, err := rec.GetRun(nil, id); err != nil {
						t.Fatalf("node %d's journal lacks acked run %q: %v", i, id, err)
					}
				}
			}
		})
	}
}

// TestConcurrentFlushKeepsReplicasIdentical drives racing mutators
// through replicas with a slow flush and requires one history: the
// replicas' dumps, and the dumps their journals replay to, are
// byte-identical.
func TestConcurrentFlushKeepsReplicasIdentical(t *testing.T) {
	mems := []*faultfs.FS{faultfs.New(), faultfs.New(), faultfs.New()}
	fss := make([]vfs.FS, len(mems))
	for i, m := range mems {
		fss[i] = faultfs.NewSyncFS(m, 100*time.Microsecond)
	}
	cl := journaled(t, fss)
	const mutators, each = 4, 25
	var wg sync.WaitGroup
	for w := 0; w < mutators; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lead := cl.Node(0).DB()
			for i := 0; i < each; i++ {
				if err := lead.PutRun(nil, metadb.Run{ID: fmt.Sprintf("shared-%d", i%5), Iterations: w*1000 + i}); err != nil {
					t.Error(err)
					return
				}
				if err := lead.AddSample(nil, metadb.PerfSample{Resource: "r", Op: "write", Size: int64(w*1000 + i), Seconds: 1}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	want := dump(t, cl.Node(0).DB())
	commit := cl.Node(0).Log().Commit()
	for i, n := range cl.Nodes() {
		if n.Down() {
			t.Fatalf("node %d is down: %v", i, n.Err())
		}
		if n.Log().Commit() != commit || n.Log().Applied() != commit {
			t.Fatalf("node %d commit %d applied %d, leader commit %d", i, n.Log().Commit(), n.Log().Applied(), commit)
		}
		if got := dump(t, n.DB()); got != want {
			t.Fatalf("replica %d's dump differs from replica 0's", i)
		}
		if err := n.DB().CloseJournal(); err != nil {
			t.Fatal(err)
		}
		rec, err := metadb.OpenJournal(wal.Options{FS: mems[i], Dir: "journal"})
		if err != nil {
			t.Fatal(err)
		}
		if got := dump(t, rec); got != want {
			t.Fatalf("replica %d's journal replays to a different dump", i)
		}
		rec.CloseJournal()
	}
}

// BenchmarkReplicateDurable is one acknowledged mutation over three
// journal-backed replicas whose flush takes a fixed millisecond: about
// one flush time per op when the replicas flush concurrently, three
// when they take turns.
func BenchmarkReplicateDurable(b *testing.B) {
	fss := make([]vfs.FS, 3)
	for i := range fss {
		fss[i] = faultfs.NewSyncFS(faultfs.New(), time.Millisecond)
	}
	lead := journaled(b, fss).Node(0).DB()
	row := metadb.Lifecycle{Pool: "pool", Path: "key", State: "resident", Bytes: 4096}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row.Accesses = int64(i)
		if err := lead.PutLifecycle(nil, row); err != nil {
			b.Fatal(err)
		}
	}
}
