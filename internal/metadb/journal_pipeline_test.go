package metadb_test

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultfs"
	"repro/internal/metadb"
	"repro/internal/vfs"
	"repro/internal/wal"
)

// Tests of the commit pipeline's invariants (a)–(f), see journal.go.
// Run them under -race.

// reopened closes nothing: it replays the journal on fsys into a fresh
// database.
func reopened(t *testing.T, fsys vfs.FS) *metadb.DB {
	t.Helper()
	db, err := metadb.OpenJournal(journalOpts(fsys))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	t.Cleanup(func() { db.CloseJournal() })
	return db
}

// TestRacingWritersReplayToMemory is invariant (b): writers racing on
// one key share flushes, yet the tables end up as the journal replays.
func TestRacingWritersReplayToMemory(t *testing.T) {
	mem := faultfs.New()
	db, err := metadb.OpenJournal(journalOpts(faultfs.NewSyncFS(mem, 200*time.Microsecond)))
	if err != nil {
		t.Fatal(err)
	}
	const writers, each = 6, 30
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				v := w*1000 + i
				var err error
				switch i % 3 {
				case 0:
					err = db.PutRun(nil, metadb.Run{ID: "hot", App: "a", User: "u", Iterations: v, Procs: w})
				case 1:
					err = db.SetConstant(nil, metadb.PerfConstant{Resource: "r", Op: "read", Component: metadb.CompOpen, Seconds: float64(v)})
				case 2:
					err = db.ReplaceSamples(nil, "r", "read", []metadb.PerfSample{{Size: int64(v), Seconds: 1}})
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st, _ := db.JournalStats()
	if commits := st.Syncs - 2*st.Rotations; commits >= st.Appends {
		t.Errorf("%d flushes for %d mutations: the writers shared none", commits, st.Appends)
	}
	want := canon(t, db)
	if err := db.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	if got := canon(t, reopened(t, mem)); got != want {
		t.Fatalf("replay differs from memory:\n got %s\nwant %s", got, want)
	}
}

// TestCrashSweepConcurrentMutators covers (a) and (c) at every crash
// point: four mutators, a checkpoint and a reader run into a crash;
// recovery from the harshest images must hold every acknowledged row
// and every row the reader was ever shown, and the reader must never
// have seen a version go backwards.
func TestCrashSweepConcurrentMutators(t *testing.T) {
	const mutators, keys, each = 4, 5, 24
	for _, mode := range []faultfs.CrashMode{faultfs.DropUnsynced, faultfs.TornWrites} {
		for point := 4; point <= 200; point += 7 {
			fsys := faultfs.New()
			db, err := metadb.OpenJournal(journalOpts(fsys))
			if err != nil {
				t.Fatal(err)
			}
			fsys.SetCrash(point)

			var acked [mutators][keys]int64
			var wg sync.WaitGroup
			for w := 0; w < mutators; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 1; i <= each; i++ {
						k := i % keys
						if db.PutLifecycle(nil, metadb.Lifecycle{Pool: fmt.Sprint("pool", w), Path: fmt.Sprint("key", k), State: "resident", Accesses: int64(i)}) != nil {
							return
						}
						acked[w][k] = int64(i)
						if w == 0 && i == each/2 && db.Checkpoint() != nil {
							return
						}
					}
				}(w)
			}
			var seen [mutators][keys]int64
			var stop atomic.Bool
			readerDone := make(chan struct{})
			go func() {
				defer close(readerDone)
				for !stop.Load() {
					for w := 0; w < mutators; w++ {
						for k := 0; k < keys; k++ {
							l, err := db.GetLifecycle(nil, fmt.Sprint("pool", w), fmt.Sprint("key", k))
							if err != nil {
								continue
							}
							if l.Accesses < seen[w][k] {
								t.Errorf("%v point %d: pool%d/key%d went back from version %d to %d", mode, point, w, k, seen[w][k], l.Accesses)
							}
							seen[w][k] = l.Accesses
						}
					}
				}
			}()
			wg.Wait()
			stop.Store(true)
			<-readerDone

			rec, err := metadb.OpenJournal(journalOpts(fsys.Recover(mode, int64(point))))
			if err != nil {
				t.Fatalf("%v point %d: recovery failed: %v", mode, point, err)
			}
			for w := 0; w < mutators; w++ {
				for k := 0; k < keys; k++ {
					var got int64
					if l, err := rec.GetLifecycle(nil, fmt.Sprint("pool", w), fmt.Sprint("key", k)); err == nil {
						got = l.Accesses
					}
					if got < acked[w][k] {
						t.Errorf("%v point %d: pool%d/key%d acked at version %d, recovered %d", mode, point, w, k, acked[w][k], got)
					}
					if got < seen[w][k] {
						t.Errorf("%v point %d: pool%d/key%d shown to a reader at version %d, recovered %d", mode, point, w, k, seen[w][k], got)
					}
				}
			}
			rec.CloseJournal()
		}
	}
}

// TestFlushHeldReadersRunBatchFails parks a flush and checks, while it
// is parked, (d) that readers are served and (c) that the mutations
// waiting for it are not visible; then fails it and checks (e): every
// mutation of the batch fails, none is applied, and the journal stays
// failed until it is reopened.
func TestFlushHeldReadersRunBatchFails(t *testing.T) {
	mem := faultfs.New()
	fsys := faultfs.NewSyncFS(mem, 0)
	db, err := metadb.OpenJournal(journalOpts(fsys))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.PutRun(nil, metadb.Run{ID: "before"}); err != nil {
		t.Fatal(err)
	}
	fsys.Hold()
	const batch = 3
	results := make(chan error, batch)
	for i := 0; i < batch; i++ {
		go func(i int) { results <- db.PutRun(nil, metadb.Run{ID: fmt.Sprint("held", i)}) }(i)
	}
	fsys.AwaitHeld()

	if _, err := db.GetRun(nil, "before"); err != nil {
		t.Fatalf("read during a flush: %v", err)
	}
	if n := len(db.Runs(nil)); n != 1 {
		t.Fatalf("%d runs visible during the flush, want only the durable one", n)
	}

	eio := errors.New("EIO")
	fsys.Release(eio)
	for i := 0; i < batch; i++ {
		if err := <-results; !errors.Is(err, eio) {
			t.Fatalf("mutation behind a failed flush returned %v", err)
		}
	}
	if n := len(db.Runs(nil)); n != 1 {
		t.Fatalf("%d runs visible after the failed flush: an unacknowledged mutation was applied", n)
	}
	if err := db.PutRun(nil, metadb.Run{ID: "after"}); !errors.Is(err, eio) {
		t.Fatalf("mutation after a failed flush returned %v", err)
	}
	if err := db.Checkpoint(); !errors.Is(err, eio) {
		t.Fatalf("checkpoint after a failed flush returned %v", err)
	}
	db.CloseJournal()
	if _, err := reopened(t, mem).GetRun(nil, "before"); err != nil {
		t.Fatalf("acknowledged run after reopen: %v", err)
	}
}

// TestTransientWriteErrorPoisonsJournal is the regression test for
// acknowledged rows lost behind a torn frame: one write fails and the
// disk recovers, but mutators used to carry on appending after the
// torn frame, where reopening truncates them away.
func TestTransientWriteErrorPoisonsJournal(t *testing.T) {
	mem := faultfs.New()
	db, err := metadb.OpenJournal(journalOpts(mem))
	if err != nil {
		t.Fatal(err)
	}
	var acked []string
	put := func(id string) error {
		err := db.PutRun(nil, metadb.Run{ID: id})
		if err == nil {
			acked = append(acked, id)
		}
		return err
	}
	for i := 0; i < 5; i++ {
		if err := put(fmt.Sprint("early", i)); err != nil {
			t.Fatal(err)
		}
	}
	mem.SetFault(1)
	if err := put("torn"); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("mutation over a failing write returned %v", err)
	}
	for i := 0; i < 3; i++ {
		if err := put(fmt.Sprint("late", i)); !errors.Is(err, faultfs.ErrInjected) {
			t.Errorf("mutation %d after the failed write returned %v, want the first failure", i, err)
		}
	}
	db.CloseJournal()
	rec := reopened(t, mem)
	for _, id := range acked {
		if _, err := rec.GetRun(nil, id); err != nil {
			t.Errorf("acknowledged run %q lost: %v", id, err)
		}
	}
}

// TestCheckpointQuiescesPipeline is invariant (f): checkpoints taken
// while mutations are in every stage of the pipeline lose none of them.
func TestCheckpointQuiescesPipeline(t *testing.T) {
	mem := faultfs.New()
	db, err := metadb.OpenJournal(journalOpts(faultfs.NewSyncFS(mem, 100*time.Microsecond)))
	if err != nil {
		t.Fatal(err)
	}
	const writers, each = 4, 30
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := db.PutRun(nil, metadb.Run{ID: fmt.Sprintf("w%d-%d", w, i%7), Iterations: i}); err != nil {
					t.Error(err)
					return
				}
				if err := db.AddSample(nil, metadb.PerfSample{Resource: "r", Op: "read", Size: int64(w*1000 + i), Seconds: 1}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 6; i++ {
			if err := db.Checkpoint(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if st, _ := db.JournalStats(); st.Compactions != 6 {
		t.Fatalf("%d compactions, want 6", st.Compactions)
	}
	want := canon(t, db)
	if err := db.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	if rep := wal.Check(mem, "journal"); !rep.OK() {
		t.Fatalf("journal after concurrent checkpoints: %v", rep.Problems)
	}
	if got := canon(t, reopened(t, mem)); got != want {
		t.Fatalf("replay differs from memory:\n got %s\nwant %s", got, want)
	}
}

// TestCloseJournalRacesMutators: CloseJournal used to clear the journal
// pointer with no lock, after which mutators applied and acknowledged
// rows that no journal held.  Now it drains the pipeline and later
// mutations fail, so memory and replay agree.
func TestCloseJournalRacesMutators(t *testing.T) {
	mem := faultfs.New()
	db, err := metadb.OpenJournal(journalOpts(mem))
	if err != nil {
		t.Fatal(err)
	}
	const mutators = 4
	underWay := make(chan struct{}, mutators)
	var wg sync.WaitGroup
	for w := 0; w < mutators; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				if err := db.PutRun(nil, metadb.Run{ID: fmt.Sprintf("w%d-%d", w, i)}); err != nil {
					return
				}
				if i == 10 {
					underWay <- struct{}{}
				}
			}
		}(w)
	}
	for w := 0; w < mutators; w++ {
		<-underWay
	}
	if err := db.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if err := db.PutRun(nil, metadb.Run{ID: "late"}); err == nil {
		t.Fatal("mutation after CloseJournal was acknowledged")
	}
	if err := db.Checkpoint(); err == nil {
		t.Fatal("checkpoint after CloseJournal succeeded")
	}
	if err := db.CloseJournal(); err != nil {
		t.Fatalf("second CloseJournal: %v", err)
	}
	if got, want := canon(t, reopened(t, mem)), canon(t, db); got != want {
		t.Fatalf("memory holds rows the journal does not:\n replay %s\n memory %s", got, want)
	}
}

// BenchmarkJournaledPut is one acknowledged mutation on a journal whose
// disk costs nothing, so ns/op and allocs/op are the pipeline's own:
// the JSON record, the frame, the ticket.
func BenchmarkJournaledPut(b *testing.B) {
	db, err := metadb.OpenJournal(wal.Options{FS: faultfs.New(), Dir: "journal"})
	if err != nil {
		b.Fatal(err)
	}
	defer db.CloseJournal()
	row := metadb.Lifecycle{Pool: "pool", Path: "key", State: "resident", Bytes: 4096}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row.Accesses = int64(i)
		if err := db.PutLifecycle(nil, row); err != nil {
			b.Fatal(err)
		}
	}
}
