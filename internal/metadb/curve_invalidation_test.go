package metadb_test

import (
	"sync"
	"testing"

	"repro/internal/faultfs"
	"repro/internal/metadb"
	"repro/internal/predict"
	"repro/internal/vtime"
)

// recorder is a Replicator that keeps the records it is offered, the
// way a cluster leader's log does before feeding them to ApplyRecord.
type recorder struct {
	typ  []byte
	data [][]byte
}

func (r *recorder) Replicate(_ *vtime.Proc, typ byte, data []byte) error {
	r.typ = append(r.typ, typ)
	r.data = append(r.data, append([]byte(nil), data...))
	return nil
}

// TestUnitSeesEverySampleWrite: the compiled curve is dropped at each
// of the five places that write the sample table, so the Unit right
// after a write is never the one from before it.  Every case starts
// from the curve {100 B: 1 s} with Unit(100) = 1 already evaluated —
// the cache is warm — and ends on a curve where Unit(100) = 7.
func TestUnitSeesEverySampleWrite(t *testing.T) {
	const res, op = "remotedisk", "write"
	old := metadb.PerfSample{Resource: res, Op: op, Size: 100, Seconds: 1}
	fresh := []metadb.PerfSample{{Size: 100, Seconds: 7}, {Size: 200, Seconds: 9}}
	must := func(t *testing.T, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	// replica returns a database that already holds the new curve.
	replica := func(t *testing.T) *metadb.DB {
		db := metadb.New()
		must(t, db.ReplaceSamples(nil, res, op, fresh))
		return db
	}
	cases := []struct {
		site  string
		write func(t *testing.T, db *metadb.DB) *metadb.DB // returns the database to read afterwards
	}{
		{"AddSample", func(t *testing.T, db *metadb.DB) *metadb.DB {
			// A second row of the same size averages in: (1 + 13) / 2.
			must(t, db.AddSample(nil, metadb.PerfSample{Resource: res, Op: op, Size: 100, Seconds: 13}))
			return db
		}},
		{"replaceSamplesLocked", func(t *testing.T, db *metadb.DB) *metadb.DB {
			must(t, db.ReplaceSamples(nil, res, op, fresh))
			return db
		}},
		{"apply/recAddSample+recReplaceSamples on a live replica", func(t *testing.T, db *metadb.DB) *metadb.DB {
			// Capture the two records as a leader would log them, then
			// apply them through the replay switch with the cache warm.
			rec := &recorder{}
			leader := metadb.New()
			leader.SetReplicator(rec)
			must(t, leader.AddSample(nil, metadb.PerfSample{Resource: res, Op: op, Size: 100, Seconds: 13}))
			must(t, leader.ReplaceSamples(nil, res, op, fresh))
			must(t, db.ApplyRecord(rec.typ[0], rec.data[0]))
			if got, _ := predict.NewDB(db).Unit(res, op, 100); got != 7 {
				t.Fatalf("Unit after the replayed AddSample = %v, want 7 ((1+13)/2)", got)
			}
			must(t, db.ApplyRecord(rec.typ[1], rec.data[1]))
			return db
		}},
		{"apply/journal close and reopen", func(t *testing.T, _ *metadb.DB) *metadb.DB {
			fsys := faultfs.New()
			db, err := metadb.OpenJournal(journalOpts(fsys))
			must(t, err)
			must(t, db.AddSample(nil, old))
			must(t, db.Checkpoint()) // the snapshot holds the old curve; both arms replay after it
			must(t, db.AddSample(nil, metadb.PerfSample{Resource: res, Op: op, Size: 300, Seconds: 3}))
			must(t, db.ReplaceSamples(nil, res, op, fresh))
			must(t, db.CloseJournal())
			re, err := metadb.OpenJournal(journalOpts(fsys))
			must(t, err)
			t.Cleanup(func() { re.CloseJournal() })
			return re
		}},
		{"install", func(t *testing.T, db *metadb.DB) *metadb.DB {
			fsys := faultfs.New()
			must(t, replica(t).SaveFS(fsys, "snap.json"))
			must(t, db.LoadFS(fsys, "snap.json"))
			return db
		}},
		{"CopyFrom", func(t *testing.T, db *metadb.DB) *metadb.DB {
			db.CopyFrom(replica(t))
			return db
		}},
	}
	for _, tc := range cases {
		t.Run(tc.site, func(t *testing.T) {
			db := metadb.New()
			must(t, db.AddSample(nil, old))
			if got, err := predict.NewDB(db).Unit(res, op, 100); err != nil || got != 1 {
				t.Fatalf("Unit before = %v, %v; want 1", got, err)
			}
			db = tc.write(t, db)
			if got, err := predict.NewDB(db).Unit(res, op, 100); err != nil || got != 7 {
				t.Fatalf("Unit right after = %v, %v; want 7", got, err)
			}
		})
	}
}

// TestUnitNeverBlendsCurves (run under -race): readers evaluating Unit
// beside a writer that swaps the whole curve back and forth see one
// curve or the other, never a mix of their points.
func TestUnitNeverBlendsCurves(t *testing.T) {
	const res, op = "remotedisk", "read"
	curves := [2][]metadb.PerfSample{
		{{Size: 100, Seconds: 1}, {Size: 300, Seconds: 3}},
		{{Size: 100, Seconds: 10}, {Size: 300, Seconds: 50}},
	}
	db := metadb.New()
	pdb := predict.NewDB(db)
	if err := db.ReplaceSamples(nil, res, op, curves[0]); err != nil {
		t.Fatal(err)
	}
	// Unit(200) is 2 on one curve and 30 on the other; a blend of their
	// points would give 25.5 or 6.5.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if got, err := pdb.Unit(res, op, 200); err != nil || (got != 2 && got != 30) {
					t.Errorf("Unit beside a ReplaceSamples writer = %v, %v; want 2 or 30", got, err)
					return
				}
			}
		}()
	}
	for i := 1; i <= 2000; i++ {
		if err := db.ReplaceSamples(nil, res, op, curves[i%2]); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestSamplesIsAPrivateCopy: scribbling on what Samples returned does
// not reach the curve the next Unit reads.
func TestSamplesIsAPrivateCopy(t *testing.T) {
	db := metadb.New()
	db.AddSample(nil, metadb.PerfSample{Resource: "r", Op: "read", Size: 100, Seconds: 1})
	db.AddSample(nil, metadb.PerfSample{Resource: "r", Op: "read", Size: 200, Seconds: 2})
	got := db.Samples(nil, "r", "read")
	for i := range got {
		got[i].Size, got[i].Seconds = 1, 99
	}
	if sec, err := predict.NewDB(db).Unit("r", "read", 150); err != nil || sec != 1.5 {
		t.Fatalf("Unit after mutating Samples' slice = %v, %v; want 1.5", sec, err)
	}
}
