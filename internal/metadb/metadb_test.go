package metadb

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/vtime"
)

func TestRunCRUD(t *testing.T) {
	db := New()
	if err := db.PutRun(nil, Run{ID: "r1", App: "astro3d", User: "shen", Iterations: 120, Procs: 8}); err != nil {
		t.Fatal(err)
	}
	r, err := db.GetRun(nil, "r1")
	if err != nil || r.App != "astro3d" {
		t.Fatalf("GetRun = %+v, %v", r, err)
	}
	if _, err := db.GetRun(nil, "nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing run = %v", err)
	}
	if err := db.PutRun(nil, Run{}); err == nil {
		t.Fatal("empty run ID accepted")
	}
	db.PutRun(nil, Run{ID: "r0"})
	runs := db.Runs(nil)
	if len(runs) != 2 || runs[0].ID != "r0" {
		t.Fatalf("Runs = %v", runs)
	}
}

func TestDatasetCRUDAndSize(t *testing.T) {
	db := New()
	d := Dataset{
		RunID: "r1", Name: "temp", AMode: "create", NDims: 3,
		Dims: []int{128, 128, 128}, ETypeSize: 4, Pattern: "BBB",
		Location: "REMOTEDISK", Frequency: 6,
	}
	if err := db.PutDataset(nil, d); err != nil {
		t.Fatal(err)
	}
	got, err := db.GetDataset(nil, "r1", "temp")
	if err != nil || got.Pattern != "BBB" {
		t.Fatalf("GetDataset = %+v, %v", got, err)
	}
	if got.Size() != 8*1024*1024 {
		t.Fatalf("Size = %d, want 8 MiB", got.Size())
	}
	if _, err := db.GetDataset(nil, "r1", "nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing dataset = %v", err)
	}
	if err := db.PutDataset(nil, Dataset{}); err == nil {
		t.Fatal("empty dataset key accepted")
	}
	if (Dataset{}).Size() != 0 {
		t.Fatal("empty dataset size != 0")
	}
}

func TestDatasetsForRunAndQuery(t *testing.T) {
	db := New()
	for _, name := range []string{"temp", "press", "rho"} {
		db.PutDataset(nil, Dataset{RunID: "r1", Name: name, Location: "SDSCHPSS"})
	}
	db.PutDataset(nil, Dataset{RunID: "r2", Name: "temp", Location: "LOCALDISK"})
	ds := db.QueryDatasets(nil, func(d Dataset) bool { return d.RunID == "r1" })
	if len(ds) != 3 || ds[0].Name != "press" {
		t.Fatalf("QueryDatasets by run = %v", ds)
	}
	q := db.QueryDatasets(nil, func(d Dataset) bool { return d.Location == "LOCALDISK" })
	if len(q) != 1 || q[0].RunID != "r2" {
		t.Fatalf("QueryDatasets = %v", q)
	}
}

func TestSamplesSortedAndAveraged(t *testing.T) {
	db := New()
	db.AddSample(nil, PerfSample{Resource: "localdisk", Op: "write", Size: 2048, Seconds: 0.4})
	db.AddSample(nil, PerfSample{Resource: "localdisk", Op: "write", Size: 1024, Seconds: 0.1})
	db.AddSample(nil, PerfSample{Resource: "localdisk", Op: "write", Size: 2048, Seconds: 0.6})
	db.AddSample(nil, PerfSample{Resource: "localdisk", Op: "read", Size: 1024, Seconds: 9})
	got := db.Samples(nil, "localdisk", "write")
	if len(got) != 2 {
		t.Fatalf("Samples = %v", got)
	}
	if got[0].Size != 1024 || got[1].Size != 2048 {
		t.Fatalf("not sorted: %v", got)
	}
	if got[1].Seconds != 0.5 {
		t.Fatalf("duplicate sizes not averaged: %v", got[1])
	}
}

func TestConstants(t *testing.T) {
	db := New()
	db.SetConstant(nil, PerfConstant{Resource: "remotetape", Op: "read", Component: CompOpen, Seconds: 6.17})
	db.SetConstant(nil, PerfConstant{Resource: "remotetape", Op: "read", Component: CompOpen, Seconds: 6.20})
	if got := db.Constant(nil, "remotetape", "read", CompOpen); got != 6.20 {
		t.Fatalf("Constant = %v, want replaced 6.20", got)
	}
	if got := db.Constant(nil, "remotetape", "read", CompSeek); got != 0 {
		t.Fatalf("missing constant = %v, want 0", got)
	}
	if n := len(db.Constants(nil)); n != 1 {
		t.Fatalf("Constants rows = %d, want 1 (replace, not append)", n)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	db := New()
	db.PutRun(nil, Run{ID: "r1", App: "astro3d"})
	db.PutDataset(nil, Dataset{RunID: "r1", Name: "temp", Dims: []int{4, 4, 4}, ETypeSize: 4})
	db.AddSample(nil, PerfSample{Resource: "x", Op: "write", Size: 8, Seconds: 1})
	db.SetConstant(nil, PerfConstant{Resource: "x", Op: "write", Component: CompConn, Seconds: 0.44})

	path := filepath.Join(t.TempDir(), "meta.json")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	db2 := New()
	if err := db2.Load(path); err != nil {
		t.Fatal(err)
	}
	if _, err := db2.GetRun(nil, "r1"); err != nil {
		t.Fatal(err)
	}
	d, err := db2.GetDataset(nil, "r1", "temp")
	if err != nil || d.Size() != 256 {
		t.Fatalf("dataset after load = %+v, %v", d, err)
	}
	if len(db2.Samples(nil, "x", "write")) != 1 {
		t.Fatal("samples lost")
	}
	if db2.Constant(nil, "x", "write", CompConn) != 0.44 {
		t.Fatal("constants lost")
	}
}

func TestLoadMissingFile(t *testing.T) {
	db := New()
	if err := db.Load(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Fatal("load of missing file succeeded")
	}
}

func TestChargesClock(t *testing.T) {
	db := New()
	p := vtime.NewVirtual().NewProc("p")
	db.PutRun(p, Run{ID: "r"})
	if p.Now() == 0 {
		t.Fatal("meta-data write charged nothing")
	}
	before := p.Now()
	db.GetRun(p, "r")
	if p.Now() == before {
		t.Fatal("meta-data read charged nothing")
	}
}

func TestTable1String(t *testing.T) {
	db := New()
	db.SetConstant(nil, PerfConstant{Resource: "remotedisk", Op: "read", Component: CompConn, Seconds: 0.44})
	db.SetConstant(nil, PerfConstant{Resource: "remotedisk", Op: "read", Component: CompOpen, Seconds: 0.42})
	s := db.Table1String()
	if !strings.Contains(s, "remotedisk") || !strings.Contains(s, "0.44") {
		t.Fatalf("Table1String missing rows:\n%s", s)
	}
	if !strings.Contains(s, "-") {
		t.Fatalf("missing components should render as '-':\n%s", s)
	}
}

func TestReplaceSamples(t *testing.T) {
	db := New()
	db.AddSample(nil, PerfSample{Resource: "r", Op: "write", Size: 100, Seconds: 1})
	db.AddSample(nil, PerfSample{Resource: "r", Op: "write", Size: 200, Seconds: 2})
	db.AddSample(nil, PerfSample{Resource: "r", Op: "read", Size: 100, Seconds: 5})
	db.AddSample(nil, PerfSample{Resource: "other", Op: "write", Size: 100, Seconds: 9})

	db.ReplaceSamples(nil, "r", "write", []PerfSample{
		{Size: 150, Seconds: 3},
		{Size: 300, Seconds: 6},
	})
	got := db.Samples(nil, "r", "write")
	if len(got) != 2 || got[0].Size != 150 || got[0].Seconds != 3 || got[1].Size != 300 {
		t.Fatalf("replaced curve = %+v", got)
	}
	// Other (resource, op) pairs untouched.
	if rd := db.Samples(nil, "r", "read"); len(rd) != 1 || rd[0].Seconds != 5 {
		t.Fatalf("r/read disturbed: %+v", rd)
	}
	if o := db.Samples(nil, "other", "write"); len(o) != 1 || o[0].Seconds != 9 {
		t.Fatalf("other/write disturbed: %+v", o)
	}
	// Mismatched key fields in the input are rewritten to the arguments.
	db.ReplaceSamples(nil, "r", "read", []PerfSample{{Resource: "bogus", Op: "write", Size: 50, Seconds: 7}})
	if rd := db.Samples(nil, "r", "read"); len(rd) != 1 || rd[0].Size != 50 {
		t.Fatalf("keyed replace = %+v", rd)
	}
	// Replacing with nil clears the curve.
	db.ReplaceSamples(nil, "r", "read", nil)
	if rd := db.Samples(nil, "r", "read"); len(rd) != 0 {
		t.Fatalf("clear failed: %+v", rd)
	}
}

// Property: Samples returns sizes strictly increasing for any insert order.
func TestQuickSamplesSorted(t *testing.T) {
	f := func(sizes []uint16) bool {
		db := New()
		for _, s := range sizes {
			db.AddSample(nil, PerfSample{Resource: "r", Op: "write", Size: int64(s), Seconds: 1})
		}
		got := db.Samples(nil, "r", "write")
		for i := 1; i < len(got); i++ {
			if got[i-1].Size >= got[i].Size {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
