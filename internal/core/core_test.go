package core

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/ioopt"
	"repro/internal/localdisk"
	"repro/internal/memfs"
	"repro/internal/metadb"
	"repro/internal/model"
	"repro/internal/pattern"
	"repro/internal/remotedisk"
	"repro/internal/storage"
	"repro/internal/tape"
	"repro/internal/vtime"
)

// env is a full three-resource system over memory stores.
type env struct {
	sys   *System
	sim   *vtime.Sim
	local storage.Backend
	rdisk storage.Backend
	rtape *tape.Library
}

func newEnv(t *testing.T) *env {
	t.Helper()
	sim := vtime.NewVirtual()
	local, err := localdisk.New("argonne-ssa", memfs.New())
	if err != nil {
		t.Fatal(err)
	}
	rdisk, err := remotedisk.New("sdsc-disk", memfs.New())
	if err != nil {
		t.Fatal(err)
	}
	rtape, err := tape.New(tape.Config{Name: "sdsc-hpss", Params: model.RemoteTape2000(), Store: memfs.New()})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(SystemConfig{
		Sim:        sim,
		Meta:       metadb.New(),
		LocalDisk:  local,
		RemoteDisk: rdisk,
		RemoteTape: rtape,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &env{sys: sys, sim: sim, local: local, rdisk: rdisk, rtape: rtape}
}

func fillBufs(t *testing.T, d *Dataset, seed byte) [][]byte {
	t.Helper()
	n := len(d.run.Procs())
	bufs := make([][]byte, n)
	for r := 0; r < n; r++ {
		sz, err := d.LocalSize(r)
		if err != nil {
			t.Fatal(err)
		}
		bufs[r] = make([]byte, sz)
		for i := range bufs[r] {
			bufs[r][i] = byte(i)*3 + seed + byte(r)
		}
	}
	return bufs
}

func TestParseLocation(t *testing.T) {
	cases := map[string]Location{
		"LOCALDISK": LocLocalDisk, "localdisk": LocLocalDisk,
		"REMOTEDISK": LocRemoteDisk, "REMOTETAPE": LocRemoteTape,
		"SDSCHPSS": LocRemoteTape, "AUTO": LocAuto, "DEFAULT": LocAuto,
		"": LocAuto, "DISABLE": LocDisable,
	}
	for in, want := range cases {
		got, err := ParseLocation(in)
		if err != nil || got != want {
			t.Errorf("ParseLocation(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseLocation("FLOPPY"); err == nil {
		t.Fatal("bad hint accepted")
	}
}

func TestHintPlacement(t *testing.T) {
	e := newEnv(t)
	run, err := e.sys.Initialize(RunConfig{ID: "r1", App: "astro3d", Iterations: 12, Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	specs := map[Location]string{
		LocLocalDisk:  "argonne-ssa",
		LocRemoteDisk: "sdsc-disk",
		LocRemoteTape: "sdsc-hpss",
		LocAuto:       "sdsc-hpss", // AUTO defaults to remote tapes
	}
	i := 0
	for loc, wantBackend := range specs {
		d, err := run.OpenDataset(DatasetSpec{
			Name: "ds" + loc.String(), AMode: storage.ModeCreate,
			Dims: []int{8, 8, 8}, Etype: 4, Location: loc, Frequency: 6,
		})
		if err != nil {
			t.Fatal(err)
		}
		if d.Backend().Name() != wantBackend {
			t.Errorf("%v placed on %q, want %q", loc, d.Backend().Name(), wantBackend)
		}
		i++
	}
}

func TestDisable(t *testing.T) {
	e := newEnv(t)
	run, _ := e.sys.Initialize(RunConfig{ID: "r1", Iterations: 10, Procs: 2})
	d, err := run.OpenDataset(DatasetSpec{
		Name: "unused", AMode: storage.ModeCreate,
		Dims: []int{4, 4}, Etype: 4, Location: LocDisable,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Disabled() {
		t.Fatal("dataset not disabled")
	}
	bufs := fillBufs(t, d, 0)
	before := vtime.MaxNow(run.Procs()...)
	if err := d.WriteIter(0, bufs); err != nil {
		t.Fatal(err)
	}
	if vtime.MaxNow(run.Procs()...) != before {
		t.Fatal("DISABLEd write charged time")
	}
	if run.IOTime() != 0 {
		t.Fatal("DISABLEd write accrued I/O time")
	}
	if err := d.ReadIter(0, bufs); !errors.Is(err, storage.ErrNotExist) {
		t.Fatalf("read of disabled dataset = %v", err)
	}
}

func TestWriteReadRoundTripAllBackends(t *testing.T) {
	for _, loc := range []Location{LocLocalDisk, LocRemoteDisk, LocRemoteTape} {
		e := newEnv(t)
		run, _ := e.sys.Initialize(RunConfig{ID: "r1", Iterations: 6, Procs: 4})
		d, err := run.OpenDataset(DatasetSpec{
			Name: "temp", AMode: storage.ModeCreate,
			Dims: []int{8, 8, 8}, Etype: 4, Location: loc, Frequency: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		bufs := fillBufs(t, d, 42)
		if err := d.WriteIter(0, bufs); err != nil {
			t.Fatalf("%v: %v", loc, err)
		}
		got := make([][]byte, len(bufs))
		for r := range got {
			got[r] = make([]byte, len(bufs[r]))
		}
		if err := d.ReadIter(0, got); err != nil {
			t.Fatalf("%v: %v", loc, err)
		}
		for r := range got {
			if !bytes.Equal(got[r], bufs[r]) {
				t.Fatalf("%v: rank %d round-trip mismatch", loc, r)
			}
		}
		if err := run.Finalize(); err != nil {
			t.Fatalf("%v finalize: %v", loc, err)
		}
	}
}

func TestOptimizationsRoundTripThroughAPI(t *testing.T) {
	for _, opt := range []ioopt.Kind{ioopt.Collective, ioopt.Naive, ioopt.DataSieving, ioopt.Subfile, ioopt.Superfile} {
		e := newEnv(t)
		run, _ := e.sys.Initialize(RunConfig{ID: "r1", Iterations: 4, Procs: 4})
		d, err := run.OpenDataset(DatasetSpec{
			Name: "vr_temp", AMode: storage.ModeCreate,
			Dims: []int{8, 8, 8}, Etype: 1, Location: LocLocalDisk, Opt: opt,
		})
		if err != nil {
			t.Fatalf("%v: %v", opt, err)
		}
		bufs := fillBufs(t, d, byte(opt))
		if err := d.WriteIter(0, bufs); err != nil {
			t.Fatalf("%v write: %v", opt, err)
		}
		got := make([][]byte, len(bufs))
		for r := range got {
			got[r] = make([]byte, len(bufs[r]))
		}
		if err := d.ReadIter(0, got); err != nil {
			t.Fatalf("%v read: %v", opt, err)
		}
		for r := range got {
			if !bytes.Equal(got[r], bufs[r]) {
				t.Fatalf("%v: rank %d mismatch", opt, r)
			}
		}
		if err := run.Finalize(); err != nil {
			t.Fatalf("%v finalize: %v", opt, err)
		}
	}
}

func TestReadGlobalMatchesWrites(t *testing.T) {
	e := newEnv(t)
	run, _ := e.sys.Initialize(RunConfig{ID: "r1", Iterations: 4, Procs: 4})
	d, _ := run.OpenDataset(DatasetSpec{
		Name: "temp", AMode: storage.ModeCreate,
		Dims: []int{8, 8, 8}, Etype: 4, Location: LocLocalDisk,
	})
	bufs := fillBufs(t, d, 7)
	if err := d.WriteIter(0, bufs); err != nil {
		t.Fatal(err)
	}
	reader := e.sim.NewProc("viewer")
	global, err := d.ReadGlobal(reader, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := d.assembleGlobal(bufs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(global, want) {
		t.Fatal("ReadGlobal mismatch")
	}
}

func TestCheckpointOverwritesSingleFile(t *testing.T) {
	e := newEnv(t)
	run, _ := e.sys.Initialize(RunConfig{ID: "r1", Iterations: 12, Procs: 2})
	d, _ := run.OpenDataset(DatasetSpec{
		Name: "restart_temp", AMode: storage.ModeOverWrite,
		Dims: []int{8, 8}, Etype: 4, Location: LocLocalDisk, Frequency: 6,
	})
	if d.InstancePath(0) != d.InstancePath(6) {
		t.Fatalf("checkpoint paths differ: %q vs %q", d.InstancePath(0), d.InstancePath(6))
	}
	b0 := fillBufs(t, d, 1)
	b1 := fillBufs(t, d, 99)
	if err := d.WriteIter(0, b0); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteIter(6, b1); err != nil {
		t.Fatal(err)
	}
	got := make([][]byte, 2)
	for r := range got {
		got[r] = make([]byte, len(b1[r]))
	}
	if err := d.ReadIter(6, got); err != nil {
		t.Fatal(err)
	}
	for r := range got {
		if !bytes.Equal(got[r], b1[r]) {
			t.Fatal("restart file does not hold the latest checkpoint")
		}
	}
}

// The §4.2 worked example, end to end through the API: vr-temp (2 MiB)
// to local disks and vr-press (2 MiB) to remote disks, every 6
// iterations of 120, collective I/O.  The paper predicts 180.57 s and
// measures ≈197.4 s; our measured total must land in that band.
func TestWorkedExampleIOTime(t *testing.T) {
	e := newEnv(t)
	run, _ := e.sys.Initialize(RunConfig{ID: "worked", App: "astro3d", Iterations: 120, Procs: 8})
	vrTemp, err := run.OpenDataset(DatasetSpec{
		Name: "vr_temp", AMode: storage.ModeCreate,
		Dims: []int{128, 128, 128}, Etype: 1, Location: LocLocalDisk, Frequency: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	vrPress, err := run.OpenDataset(DatasetSpec{
		Name: "vr_press", AMode: storage.ModeCreate,
		Dims: []int{128, 128, 128}, Etype: 1, Location: LocRemoteDisk, Frequency: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	bt := fillBufs(t, vrTemp, 1)
	bp := fillBufs(t, vrPress, 2)
	for i := 0; i < 120; i++ {
		if vrTemp.Due(i) {
			if err := vrTemp.WriteIter(i, bt); err != nil {
				t.Fatal(err)
			}
		}
		if vrPress.Due(i) {
			if err := vrPress.WriteIter(i, bp); err != nil {
				t.Fatal(err)
			}
		}
	}
	got := run.IOTime()
	// 21 dumps each; paper band [180, 200] s — allow ±15%.
	if got < 160*time.Second || got > 230*time.Second {
		t.Fatalf("worked-example I/O time = %v, want ≈180–200 s", got)
	}
	// Per-dataset split: local trivial, remote dominates.
	if lt := vrTemp.Stats().IOTime; lt > 15*time.Second {
		t.Fatalf("vr_temp local I/O = %v, want small", lt)
	}
	if rt := vrPress.Stats().IOTime; rt < 150*time.Second {
		t.Fatalf("vr_press remote I/O = %v, want ≈178 s", rt)
	}
}

func TestFailoverWhenTapeDown(t *testing.T) {
	e := newEnv(t)
	e.rtape.SetDown(true)
	run, _ := e.sys.Initialize(RunConfig{ID: "r1", Iterations: 6, Procs: 2})
	d, err := run.OpenDataset(DatasetSpec{
		Name: "press", AMode: storage.ModeCreate,
		Dims: []int{8, 8, 8}, Etype: 4, Location: LocAuto, Frequency: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.Backend().Kind() != storage.KindRemoteDisk {
		t.Fatalf("failover placed on %v, want remote disk", d.Backend().Kind())
	}
	bufs := fillBufs(t, d, 5)
	if err := d.WriteIter(0, bufs); err != nil {
		t.Fatalf("write after failover: %v", err)
	}
}

func TestExplicitHintFailsWhenEverythingDown(t *testing.T) {
	e := newEnv(t)
	e.rtape.SetDown(true)
	if o, ok := e.rdisk.(storage.Outage); ok {
		o.SetDown(true)
	}
	if o, ok := e.local.(storage.Outage); ok {
		o.SetDown(true)
	}
	run, _ := e.sys.Initialize(RunConfig{ID: "r1", Iterations: 6, Procs: 1})
	if _, err := run.OpenDataset(DatasetSpec{
		Name: "x", AMode: storage.ModeCreate, Dims: []int{4}, Etype: 1,
	}); !errors.Is(err, storage.ErrDown) {
		t.Fatalf("placement with all resources down = %v", err)
	}
}

func TestMetaDataRecorded(t *testing.T) {
	e := newEnv(t)
	run, _ := e.sys.Initialize(RunConfig{ID: "r9", App: "astro3d", User: "shen", Iterations: 120, Procs: 8})
	_, err := run.OpenDataset(DatasetSpec{
		Name: "temp", AMode: storage.ModeCreate,
		Dims: []int{128, 128, 128}, Etype: 4, Location: LocRemoteDisk, Frequency: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	row, err := e.sys.Meta().GetDataset(nil, "r9", "temp")
	if err != nil {
		t.Fatal(err)
	}
	if row.Pattern != "BBB" || row.Location != "REMOTEDISK" || row.Resource != "sdsc-disk" || row.Frequency != 6 {
		t.Fatalf("metadata row = %+v", row)
	}
	if row.Size() != 8*model.MiB {
		t.Fatalf("metadata size = %d", row.Size())
	}
	r, err := e.sys.Meta().GetRun(nil, "r9")
	if err != nil || r.Procs != 8 {
		t.Fatalf("run row = %+v, %v", r, err)
	}
}

func TestSpecValidation(t *testing.T) {
	e := newEnv(t)
	run, _ := e.sys.Initialize(RunConfig{ID: "r1", Iterations: 6, Procs: 2})
	if _, err := run.OpenDataset(DatasetSpec{Name: "", Dims: []int{4}, Etype: 1}); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := run.OpenDataset(DatasetSpec{Name: "a", Etype: 1}); err == nil {
		t.Fatal("missing dims accepted")
	}
	if _, err := run.OpenDataset(DatasetSpec{Name: "a", Dims: []int{4}, Etype: 0}); err == nil {
		t.Fatal("zero etype accepted")
	}
	p, _ := pattern.Parse("BB")
	if _, err := run.OpenDataset(DatasetSpec{Name: "a", Dims: []int{4}, Etype: 1, Pattern: p, AMode: storage.ModeCreate}); err == nil {
		t.Fatal("pattern/dims rank mismatch accepted")
	}
	if _, err := run.OpenDataset(DatasetSpec{Name: "ok", Dims: []int{4, 4}, Etype: 1, AMode: storage.ModeCreate}); err != nil {
		t.Fatal(err)
	}
	if _, err := run.OpenDataset(DatasetSpec{Name: "ok", Dims: []int{4, 4}, Etype: 1, AMode: storage.ModeCreate}); err == nil {
		t.Fatal("duplicate dataset accepted")
	}
}

func TestRunValidation(t *testing.T) {
	e := newEnv(t)
	if _, err := e.sys.Initialize(RunConfig{ID: "", Iterations: 5}); err == nil {
		t.Fatal("empty run ID accepted")
	}
	if _, err := e.sys.Initialize(RunConfig{ID: "x", Iterations: 0}); err == nil {
		t.Fatal("zero iterations accepted")
	}
	run, err := e.sys.Initialize(RunConfig{ID: "x", Iterations: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Procs()) != 1 {
		t.Fatalf("default procs = %d, want 1", len(run.Procs()))
	}
	if err := run.Finalize(); err != nil {
		t.Fatal(err)
	}
	if err := run.Finalize(); !errors.Is(err, storage.ErrClosed) {
		t.Fatalf("double finalize = %v", err)
	}
}

func TestSystemValidation(t *testing.T) {
	if _, err := NewSystem(SystemConfig{}); err == nil {
		t.Fatal("system without sim accepted")
	}
	if _, err := NewSystem(SystemConfig{Sim: vtime.NewVirtual()}); err == nil {
		t.Fatal("system without backends accepted")
	}
}

func TestDatasetGridRespectsReplicatedDims(t *testing.T) {
	e := newEnv(t)
	run, _ := e.sys.Initialize(RunConfig{ID: "r1", Iterations: 4, Procs: 4})
	p, _ := pattern.Parse("B*B")
	d, err := run.OpenDataset(DatasetSpec{
		Name: "x", AMode: storage.ModeCreate,
		Dims: []int{8, 8, 8}, Etype: 1, Pattern: p, Location: LocLocalDisk,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := d.Grid()
	if g[1] != 1 || g.Procs() != 4 {
		t.Fatalf("grid = %v", g)
	}
}

func TestDueFrequency(t *testing.T) {
	e := newEnv(t)
	run, _ := e.sys.Initialize(RunConfig{ID: "r1", Iterations: 120, Procs: 1})
	d, _ := run.OpenDataset(DatasetSpec{
		Name: "x", AMode: storage.ModeCreate, Dims: []int{4}, Etype: 1,
		Location: LocLocalDisk, Frequency: 6,
	})
	dumps := 0
	for i := 0; i < 120; i++ {
		if d.Due(i) {
			dumps++
		}
	}
	// The paper counts N/freq + 1 = 21 dumps for N=120, freq=6 (i = 0,
	// 6, ..., 114 plus the final state at 120).
	if dumps != 20 {
		t.Fatalf("in-loop dumps = %d, want 20 (i %% 6 == 0 in [0,120))", dumps)
	}
}
