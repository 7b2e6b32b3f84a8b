package predict

import (
	"math"
	"strings"
	"testing"

	"repro/internal/ioopt"
	"repro/internal/localdisk"
	"repro/internal/memfs"
	"repro/internal/metadb"
	"repro/internal/model"
	"repro/internal/ptool"
	"repro/internal/remotedisk"
	"repro/internal/tape"
	"repro/internal/vtime"
)

// measuredDB builds a performance database by running PTool against all
// three resources.
func measuredDB(t testing.TB) *metadb.DB {
	t.Helper()
	meta := metadb.New()
	sim := vtime.NewVirtual()
	local, err := localdisk.New("ssa", memfs.New())
	if err != nil {
		t.Fatal(err)
	}
	rdisk, err := remotedisk.New("sdsc-disk", memfs.New())
	if err != nil {
		t.Fatal(err)
	}
	rtape, err := tape.New(tape.Config{Name: "hpss", Params: model.RemoteTape2000(), Store: memfs.New()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ptool.MeasureAll(sim, meta, ptool.Config{Repeats: 1}, local, rdisk, rtape); err != nil {
		t.Fatal(err)
	}
	return meta
}

func TestUnitInterpolation(t *testing.T) {
	meta := metadb.New()
	meta.AddSample(nil, metadb.PerfSample{Resource: "r", Op: "write", Size: 1000, Seconds: 1})
	meta.AddSample(nil, metadb.PerfSample{Resource: "r", Op: "write", Size: 3000, Seconds: 3})
	db := NewDB(meta)
	got, err := db.Unit("r", "write", 2000)
	if err != nil || math.Abs(got-2) > 1e-9 {
		t.Fatalf("interpolated Unit = %v, %v", got, err)
	}
	// Extrapolation beyond the last point follows the last slope.
	got, _ = db.Unit("r", "write", 5000)
	if math.Abs(got-5) > 1e-9 {
		t.Fatalf("extrapolated Unit = %v", got)
	}
	// Below the first point.
	got, _ = db.Unit("r", "write", 500)
	if math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("low extrapolated Unit = %v", got)
	}
	if _, err := db.Unit("absent", "write", 100); err == nil {
		t.Fatal("missing resource predicted")
	}
}

// TestUnitSmallSizeFloor is the regression test for the free-small-I/O
// bug: with a steep first segment — (1000 B, 1 s) → (2000 B, 3 s) — the
// linear extension through size 100 evaluates to −0.8 s, which the old
// code clamped to exactly 0.  The fix floors at the smallest sample
// pro-rata: 1 s × 100/1000 = 0.1 s.
func TestUnitSmallSizeFloor(t *testing.T) {
	meta := metadb.New()
	meta.AddSample(nil, metadb.PerfSample{Resource: "r", Op: "write", Size: 1000, Seconds: 1})
	meta.AddSample(nil, metadb.PerfSample{Resource: "r", Op: "write", Size: 2000, Seconds: 3})
	db := NewDB(meta)
	got, err := db.Unit("r", "write", 100)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.1) > 1e-9 {
		t.Fatalf("Unit(100) = %v, want pro-rata floor 0.1 (old code predicted 0: free I/O)", got)
	}
	// Monotone in size through the extrapolation regime.
	prev := 0.0
	for _, size := range []int64{1, 10, 100, 500, 900, 1000} {
		u, err := db.Unit("r", "write", size)
		if err != nil {
			t.Fatal(err)
		}
		if u <= prev && size > 1 {
			t.Fatalf("Unit not increasing: Unit(%d) = %v after %v", size, u, prev)
		}
		if u <= 0 {
			t.Fatalf("Unit(%d) = %v, must stay positive", size, u)
		}
		prev = u
	}
	// Above the smallest sample the interpolation is untouched.
	got, _ = db.Unit("r", "write", 1500)
	if math.Abs(got-2) > 1e-9 {
		t.Fatalf("Unit(1500) = %v, want 2", got)
	}
}

func TestUnitSingleSampleScales(t *testing.T) {
	meta := metadb.New()
	meta.AddSample(nil, metadb.PerfSample{Resource: "r", Op: "read", Size: 100, Seconds: 2})
	got, err := NewDB(meta).Unit("r", "read", 50)
	if err != nil || math.Abs(got-1) > 1e-9 {
		t.Fatalf("single-sample Unit = %v, %v", got, err)
	}
}

// The §4.2 worked example through the measured database: vr-temp
// (2 MiB, LOCALDISK) + vr-press (2 MiB, REMOTEDISK), N = 120, freq = 6,
// collective I/O.  The paper computes 180.57 s; our calibration must
// land within ±15%.
func TestWorkedExample(t *testing.T) {
	db := NewDB(measuredDB(t))
	req := RunReq{
		Iterations: 120,
		Op:         "write",
		Datasets: []DatasetReq{
			{Name: "vr_temp", AMode: "create", Dims: []int{128, 128, 128}, Etype: 1,
				Pattern: "BBB", Location: "localdisk", Frequency: 6, Procs: 8},
			{Name: "vr_press", AMode: "create", Dims: []int{128, 128, 128}, Etype: 1,
				Pattern: "BBB", Location: "remotedisk", Frequency: 6, Procs: 8},
		},
	}
	got, err := db.Predict(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Datasets) != 2 {
		t.Fatalf("datasets = %d", len(got.Datasets))
	}
	if got.Datasets[0].Dumps != 21 {
		t.Fatalf("dumps = %d, want 21 (N/freq + 1)", got.Datasets[0].Dumps)
	}
	if got.Datasets[0].NativeCalls != 1 {
		t.Fatalf("collective n(j) = %d, want 1", got.Datasets[0].NativeCalls)
	}
	paper := 180.57
	if ratio := got.Total.Seconds() / paper; ratio < 0.85 || ratio > 1.15 {
		t.Fatalf("worked example prediction = %.2f s, want within 15%% of %.2f", got.Total.Seconds(), paper)
	}
}

// Figure 11 per-dataset check: an 8 MiB float dataset on tape predicts
// ≈3036 s over the run; on remote disk ≈812 s.
func TestFig11DatasetRows(t *testing.T) {
	db := NewDB(measuredDB(t))
	tapeRow, err := db.PredictDataset(DatasetReq{
		Name: "press", AMode: "create", Dims: []int{128, 128, 128}, Etype: 4,
		Pattern: "BBB", Location: "remotetape", Frequency: 6, Procs: 8,
	}, 120)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := tapeRow.VirtualTime.Seconds() / 3036.34; ratio < 0.85 || ratio > 1.15 {
		t.Fatalf("tape 8 MiB dataset = %.1f s, want ≈3036 s", tapeRow.VirtualTime.Seconds())
	}
	diskRow, err := db.PredictDataset(DatasetReq{
		Name: "temp", AMode: "create", Dims: []int{128, 128, 128}, Etype: 4,
		Pattern: "BBB", Location: "remotedisk", Frequency: 6, Procs: 8,
	}, 120)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := diskRow.VirtualTime.Seconds() / 812.45; ratio < 0.80 || ratio > 1.20 {
		t.Fatalf("remote disk 8 MiB dataset = %.1f s, want ≈812 s", diskRow.VirtualTime.Seconds())
	}
}

func TestDisabledDatasetPredictsZero(t *testing.T) {
	db := NewDB(measuredDB(t))
	row, err := db.PredictDataset(DatasetReq{Name: "unused", Location: "DISABLE", Dims: []int{8}, Etype: 1, Pattern: "B"}, 120)
	if err != nil {
		t.Fatal(err)
	}
	if row.VirtualTime != 0 || row.Resource != "-" {
		t.Fatalf("disabled row = %+v", row)
	}
}

func TestNaivePredictsManyCalls(t *testing.T) {
	db := NewDB(measuredDB(t))
	naive, err := db.PredictDataset(DatasetReq{
		Name: "x", AMode: "create", Dims: []int{16, 16, 16}, Etype: 4,
		Pattern: "BBB", Location: "remotedisk", Frequency: 1, Procs: 8, Opt: ioopt.Naive,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	coll, err := db.PredictDataset(DatasetReq{
		Name: "x", AMode: "create", Dims: []int{16, 16, 16}, Etype: 4,
		Pattern: "BBB", Location: "remotedisk", Frequency: 1, Procs: 8, Opt: ioopt.Collective,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if naive.NativeCalls <= coll.NativeCalls {
		t.Fatalf("naive calls = %d, collective = %d", naive.NativeCalls, coll.NativeCalls)
	}
	if naive.VirtualTime <= coll.VirtualTime {
		t.Fatalf("naive %v must exceed collective %v", naive.VirtualTime, coll.VirtualTime)
	}
}

func TestPredictErrors(t *testing.T) {
	db := NewDB(metadb.New())
	if _, err := db.PredictDataset(DatasetReq{Name: "x", Dims: []int{4}, Etype: 1, Pattern: "Q", Location: "localdisk"}, 10); err == nil {
		t.Fatal("bad pattern accepted")
	}
	if _, err := db.PredictDataset(DatasetReq{Name: "x", Dims: []int{4}, Etype: 1, Pattern: "B", Location: "localdisk"}, 10); err == nil {
		t.Fatal("empty perf DB predicted")
	}
}

func TestTableString(t *testing.T) {
	db := NewDB(measuredDB(t))
	rp, err := db.Predict(RunReq{
		Iterations: 120, Op: "write",
		Datasets: []DatasetReq{{
			Name: "temp", AMode: "create", Dims: []int{128, 128, 128}, Etype: 4,
			Pattern: "BBB", Location: "remotedisk", Frequency: 6, Procs: 8,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := rp.TableString()
	if !strings.Contains(s, "temp") || !strings.Contains(s, "VIRTUALTIME") || !strings.Contains(s, "TOTAL") {
		t.Fatalf("table:\n%s", s)
	}
}

func TestPredictTotalsAddConnOnce(t *testing.T) {
	db := NewDB(measuredDB(t))
	one, err := db.Predict(RunReq{Iterations: 6, Op: "write", Datasets: []DatasetReq{
		{Name: "a", AMode: "create", Dims: []int{64, 64, 64}, Etype: 4, Pattern: "BBB", Location: "remotedisk", Frequency: 6, Procs: 4},
	}})
	if err != nil {
		t.Fatal(err)
	}
	two, err := db.Predict(RunReq{Iterations: 6, Op: "write", Datasets: []DatasetReq{
		{Name: "a", AMode: "create", Dims: []int{64, 64, 64}, Etype: 4, Pattern: "BBB", Location: "remotedisk", Frequency: 6, Procs: 4},
		{Name: "b", AMode: "create", Dims: []int{64, 64, 64}, Etype: 4, Pattern: "BBB", Location: "remotedisk", Frequency: 6, Procs: 4},
	}})
	if err != nil {
		t.Fatal(err)
	}
	perDS := two.Datasets[0].VirtualTime
	wantTwo := one.Total + perDS // same conn charge, one more dataset
	if diff := (two.Total - wantTwo).Seconds(); math.Abs(diff) > 1e-6 {
		t.Fatalf("conn charged per dataset? two=%v want=%v", two.Total, wantTwo)
	}

}

func TestNormalizeAMode(t *testing.T) {
	cases := []struct {
		in   string
		want string
		ok   bool
	}{
		{"read", "read", true},
		{"READ", "read", true},
		{"Read", "read", true},
		{" read ", "read", true},
		{"create", "write", true},
		{"CREATE", "write", true},
		{"over_write", "write", true},
		{"Over_Write", "write", true},
		{"write", "write", true},
		{"", "", false},
		{"append", "", false},
		{"rea", "", false},
	}
	for _, c := range cases {
		got, err := NormalizeAMode(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("NormalizeAMode(%q) = %q, %v; want %q", c.in, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("NormalizeAMode(%q) accepted as %q, want error", c.in, got)
		}
	}
}

// Regression: "READ"/"Read" used to fall through the lowercase
// comparison and get priced with the write curves.
func TestPredictDatasetAModeCaseInsensitive(t *testing.T) {
	db := NewDB(measuredDB(t))
	base := DatasetReq{
		Name: "temp", Dims: []int{64, 64, 64}, Etype: 4,
		Pattern: "BBB", Location: "remotetape", Frequency: 6, Procs: 8,
	}
	lower := base
	lower.AMode = "read"
	ref, err := db.PredictDataset(lower, 24)
	if err != nil {
		t.Fatal(err)
	}
	wr := base
	wr.AMode = "create"
	wrote, err := db.PredictDataset(wr, 24)
	if err != nil {
		t.Fatal(err)
	}
	if ref.VirtualTime == wrote.VirtualTime {
		t.Fatal("tape read and write predictions coincide; test cannot distinguish curves")
	}
	for _, amode := range []string{"READ", "Read", "ReAd"} {
		req := base
		req.AMode = amode
		got, err := db.PredictDataset(req, 24)
		if err != nil {
			t.Fatalf("AMode %q: %v", amode, err)
		}
		if got.VirtualTime != ref.VirtualTime {
			t.Fatalf("AMode %q priced as %v, want read pricing %v (write pricing is %v)",
				amode, got.VirtualTime, ref.VirtualTime, wrote.VirtualTime)
		}
	}
	bad := base
	bad.AMode = "append"
	if _, err := db.PredictDataset(bad, 24); err == nil {
		t.Fatal("unknown AMode accepted")
	}
}

// Regression: Predict charged every resource's connection constants
// with the single run-level Op (defaulting to "write"), so a resource
// that is only read from was priced with the write conn constants.
func TestPredictConnPerResourceOp(t *testing.T) {
	meta := metadb.New()
	set := func(op, comp string, secs float64) {
		if err := meta.SetConstant(nil, metadb.PerfConstant{Resource: "r", Op: op, Component: comp, Seconds: secs}); err != nil {
			t.Fatal(err)
		}
	}
	// Deliberately asymmetric conn constants so a wrong op is visible.
	set("read", metadb.CompConn, 5)
	set("read", metadb.CompConnClose, 7)
	set("write", metadb.CompConn, 100)
	set("write", metadb.CompConnClose, 200)
	if err := meta.AddSample(nil, metadb.PerfSample{Resource: "r", Op: "read", Size: 1000, Seconds: 1}); err != nil {
		t.Fatal(err)
	}
	if err := meta.AddSample(nil, metadb.PerfSample{Resource: "r", Op: "write", Size: 1000, Seconds: 2}); err != nil {
		t.Fatal(err)
	}
	db := NewDB(meta)

	rd := DatasetReq{Name: "in", AMode: "read", Dims: []int{1000}, Etype: 1,
		Pattern: "B", Location: "r", Frequency: 1, Procs: 1}
	// A read-only run on r must pay the read conn constants: one
	// whole-dataset call (1 s) + conn 5 + connClose 7 = 13 s.  The old
	// code charged the write pair (100 + 200) because RunReq.Op
	// defaulted to "write".
	got, err := db.Predict(RunReq{Iterations: 0, Datasets: []DatasetReq{rd}})
	if err != nil {
		t.Fatal(err)
	}
	if want := 13.0; math.Abs(got.Total.Seconds()-want) > 1e-6 {
		t.Fatalf("read-only run total = %v s, want %v (read conn constants)", got.Total.Seconds(), want)
	}
	// Setting Op explicitly must not change per-dataset conn pricing.
	got, err = db.Predict(RunReq{Iterations: 0, Op: "write", Datasets: []DatasetReq{rd}})
	if err != nil {
		t.Fatal(err)
	}
	if want := 13.0; math.Abs(got.Total.Seconds()-want) > 1e-6 {
		t.Fatalf("read-only run with Op=write total = %v s, want %v", got.Total.Seconds(), want)
	}

	// A mixed run pays both (resource, op) pairs exactly once each:
	// read 1 s + write 2 s + (5+7) + (100+200) = 315 s.
	wr := DatasetReq{Name: "out", AMode: "create", Dims: []int{1000}, Etype: 1,
		Pattern: "B", Location: "r", Frequency: 1, Procs: 1}
	got, err = db.Predict(RunReq{Iterations: 0, Datasets: []DatasetReq{rd, wr}})
	if err != nil {
		t.Fatal(err)
	}
	if want := 315.0; math.Abs(got.Total.Seconds()-want) > 1e-6 {
		t.Fatalf("mixed run total = %v s, want %v (one conn charge per (resource, op) pair)", got.Total.Seconds(), want)
	}
	// Two read datasets on the same resource still share one conn pair.
	rd2 := rd
	rd2.Name = "in2"
	got, err = db.Predict(RunReq{Iterations: 0, Datasets: []DatasetReq{rd, rd2}})
	if err != nil {
		t.Fatal(err)
	}
	if want := 14.0; math.Abs(got.Total.Seconds()-want) > 1e-6 {
		t.Fatalf("two-reader run total = %v s, want %v (conn charged once)", got.Total.Seconds(), want)
	}
}

// TestUnitZeroAlloc holds the per-request cost of eq. (2) where tier-1
// sees it: over a swept database a hit allocates nothing, and neither
// does the miss the qos pricer takes through Lookup for a class PTool
// never measured.  Unit's own miss still says what it always said.
func TestUnitZeroAlloc(t *testing.T) {
	db := NewDB(measuredDB(t))
	var sink float64
	if avg := testing.AllocsPerRun(200, func() {
		for _, size := range []int64{4 << 10, 4 << 20} {
			sec, err := db.Unit("remotedisk", "write", size)
			if err != nil || sec <= 0 {
				panic("swept class not priced")
			}
			sink += sec
		}
		if _, ok := db.Lookup("localdb", "write", 4<<10); ok {
			panic("unswept class priced")
		}
	}); avg != 0 {
		t.Fatalf("Unit/Lookup: %v allocs per run, want 0", avg)
	}
	_, err := db.Unit("localdb", "write", 4<<10)
	if want := "predict: no samples for localdb/write — run PTool first"; err == nil || err.Error() != want {
		t.Fatalf("Unit miss = %v, want %q", err, want)
	}
}

var unitSink float64

// BenchmarkUnit: one eq. (2) curve evaluation at the size wire-small
// prices.
func BenchmarkUnit(b *testing.B) {
	db := NewDB(measuredDB(b))
	db.Unit("remotedisk", "write", 4<<10) // compile the curves outside the timed loop
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sec, err := db.Unit("remotedisk", "write", 4<<10)
		if err != nil {
			b.Fatal(err)
		}
		unitSink += sec
	}
}
