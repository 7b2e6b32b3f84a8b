package subfile

import (
	"bytes"
	"testing"

	"repro/internal/device"
	"repro/internal/memfs"
	"repro/internal/model"
	"repro/internal/pattern"
	"repro/internal/storage"
	"repro/internal/vtime"
)

func setup(t *testing.T) (storage.Session, *vtime.Sim) {
	t.Helper()
	be, err := device.New(device.Config{Name: "b", Params: model.Params{Name: "memory"}, Store: memfs.New(), Channels: 4})
	if err != nil {
		t.Fatal(err)
	}
	sim := vtime.NewVirtual()
	p := sim.NewProc("admin")
	sess, err := be.Connect(p)
	if err != nil {
		t.Fatal(err)
	}
	return sess, sim
}

func mkGlobal(n int64) []byte {
	g := make([]byte, n)
	for i := range g {
		g[i] = byte(i * 13)
	}
	return g
}

func TestWriteReadSameGeometry(t *testing.T) {
	sess, sim := setup(t)
	dims := []int{8, 8}
	pat, _ := pattern.Parse("BB")
	grid := pattern.Grid{2, 2}
	procs := sim.NewProcs("r", 4)
	global := mkGlobal(pattern.TotalBytes(dims, 4))
	bufs := make([][]byte, 4)
	for r := range bufs {
		sets, _ := pattern.IndexSets(dims, pat, grid, r)
		bufs[r] = pattern.Pack(global, pattern.FileRuns(dims, 4, sets))
	}
	if err := Write(sess, "ds", dims, 4, pat, grid, procs, bufs); err != nil {
		t.Fatal(err)
	}
	got := make([][]byte, 4)
	for r := range got {
		got[r] = make([]byte, len(bufs[r]))
	}
	if err := Read(sess, "ds", grid, procs, got); err != nil {
		t.Fatal(err)
	}
	for r := range got {
		if !bytes.Equal(got[r], bufs[r]) {
			t.Fatalf("rank %d subfile mismatch", r)
		}
	}
}

func TestReadMetaAndGlobal(t *testing.T) {
	sess, sim := setup(t)
	dims := []int{6, 9}
	pat, _ := pattern.Parse("B*")
	grid := pattern.Grid{3, 1}
	procs := sim.NewProcs("r", 3)
	global := mkGlobal(pattern.TotalBytes(dims, 2))
	bufs := make([][]byte, 3)
	for r := range bufs {
		sets, _ := pattern.IndexSets(dims, pat, grid, r)
		bufs[r] = pattern.Pack(global, pattern.FileRuns(dims, 2, sets))
	}
	if err := Write(sess, "runA/temp", dims, 2, pat, grid, procs, bufs); err != nil {
		t.Fatal(err)
	}
	p := sim.NewProc("reader")
	m, err := ReadMeta(p, sess, "runA/temp")
	if err != nil {
		t.Fatal(err)
	}
	if m.Pat != "B*" || m.Etype != 2 || len(m.Dims) != 2 {
		t.Fatalf("meta = %+v", m)
	}
	g, m2, err := ReadGlobal(p, sess, "runA/temp")
	if err != nil {
		t.Fatal(err)
	}
	if m2.Pat != m.Pat {
		t.Fatalf("meta mismatch: %+v vs %+v", m, m2)
	}
	if !bytes.Equal(g, global) {
		t.Fatal("global reassembly mismatch")
	}
}

func TestPartPathNaming(t *testing.T) {
	if got := PartPath("a/b", 7); got != "a/b.sub.0007" {
		t.Fatalf("PartPath = %q", got)
	}
}

func TestGeometryValidation(t *testing.T) {
	sess, sim := setup(t)
	pat, _ := pattern.Parse("B")
	grid := pattern.Grid{2}
	procs := sim.NewProcs("r", 1) // wrong count
	if err := Write(sess, "x", []int{4}, 1, pat, grid, procs, [][]byte{{1}}); err == nil {
		t.Fatal("proc/grid mismatch accepted")
	}
	if err := Read(sess, "x", grid, procs, [][]byte{{1}}); err == nil {
		t.Fatal("read proc/grid mismatch accepted")
	}
}

func TestReadMissing(t *testing.T) {
	sess, sim := setup(t)
	p := sim.NewProc("p")
	if _, err := ReadMeta(p, sess, "absent"); err == nil {
		t.Fatal("meta of missing dataset succeeded")
	}
	if _, _, err := ReadGlobal(p, sess, "absent"); err == nil {
		t.Fatal("global of missing dataset succeeded")
	}
}

func TestSubfileCallEfficiency(t *testing.T) {
	// Each rank issues exactly one data write (plus rank 0's meta write):
	// with per-call pricing only, total time ≈ one call per rank running
	// on separate channels.
	be, err := device.New(device.Config{
		Name:   "b",
		Params: model.Params{Name: "calls", PerCallWrite: 1e9}, // 1s per native call
		Store:  memfs.New(), Channels: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	sim := vtime.NewVirtual()
	procs := sim.NewProcs("r", 4)
	sess, _ := be.Connect(procs[0])
	dims := []int{4, 16}
	pat, _ := pattern.Parse("*B")
	grid := pattern.Grid{1, 4}
	global := mkGlobal(pattern.TotalBytes(dims, 1))
	bufs := make([][]byte, 4)
	for r := range bufs {
		sets, _ := pattern.IndexSets(dims, pat, grid, r)
		bufs[r] = pattern.Pack(global, pattern.FileRuns(dims, 1, sets))
	}
	if err := Write(sess, "eff", dims, 1, pat, grid, procs, bufs); err != nil {
		t.Fatal(err)
	}
	// rank0: meta write (1s) + data write (1s); others overlap → ≈2s.
	if got := vtime.MaxNow(procs...); got > 2_100_000_000 {
		t.Fatalf("subfile write total = %v ns, want ≈2s (parallel single calls)", got)
	}
}

func TestReadMissingPart(t *testing.T) {
	sess, sim := setup(t)
	procs := sim.NewProcs("r", 2)
	grid := pattern.Grid{2}
	bufs := [][]byte{make([]byte, 4), make([]byte, 4)}
	if err := Read(sess, "absent", grid, procs, bufs); err == nil {
		t.Fatal("read of missing subfiles succeeded")
	}
}

func TestGlobalWithCorruptMeta(t *testing.T) {
	sess, sim := setup(t)
	p := sim.NewProc("p")
	h, err := sess.Open(p, "bad.submeta", storage.ModeCreate)
	if err != nil {
		t.Fatal(err)
	}
	h.WriteAt(p, []byte("not json"), 0)
	h.Close(p)
	if _, _, err := ReadGlobal(p, sess, "bad"); err == nil {
		t.Fatal("corrupt meta accepted")
	}
}
