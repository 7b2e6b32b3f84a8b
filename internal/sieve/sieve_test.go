package sieve

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/device"
	"repro/internal/memfs"
	"repro/internal/model"
	"repro/internal/pattern"
	"repro/internal/storage"
	"repro/internal/vtime"
)

func newHandle(t *testing.T, params model.Params, contents []byte) (storage.Handle, *vtime.Proc) {
	t.Helper()
	be, err := device.New(device.Config{Name: "b", Params: params, Store: memfs.New()})
	if err != nil {
		t.Fatal(err)
	}
	p := vtime.NewVirtual().NewProc("p")
	sess, err := be.Connect(p)
	if err != nil {
		t.Fatal(err)
	}
	h, err := sess.Open(p, "f", storage.ModeCreate)
	if err != nil {
		t.Fatal(err)
	}
	if len(contents) > 0 {
		if _, err := h.WriteAt(p, contents, 0); err != nil {
			t.Fatal(err)
		}
	}
	return h, p
}

func TestReadPacksRuns(t *testing.T) {
	contents := []byte("0123456789abcdef")
	h, p := newHandle(t, model.Params{Name: "memory"}, contents)
	runs := []pattern.Run{{Off: 2, Len: 3}, {Off: 8, Len: 2}, {Off: 14, Len: 2}}
	dst := make([]byte, 7)
	if err := Read(p, h, runs, dst); err != nil {
		t.Fatal(err)
	}
	if string(dst) != "23489ef" {
		t.Fatalf("sieved read = %q", dst)
	}
}

func TestWriteScattersRuns(t *testing.T) {
	contents := []byte("0123456789abcdef")
	h, p := newHandle(t, model.Params{Name: "memory"}, contents)
	runs := []pattern.Run{{Off: 1, Len: 2}, {Off: 10, Len: 3}}
	if err := Write(p, h, runs, []byte("XYabc")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(contents))
	if _, err := h.ReadAt(p, got, 0); err != nil {
		t.Fatal(err)
	}
	want := []byte("0123456789abcdef")
	want[1], want[2] = 'X', 'Y'
	copy(want[10:13], "abc")
	if !bytes.Equal(got, want) {
		t.Fatalf("sieved write = %q, want %q", got, want)
	}
}

func TestWritePreservesUntouchedBytes(t *testing.T) {
	contents := bytes.Repeat([]byte{0xAA}, 64)
	h, p := newHandle(t, model.Params{Name: "memory"}, contents)
	runs := []pattern.Run{{Off: 8, Len: 4}, {Off: 40, Len: 4}}
	if err := Write(p, h, runs, bytes.Repeat([]byte{0xBB}, 8)); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 64)
	h.ReadAt(p, got, 0)
	for i, b := range got {
		want := byte(0xAA)
		if (i >= 8 && i < 12) || (i >= 40 && i < 44) {
			want = 0xBB
		}
		if b != want {
			t.Fatalf("byte %d = %#x, want %#x", i, b, want)
		}
	}
}

func TestWriteBeyondEOFSkipsRMWRead(t *testing.T) {
	params := model.Params{Name: "m", PerCallRead: time.Hour, PerCallWrite: time.Millisecond}
	h, p := newHandle(t, params, nil)
	runs := []pattern.Run{{Off: 0, Len: 4}, {Off: 8, Len: 4}}
	before := p.Now()
	if err := Write(p, h, runs, make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	if p.Now()-before >= time.Hour {
		t.Fatal("RMW read issued for extent wholly beyond EOF")
	}
}

func TestCallCountReduction(t *testing.T) {
	// 100 runs: sieving must charge ~2 native calls instead of 100.
	params := model.Params{Name: "m", PerCallRead: time.Second, PerCallWrite: time.Second}
	var runs []pattern.Run
	for i := 0; i < 100; i++ {
		runs = append(runs, pattern.Run{Off: int64(i * 10), Len: 4})
	}
	src := make([]byte, 400)
	h, p := newHandle(t, params, make([]byte, 1000))
	before := p.Now()
	if err := Write(p, h, runs, src); err != nil {
		t.Fatal(err)
	}
	cost := p.Now() - before
	if cost > 3*time.Second {
		t.Fatalf("sieved write charged %v, want ≈2 native calls", cost)
	}
	dst := make([]byte, 400)
	before = p.Now()
	if err := Read(p, h, runs, dst); err != nil {
		t.Fatal(err)
	}
	if cost := p.Now() - before; cost > 2*time.Second {
		t.Fatalf("sieved read charged %v, want ≈1 native call", cost)
	}
}

func TestSizeValidation(t *testing.T) {
	h, p := newHandle(t, model.Params{Name: "memory"}, []byte("abcd"))
	runs := []pattern.Run{{Off: 0, Len: 4}}
	if err := Read(p, h, runs, make([]byte, 3)); err == nil {
		t.Fatal("short dst accepted")
	}
	if err := Write(p, h, runs, make([]byte, 5)); err == nil {
		t.Fatal("long src accepted")
	}
	if err := Read(p, h, nil, nil); err != nil {
		t.Fatalf("empty runs read = %v", err)
	}
	if err := Write(p, h, nil, nil); err != nil {
		t.Fatalf("empty runs write = %v", err)
	}
}

// Property: sieved write then sieved read round-trips for arbitrary
// disjoint sorted runs derived from a pattern decomposition.
func TestQuickSieveRoundTrip(t *testing.T) {
	f := func(seed uint8, g uint8) bool {
		dims := []int{8, 10}
		grid := pattern.Grid{1, int(g%5) + 1}
		if grid[1] > dims[1] {
			return true
		}
		pat := pattern.Pattern{pattern.All, pattern.Block}
		sets, err := pattern.IndexSets(dims, pat, grid, grid.Procs()-1)
		if err != nil {
			return false
		}
		runs := pattern.FileRuns(dims, 1, sets)
		src := make([]byte, 0)
		for _, r := range runs {
			for j := int64(0); j < r.Len; j++ {
				src = append(src, byte(r.Off+j)^seed)
			}
		}
		be, err := device.New(device.Config{Name: "b", Params: model.Params{Name: "memory"}, Store: memfs.New()})
		if err != nil {
			return false
		}
		p := vtime.NewVirtual().NewProc("p")
		sess, _ := be.Connect(p)
		h, err := sess.Open(p, "f", storage.ModeCreate)
		if err != nil {
			return false
		}
		if err := Write(p, h, runs, src); err != nil {
			return false
		}
		dst := make([]byte, len(src))
		if err := Read(p, h, runs, dst); err != nil {
			return false
		}
		return bytes.Equal(src, dst)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
