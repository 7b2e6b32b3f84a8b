package localdisk

import (
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/memfs"
	"repro/internal/model"
	"repro/internal/osfs"
	"repro/internal/storage"
	"repro/internal/vtime"
)

func TestDefaults(t *testing.T) {
	b, err := New("ssa", memfs.New())
	if err != nil {
		t.Fatal(err)
	}
	if b.Kind() != storage.KindLocalDisk || b.Name() != "ssa" {
		t.Fatalf("kind/name = %v/%v", b.Kind(), b.Name())
	}
	total, _ := b.Capacity()
	if total != SSACapacity {
		t.Fatalf("capacity = %d, want %d", total, SSACapacity)
	}
	if b.Model().Name != "localdisk" {
		t.Fatalf("model = %q", b.Model().Name)
	}
}

func TestOptions(t *testing.T) {
	b, err := New("x", memfs.New(), func(c *device.Config) {
		c.Capacity, c.Channels, c.Params = 123, 2, model.Params{Name: "memory"}
	})
	if err != nil {
		t.Fatal(err)
	}
	total, _ := b.Capacity()
	if total != 123 {
		t.Fatalf("capacity = %d", total)
	}
	if b.Model().Name != "memory" {
		t.Fatalf("params not applied: %q", b.Model().Name)
	}
}

// The worked-example calibration end to end: a 2 MiB collective dump to
// local disk costs ≈0.12 s of transfer time.
func TestTwoMiBDump(t *testing.T) {
	b, err := New("ssa", memfs.New())
	if err != nil {
		t.Fatal(err)
	}
	p := vtime.NewVirtual().NewProc("p")
	s, _ := b.Connect(p)
	h, _ := s.Open(p, "vr_temp/iter0000", storage.ModeCreate)
	before := p.Now()
	if _, err := h.WriteAt(p, make([]byte, 2*model.MiB), 0); err != nil {
		t.Fatal(err)
	}
	d := p.Now() - before
	if d < 100*time.Millisecond || d > 140*time.Millisecond {
		t.Fatalf("2 MiB dump = %v, want ≈0.12 s", d)
	}
}

func TestOverOSFS(t *testing.T) {
	fs, err := osfs.New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	b, err := New("ssa", fs)
	if err != nil {
		t.Fatal(err)
	}
	p := vtime.NewVirtual().NewProc("p")
	s, _ := b.Connect(p)
	h, _ := s.Open(p, "real/file", storage.ModeCreate)
	if _, err := h.WriteAt(p, []byte("on real disk"), 0); err != nil {
		t.Fatal(err)
	}
	h.Close(p)
	r, _ := s.Open(p, "real/file", storage.ModeRead)
	buf := make([]byte, 12)
	if _, err := r.ReadAt(p, buf, 0); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "on real disk" {
		t.Fatalf("read %q", buf)
	}
}
