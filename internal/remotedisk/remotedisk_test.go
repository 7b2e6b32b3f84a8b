package remotedisk

import (
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/memfs"
	"repro/internal/model"
	"repro/internal/storage"
	"repro/internal/vtime"
)

func TestDefaults(t *testing.T) {
	b, err := New("sdsc-disk", memfs.New())
	if err != nil {
		t.Fatal(err)
	}
	if b.Kind() != storage.KindRemoteDisk {
		t.Fatalf("kind = %v", b.Kind())
	}
	total, _ := b.Capacity()
	if total != DefaultCapacity {
		t.Fatalf("capacity = %d", total)
	}
}

// Worked-example calibration: a 2 MiB dump to remote disk costs ≈8.47 s.
func TestTwoMiBDump(t *testing.T) {
	b, err := New("sdsc-disk", memfs.New())
	if err != nil {
		t.Fatal(err)
	}
	p := vtime.NewVirtual().NewProc("p")
	s, _ := b.Connect(p)
	h, _ := s.Open(p, "vr_press/iter0000", storage.ModeCreate)
	before := p.Now()
	if _, err := h.WriteAt(p, make([]byte, 2*model.MiB), 0); err != nil {
		t.Fatal(err)
	}
	d := p.Now() - before
	want := 8470 * time.Millisecond
	if ratio := float64(d) / float64(want); ratio < 0.85 || ratio > 1.15 {
		t.Fatalf("2 MiB dump = %v, want within 15%% of %v", d, want)
	}
}

func TestWANSerializesAcrossFiles(t *testing.T) {
	b, err := New("sdsc-disk", memfs.New(),
		func(c *device.Config) { c.Params = model.Params{Name: "wan", WriteBW: model.MiB} })
	if err != nil {
		t.Fatal(err)
	}
	sim := vtime.NewVirtual()
	ps := sim.NewProcs("r", 2)
	done := make(chan time.Duration, 2)
	for i, p := range ps {
		go func(i int, p *vtime.Proc) {
			s, _ := b.Connect(p)
			h, _ := s.Open(p, "f"+string(rune('0'+i)), storage.ModeCreate)
			h.WriteAt(p, make([]byte, model.MiB), 0)
			done <- p.Now()
		}(i, p)
	}
	var max time.Duration
	for i := 0; i < 2; i++ {
		if d := <-done; d > max {
			max = d
		}
	}
	if max != 2*time.Second {
		t.Fatalf("two remote writes finished at %v, want 2s (one WAN link)", max)
	}
}

func TestOptions(t *testing.T) {
	b, err := New("x", memfs.New(), WithCapacity(4096))
	if err != nil {
		t.Fatal(err)
	}
	total, _ := b.Capacity()
	if total != 4096 {
		t.Fatalf("capacity = %d", total)
	}
	p := vtime.NewVirtual().NewProc("p")
	s, _ := b.Connect(p)
	h, _ := s.Open(p, "f", storage.ModeCreate)
	if _, err := h.WriteAt(p, make([]byte, 8192), 0); err == nil {
		t.Fatal("capacity ignored")
	}
}
