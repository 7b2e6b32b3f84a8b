package device

import (
	"errors"
	"testing"
	"time"

	"repro/internal/memfs"
	"repro/internal/model"
	"repro/internal/storage"
	"repro/internal/vtime"
)

func newBackend(t *testing.T, cfg Config) *Backend {
	t.Helper()
	if cfg.Store == nil {
		cfg.Store = memfs.New()
	}
	if cfg.Name == "" {
		cfg.Name = "test"
	}
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestConnectChargesConn(t *testing.T) {
	b := newBackend(t, Config{Params: model.RemoteDisk2000(), Kind: storage.KindRemoteDisk})
	p := vtime.NewVirtual().NewProc("p")
	s, err := b.Connect(p)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := p.Now(), 440*time.Millisecond; got != want {
		t.Fatalf("conn charge = %v, want %v", got, want)
	}
	if err := s.Close(p); err != nil {
		t.Fatal(err)
	}
	if got, want := p.Now(), 440*time.Millisecond+200*time.Microsecond; got != want {
		t.Fatalf("after connclose = %v, want %v", got, want)
	}
}

func TestOpenWriteCloseCosts(t *testing.T) {
	params := model.LocalDisk2000()
	b := newBackend(t, Config{Params: params, Kind: storage.KindLocalDisk})
	p := vtime.NewVirtual().NewProc("p")
	s, _ := b.Connect(p)
	h, err := s.Open(p, "f", storage.ModeCreate)
	if err != nil {
		t.Fatal(err)
	}
	afterOpen := p.Now()
	if afterOpen != params.OpenWrite {
		t.Fatalf("open charge = %v, want %v", afterOpen, params.OpenWrite)
	}
	data := make([]byte, model.MiB)
	if _, err := h.WriteAt(p, data, 0); err != nil {
		t.Fatal(err)
	}
	wantXfer := params.Xfer(model.Write, model.MiB)
	if got := p.Now() - afterOpen; got != wantXfer {
		t.Fatalf("write charge = %v, want %v", got, wantXfer)
	}
	before := p.Now()
	if err := h.Close(p); err != nil {
		t.Fatal(err)
	}
	if got := p.Now() - before; got != params.CloseWrite {
		t.Fatalf("close charge = %v, want %v", got, params.CloseWrite)
	}
}

func TestSeekChargedOnDiscontiguousReadsOnly(t *testing.T) {
	params := model.RemoteDisk2000()
	b := newBackend(t, Config{Params: params, Kind: storage.KindRemoteDisk})
	p := vtime.NewVirtual().NewProc("p")
	s, _ := b.Connect(p)
	h, _ := s.Open(p, "f", storage.ModeCreate)
	chunk := make([]byte, 1000)

	// Writes never pay the seek constant (Table 1: write seek is "–").
	start := p.Now()
	h.WriteAt(p, chunk, 0)
	h.WriteAt(p, chunk, 50000)
	perWrite := (p.Now() - start) / 2
	if perWrite >= params.Seek {
		t.Fatalf("write charged a seek: %v per write", perWrite)
	}
	h.Close(p)

	r, _ := s.Open(p, "f", storage.ModeRead)
	buf := make([]byte, 1000)
	start = p.Now()
	r.ReadAt(p, buf, 0)    // first access of this proc: free positioning
	r.ReadAt(p, buf, 1000) // sequential: no seek
	seq := p.Now() - start

	start = p.Now()
	r.ReadAt(p, buf, 30000) // jump: seek charged
	jump := p.Now() - start
	if want := seq/2 + params.Seek; jump != want {
		t.Fatalf("jump read = %v, want sequential %v + seek %v", jump, seq/2, params.Seek)
	}
}

func TestSeekTrackedPerProcess(t *testing.T) {
	// Two processes streaming disjoint regions of one shared handle must
	// not charge each other seeks (parallel streams after a shared open).
	params := model.Params{Name: "m", Seek: time.Second, ReadBW: model.MiB}
	b := newBackend(t, Config{Params: params, Kind: storage.KindRemoteDisk})
	sim := vtime.NewVirtual()
	admin := sim.NewProc("admin")
	s, _ := b.Connect(admin)
	w, _ := s.Open(admin, "f", storage.ModeCreate)
	w.WriteAt(admin, make([]byte, 4096), 0)
	w.Close(admin)

	h, _ := s.Open(admin, "f", storage.ModeRead)
	a, c := sim.NewProc("a"), sim.NewProc("c")
	buf := make([]byte, 1024)
	h.ReadAt(a, buf, 0)
	h.ReadAt(c, buf, 2048) // first access for c: no seek despite a's position
	h.ReadAt(a, buf, 1024) // sequential for a: no seek
	h.ReadAt(c, buf, 3072) // sequential for c: no seek
	if a.Now() >= time.Second || c.Now() >= time.Second {
		t.Fatalf("interleaved streams charged seeks: a=%v c=%v", a.Now(), c.Now())
	}
}

func TestDataRoundTripThroughBackend(t *testing.T) {
	b := newBackend(t, Config{Params: model.Params{Name: "memory"}, Kind: storage.KindMemory})
	p := vtime.NewVirtual().NewProc("p")
	s, _ := b.Connect(p)
	h, _ := s.Open(p, "f", storage.ModeCreate)
	msg := []byte("the bytes must really move")
	h.WriteAt(p, msg, 3)
	h.Close(p)

	h2, err := s.Open(p, "f", storage.ModeRead)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := h2.ReadAt(p, got, 3); err != nil {
		t.Fatal(err)
	}
	if string(got) != string(msg) {
		t.Fatalf("round trip = %q", got)
	}
}

func TestCreateExistingFails(t *testing.T) {
	b := newBackend(t, Config{Params: model.Params{Name: "memory"}})
	p := vtime.NewVirtual().NewProc("p")
	s, _ := b.Connect(p)
	h, _ := s.Open(p, "f", storage.ModeCreate)
	h.Close(p)
	if _, err := s.Open(p, "f", storage.ModeCreate); !errors.Is(err, storage.ErrExist) {
		t.Fatalf("create existing err = %v, want ErrExist", err)
	}
	// over_write succeeds and truncates.
	h2, err := s.Open(p, "f", storage.ModeOverWrite)
	if err != nil {
		t.Fatal(err)
	}
	if h2.Size() != 0 {
		t.Fatalf("over_write did not truncate, size = %d", h2.Size())
	}
}

func TestReadOnlyHandleRejectsWrite(t *testing.T) {
	b := newBackend(t, Config{Params: model.Params{Name: "memory"}})
	p := vtime.NewVirtual().NewProc("p")
	s, _ := b.Connect(p)
	h, _ := s.Open(p, "f", storage.ModeCreate)
	h.WriteAt(p, []byte{1}, 0)
	h.Close(p)
	r, _ := s.Open(p, "f", storage.ModeRead)
	if _, err := r.WriteAt(p, []byte{2}, 0); !errors.Is(err, storage.ErrReadOnly) {
		t.Fatalf("write on read handle err = %v", err)
	}
}

func TestCapacityEnforced(t *testing.T) {
	b := newBackend(t, Config{Params: model.Params{Name: "memory"}, Capacity: 100})
	p := vtime.NewVirtual().NewProc("p")
	s, _ := b.Connect(p)
	h, _ := s.Open(p, "f", storage.ModeCreate)
	if _, err := h.WriteAt(p, make([]byte, 80), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := h.WriteAt(p, make([]byte, 80), 80); !errors.Is(err, storage.ErrCapacity) {
		t.Fatalf("over-capacity write err = %v, want ErrCapacity", err)
	}
	// Overwriting in place does not extend and must succeed.
	if _, err := h.WriteAt(p, make([]byte, 80), 0); err != nil {
		t.Fatalf("in-place overwrite err = %v", err)
	}
	total, used := b.Capacity()
	if total != 100 || used != 80 {
		t.Fatalf("capacity = (%d, %d), want (100, 80)", total, used)
	}
}

func TestOutage(t *testing.T) {
	b := newBackend(t, Config{Params: model.Params{Name: "memory"}})
	p := vtime.NewVirtual().NewProc("p")
	s, _ := b.Connect(p)
	h, _ := s.Open(p, "f", storage.ModeCreate)
	b.SetDown(true)
	if !b.Down() {
		t.Fatal("Down() = false after SetDown(true)")
	}
	if _, err := b.Connect(p); !errors.Is(err, storage.ErrDown) {
		t.Fatalf("connect while down err = %v", err)
	}
	if _, err := s.Open(p, "g", storage.ModeCreate); !errors.Is(err, storage.ErrDown) {
		t.Fatalf("open while down err = %v", err)
	}
	if _, err := h.WriteAt(p, []byte{1}, 0); !errors.Is(err, storage.ErrDown) {
		t.Fatalf("write while down err = %v", err)
	}
	b.SetDown(false)
	if _, err := h.WriteAt(p, []byte{1}, 0); err != nil {
		t.Fatalf("write after recovery err = %v", err)
	}
}

func TestChannelsOverlapByPath(t *testing.T) {
	params := model.Params{Name: "x", WriteBW: model.MiB} // 1 MiB/s, nothing else
	b := newBackend(t, Config{Params: params, Channels: 4})
	sim := vtime.NewVirtual()
	// Write 1 MiB to four different files from four procs: with 4
	// channels at least two files should land on distinct channels, so
	// the max finish time is below full serialization (4 s).  Use many
	// files to make hash collisions across all four vanishingly unlikely.
	ps := sim.NewProcs("r", 4)
	done := make(chan time.Duration, 4)
	for i, p := range ps {
		go func(i int, p *vtime.Proc) {
			s, _ := b.Connect(p)
			h, _ := s.Open(p, "file-"+string(rune('a'+i)), storage.ModeCreate)
			h.WriteAt(p, make([]byte, model.MiB), 0)
			done <- p.Now()
		}(i, p)
	}
	var max time.Duration
	for i := 0; i < 4; i++ {
		if d := <-done; d > max {
			max = d
		}
	}
	if max >= 4*time.Second {
		t.Fatalf("4 files on 4 channels fully serialized (%v); hashing broken", max)
	}
}

func TestSingleChannelSerializes(t *testing.T) {
	params := model.Params{Name: "wan", WriteBW: model.MiB}
	b := newBackend(t, Config{Params: params, Channels: 1})
	sim := vtime.NewVirtual()
	ps := sim.NewProcs("r", 3)
	done := make(chan time.Duration, 3)
	for i, p := range ps {
		go func(i int, p *vtime.Proc) {
			s, _ := b.Connect(p)
			h, _ := s.Open(p, "f"+string(rune('0'+i)), storage.ModeCreate)
			h.WriteAt(p, make([]byte, model.MiB), 0)
			done <- p.Now()
		}(i, p)
	}
	var max time.Duration
	for i := 0; i < 3; i++ {
		if d := <-done; d > max {
			max = d
		}
	}
	if max != 3*time.Second {
		t.Fatalf("single channel finish = %v, want 3s (serialized)", max)
	}
}

func TestStatListRemove(t *testing.T) {
	b := newBackend(t, Config{Params: model.Params{Name: "memory"}})
	p := vtime.NewVirtual().NewProc("p")
	s, _ := b.Connect(p)
	for _, n := range []string{"d/one", "d/two"} {
		h, _ := s.Open(p, n, storage.ModeCreate)
		h.WriteAt(p, []byte{1, 2, 3}, 0)
		h.Close(p)
	}
	fi, err := s.Stat(p, "d/one")
	if err != nil || fi.Size != 3 {
		t.Fatalf("Stat = %+v, %v", fi, err)
	}
	ls, err := s.List(p, "d/")
	if err != nil || len(ls) != 2 {
		t.Fatalf("List = %v, %v", ls, err)
	}
	if err := s.Remove(p, "d/one"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Stat(p, "d/one"); !errors.Is(err, storage.ErrNotExist) {
		t.Fatalf("stat removed = %v", err)
	}
}

func TestClosedSessionAndHandle(t *testing.T) {
	b := newBackend(t, Config{Params: model.Params{Name: "memory"}})
	p := vtime.NewVirtual().NewProc("p")
	s, _ := b.Connect(p)
	h, _ := s.Open(p, "f", storage.ModeCreate)
	if err := h.Close(p); err != nil {
		t.Fatal(err)
	}
	if err := h.Close(p); !errors.Is(err, storage.ErrClosed) {
		t.Fatalf("double handle close = %v", err)
	}
	if err := s.Close(p); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(p); !errors.Is(err, storage.ErrClosed) {
		t.Fatalf("double session close = %v", err)
	}
	if _, err := s.Open(p, "g", storage.ModeCreate); !errors.Is(err, storage.ErrClosed) {
		t.Fatalf("open on closed session = %v", err)
	}
}

func TestNilStoreRejected(t *testing.T) {
	if _, err := New(Config{Name: "x"}); err == nil {
		t.Fatal("New with nil store succeeded")
	}
}
