package srbnet

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/localdisk"
	"repro/internal/memfs"
	"repro/internal/model"
	"repro/internal/remotedisk"
	"repro/internal/srb"
	"repro/internal/storage"
	"repro/internal/vtime"
)

// newServer starts a broker with one remote-disk resource and returns a
// matching client.
func newServer(t *testing.T, sim *vtime.Sim) (*Server, *Client) {
	t.Helper()
	broker := srb.NewBroker()
	be, err := remotedisk.New("sdsc-disk", memfs.New())
	if err != nil {
		t.Fatal(err)
	}
	if err := broker.Register(be); err != nil {
		t.Fatal(err)
	}
	broker.AddUser("shen", "nwu")
	srv, err := Serve("127.0.0.1:0", broker, sim)
	if err != nil {
		t.Fatal(err)
	}
	srv.SetLogf(func(string, ...any) {})
	t.Cleanup(func() { srv.Close() })
	return srv, NewClient(srv.Addr(), "shen", "nwu", "sdsc-disk", storage.KindRemoteDisk)
}

func TestRoundTripOverTCP(t *testing.T) {
	sim := vtime.NewVirtual()
	_, client := newServer(t, sim)
	p := sim.NewProc("p")

	sess, err := client.Connect(p)
	if err != nil {
		t.Fatal(err)
	}
	h, err := sess.Open(p, "wire/file", storage.ModeCreate)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("net"), 1000)
	if n, err := h.WriteAt(p, payload, 0); n != len(payload) || err != nil {
		t.Fatalf("write = (%d, %v)", n, err)
	}
	if h.Size() != int64(len(payload)) {
		t.Fatalf("size = %d", h.Size())
	}
	got := make([]byte, len(payload))
	if _, err := h.ReadAt(p, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload corrupted over the wire")
	}
	if err := h.Close(p); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(p); err != nil {
		t.Fatal(err)
	}
}

func TestVirtualTimeCrossesWire(t *testing.T) {
	sim := vtime.NewVirtual()
	_, client := newServer(t, sim)
	p := sim.NewProc("p")
	sess, err := client.Connect(p)
	if err != nil {
		t.Fatal(err)
	}
	afterConn := p.Now()
	if afterConn < model.RemoteDisk2000().Conn {
		t.Fatalf("client clock after connect = %v, want >= %v", afterConn, model.RemoteDisk2000().Conn)
	}
	h, _ := sess.Open(p, "f", storage.ModeCreate)
	before := p.Now()
	h.WriteAt(p, make([]byte, model.MiB), 0)
	cost := p.Now() - before
	want := model.RemoteDisk2000().Xfer(model.Write, model.MiB)
	if cost != want {
		t.Fatalf("remote write charged %v over the wire, want %v", cost, want)
	}
}

func TestAuthFailure(t *testing.T) {
	sim := vtime.NewVirtual()
	srv, _ := newServer(t, sim)
	bad := NewClient(srv.Addr(), "shen", "wrong", "sdsc-disk", storage.KindRemoteDisk)
	p := sim.NewProc("p")
	if _, err := bad.Connect(p); !errors.Is(err, srb.ErrAuth) {
		t.Fatalf("bad auth err = %v, want srb.ErrAuth", err)
	}
}

func TestUnknownResource(t *testing.T) {
	sim := vtime.NewVirtual()
	srv, _ := newServer(t, sim)
	c := NewClient(srv.Addr(), "shen", "nwu", "nowhere", storage.KindRemoteDisk)
	p := sim.NewProc("p")
	if _, err := c.Connect(p); !errors.Is(err, srb.ErrNoResource) {
		t.Fatalf("unknown resource err = %v", err)
	}
}

func TestErrorSentinelsCrossWire(t *testing.T) {
	sim := vtime.NewVirtual()
	_, client := newServer(t, sim)
	p := sim.NewProc("p")
	sess, _ := client.Connect(p)
	if _, err := sess.Open(p, "missing", storage.ModeRead); !errors.Is(err, storage.ErrNotExist) {
		t.Fatalf("remote ErrNotExist lost: %v", err)
	}
	h, _ := sess.Open(p, "f", storage.ModeCreate)
	h.Close(p)
	if _, err := sess.Open(p, "f", storage.ModeCreate); !errors.Is(err, storage.ErrExist) {
		t.Fatalf("remote ErrExist lost: %v", err)
	}
	r, _ := sess.Open(p, "f", storage.ModeRead)
	if _, err := r.WriteAt(p, []byte{1}, 0); !errors.Is(err, storage.ErrReadOnly) {
		t.Fatalf("remote ErrReadOnly lost: %v", err)
	}
	if err := sess.Remove(p, "missing"); !errors.Is(err, storage.ErrNotExist) {
		t.Fatalf("remote remove error lost: %v", err)
	}
}

func TestStatAndList(t *testing.T) {
	sim := vtime.NewVirtual()
	_, client := newServer(t, sim)
	p := sim.NewProc("p")
	sess, _ := client.Connect(p)
	for _, name := range []string{"d/a", "d/b"} {
		h, err := sess.Open(p, name, storage.ModeCreate)
		if err != nil {
			t.Fatal(err)
		}
		h.WriteAt(p, []byte("xyz"), 0)
		h.Close(p)
	}
	fi, err := sess.Stat(p, "d/a")
	if err != nil || fi.Size != 3 {
		t.Fatalf("Stat = %+v, %v", fi, err)
	}
	ls, err := sess.List(p, "d/")
	if err != nil || len(ls) != 2 {
		t.Fatalf("List = %v, %v", ls, err)
	}
}

func TestTwoClientsContendOnServerDevices(t *testing.T) {
	// Two clients writing through TCP must still queue on the single WAN
	// channel of the server-side remote disk.
	sim := vtime.NewVirtual()
	broker := srb.NewBroker()
	be, err := remotedisk.New("wan", memfs.New(),
		func(c *device.Config) { c.Params = model.Params{Name: "wan", WriteBW: model.MiB} })
	if err != nil {
		t.Fatal(err)
	}
	broker.Register(be)
	broker.AddUser("u", "s")
	srv, err := Serve("127.0.0.1:0", broker, sim)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.SetLogf(func(string, ...any) {})

	var wg sync.WaitGroup
	times := make([]time.Duration, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := NewClient(srv.Addr(), "u", "s", "wan", storage.KindRemoteDisk)
			p := sim.NewProc("p")
			sess, err := c.Connect(p)
			if err != nil {
				t.Error(err)
				return
			}
			h, err := sess.Open(p, "f"+string(rune('0'+i)), storage.ModeCreate)
			if err != nil {
				t.Error(err)
				return
			}
			h.WriteAt(p, make([]byte, model.MiB), 0)
			times[i] = p.Now()
		}(i)
	}
	wg.Wait()
	max := times[0]
	if times[1] > max {
		max = times[1]
	}
	if max != 2*time.Second {
		t.Fatalf("two TCP clients finished at %v, want 2s (serialized on WAN)", max)
	}
}

func TestLocalDiskOverTCP(t *testing.T) {
	// The uniform interface: a local-disk resource served through the
	// broker behaves identically over the wire.
	sim := vtime.NewVirtual()
	broker := srb.NewBroker()
	be, _ := localdisk.New("disk", memfs.New())
	broker.Register(be)
	broker.AddUser("u", "s")
	srv, err := Serve("127.0.0.1:0", broker, sim)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := NewClient(srv.Addr(), "u", "s", "disk", storage.KindLocalDisk)
	if c.Kind() != storage.KindLocalDisk {
		t.Fatalf("kind = %v", c.Kind())
	}
	p := sim.NewProc("p")
	sess, err := c.Connect(p)
	if err != nil {
		t.Fatal(err)
	}
	h, err := sess.Open(p, "x", storage.ModeCreate)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.WriteAt(p, []byte("ld"), 0); err != nil {
		t.Fatal(err)
	}
	h.Close(p)
	sess.Close(p)
}

func TestServerCloseIdempotent(t *testing.T) {
	sim := vtime.NewVirtual()
	srv, _ := newServer(t, sim)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second close = %v", err)
	}
}

func TestLargeTransferOverTCP(t *testing.T) {
	// An 8 MiB dataset dump crosses the wire in one logical call and
	// charges the correct virtual cost.
	sim := vtime.NewVirtual()
	_, client := newServer(t, sim)
	p := sim.NewProc("p")
	sess, err := client.Connect(p)
	if err != nil {
		t.Fatal(err)
	}
	h, err := sess.Open(p, "big", storage.ModeCreate)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 8*model.MiB)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	before := p.Now()
	if n, err := h.WriteAt(p, payload, 0); n != len(payload) || err != nil {
		t.Fatalf("write = (%d, %v)", n, err)
	}
	want := model.RemoteDisk2000().Xfer(model.Write, 8*model.MiB)
	if got := p.Now() - before; got != want {
		t.Fatalf("8 MiB write cost %v over wire, want %v", got, want)
	}
	got := make([]byte, len(payload))
	if _, err := h.ReadAt(p, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("8 MiB payload corrupted")
	}
}

func TestManyConcurrentClients(t *testing.T) {
	sim := vtime.NewVirtual()
	srv, _ := newServer(t, sim)
	const n = 16
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := NewClient(srv.Addr(), "shen", "nwu", "sdsc-disk", storage.KindRemoteDisk)
			p := sim.NewProc(fmt.Sprintf("c%d", i))
			sess, err := c.Connect(p)
			if err != nil {
				errs[i] = err
				return
			}
			h, err := sess.Open(p, fmt.Sprintf("f%02d", i), storage.ModeCreate)
			if err != nil {
				errs[i] = err
				return
			}
			if _, err := h.WriteAt(p, []byte{byte(i)}, 0); err != nil {
				errs[i] = err
				return
			}
			if err := h.Close(p); err != nil {
				errs[i] = err
				return
			}
			errs[i] = sess.Close(p)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
}
