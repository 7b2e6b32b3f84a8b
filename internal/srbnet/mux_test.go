package srbnet

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"repro/internal/memfs"
	"repro/internal/remotedisk"
	"repro/internal/srb"
	"repro/internal/storage"
	"repro/internal/vtime"
)

// newServerOpts is newServer with client options.
func newServerOpts(t *testing.T, sim *vtime.Sim, opts ...Option) (*Server, *Client) {
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
	c := NewClient(srv.Addr(), "shen", "nwu", "sdsc-disk", storage.KindRemoteDisk, opts...)
	t.Cleanup(func() { c.Close() })
	return srv, c
}

// TestPipelinedConcurrentRanks drives 8 ranks through ONE shared wire
// session concurrently — the core.Run arrangement — with many RPCs in
// flight at once.  Every rank must read back exactly its own bytes.
func TestPipelinedConcurrentRanks(t *testing.T) {
	sim := vtime.NewVirtual()
	_, client := newServerOpts(t, sim)
	p0 := sim.NewProc("rank0")
	sess, err := client.Connect(p0)
	if err != nil {
		t.Fatal(err)
	}

	const ranks = 8
	const chunks = 16
	var wg sync.WaitGroup
	errs := make([]error, ranks)
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			p := sim.NewProc(fmt.Sprintf("rank%d-io", r))
			h, err := sess.Open(p, fmt.Sprintf("mux/rank%d", r), storage.ModeCreate)
			if err != nil {
				errs[r] = err
				return
			}
			chunk := bytes.Repeat([]byte{byte('a' + r)}, 4096)
			for i := 0; i < chunks; i++ {
				if _, err := h.WriteAt(p, chunk, int64(i*len(chunk))); err != nil {
					errs[r] = err
					return
				}
			}
			got := make([]byte, chunks*len(chunk))
			if _, err := h.ReadAt(p, got, 0); err != nil {
				errs[r] = err
				return
			}
			for i, b := range got {
				if b != byte('a'+r) {
					errs[r] = fmt.Errorf("rank %d byte %d = %q", r, i, b)
					return
				}
			}
			errs[r] = h.Close(p)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	if err := sess.Close(p0); err != nil {
		t.Fatal(err)
	}
}

// TestSessionsSharePooledConnection pins the pool at one connection and
// runs two sessions over it: wire sessions are addressed by id, not
// bound to a socket.
func TestSessionsSharePooledConnection(t *testing.T) {
	sim := vtime.NewVirtual()
	_, client := newServerOpts(t, sim, func(c *Client) { c.poolSize = 1 })
	p1 := sim.NewProc("p1")
	p2 := sim.NewProc("p2")
	s1, err := client.Connect(p1)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := client.Connect(p2)
	if err != nil {
		t.Fatal(err)
	}
	client.mu.Lock()
	nconns := len(client.conns)
	client.mu.Unlock()
	if nconns != 1 {
		t.Fatalf("pool has %d connections, want 1", nconns)
	}
	for i, s := range []storage.Session{s1, s2} {
		p := []*vtime.Proc{p1, p2}[i]
		h, err := s.Open(p, fmt.Sprintf("shared/f%d", i), storage.ModeCreate)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.WriteAt(p, []byte("hello"), 0); err != nil {
			t.Fatal(err)
		}
		if err := h.Close(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := s1.Close(p1); err != nil {
		t.Fatal(err)
	}
	if err := s1.Close(p1); !errors.Is(err, storage.ErrClosed) {
		t.Fatalf("second close = %v, want ErrClosed", err)
	}
	// Closing one session must not disturb the other's connection.
	if _, err := s2.Stat(p2, "shared/f1"); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(p2); err != nil {
		t.Fatal(err)
	}
}

// TestVectoredMatchesLoopedCosts writes and reads the same chunks both
// call-by-call and vectored, on two identical servers: the data and the
// virtual-time cost must be identical — vectoring may only collapse
// wire round trips.
func TestVectoredMatchesLoopedCosts(t *testing.T) {
	run := func(vectored bool) (time.Duration, []byte) {
		sim := vtime.NewVirtual()
		_, client := newServerOpts(t, sim)
		p := sim.NewProc("p")
		sess, err := client.Connect(p)
		if err != nil {
			t.Fatal(err)
		}
		h, err := sess.Open(p, "v/f", storage.ModeCreate)
		if err != nil {
			t.Fatal(err)
		}
		// Three discontiguous chunks, out of order in the file.
		chunks := []storage.Vec{
			{Off: 8192, B: bytes.Repeat([]byte("B"), 4096)},
			{Off: 0, B: bytes.Repeat([]byte("A"), 4096)},
			{Off: 20000, B: bytes.Repeat([]byte("C"), 1000)},
		}
		if vectored {
			vh := h.(storage.VectorHandle)
			if _, err := vh.WriteAtV(p, chunks); err != nil {
				t.Fatal(err)
			}
		} else {
			for _, v := range chunks {
				if _, err := h.WriteAt(p, v.B, v.Off); err != nil {
					t.Fatal(err)
				}
			}
		}
		reads := []storage.Vec{
			{Off: 0, B: make([]byte, 4096)},
			{Off: 8192, B: make([]byte, 4096)},
			{Off: 20000, B: make([]byte, 1000)},
		}
		if vectored {
			vh := h.(storage.VectorHandle)
			if n, err := vh.ReadAtV(p, reads); err != nil || n != 9192 {
				t.Fatalf("ReadAtV = (%d, %v)", n, err)
			}
		} else {
			for _, v := range reads {
				if _, err := h.ReadAt(p, v.B, v.Off); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := h.Close(p); err != nil {
			t.Fatal(err)
		}
		if err := sess.Close(p); err != nil {
			t.Fatal(err)
		}
		var all []byte
		for _, v := range reads {
			all = append(all, v.B...)
		}
		return p.Now(), all
	}
	loopT, loopData := run(false)
	vecT, vecData := run(true)
	if !bytes.Equal(loopData, vecData) {
		t.Fatal("vectored bytes differ from looped bytes")
	}
	if loopT != vecT {
		t.Fatalf("virtual cost changed: looped %v, vectored %v", loopT, vecT)
	}
}

// TestWholeFileMatchesSequenceCosts checks PutFile/GetFile against the
// explicit open+transfer+close sequence: same bytes, same virtual cost,
// one round trip instead of three.
func TestWholeFileMatchesSequenceCosts(t *testing.T) {
	payload := bytes.Repeat([]byte("wf"), 8000)
	run := func(whole bool) (time.Duration, []byte) {
		sim := vtime.NewVirtual()
		_, client := newServerOpts(t, sim)
		p := sim.NewProc("p")
		sess, err := client.Connect(p)
		if err != nil {
			t.Fatal(err)
		}
		var got []byte
		if whole {
			wf := sess.(storage.WholeFiler)
			if err := wf.PutFile(p, "w/f", storage.ModeOverWrite, payload); err != nil {
				t.Fatal(err)
			}
			got, err = wf.GetFile(p, "w/f")
			if err != nil {
				t.Fatal(err)
			}
		} else {
			h, err := sess.Open(p, "w/f", storage.ModeOverWrite)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := h.WriteAt(p, payload, 0); err != nil {
				t.Fatal(err)
			}
			if err := h.Close(p); err != nil {
				t.Fatal(err)
			}
			h, err = sess.Open(p, "w/f", storage.ModeRead)
			if err != nil {
				t.Fatal(err)
			}
			got = make([]byte, h.Size())
			if _, err := h.ReadAt(p, got, 0); err != nil && !errors.Is(err, io.EOF) {
				t.Fatal(err)
			}
			if err := h.Close(p); err != nil {
				t.Fatal(err)
			}
		}
		if err := sess.Close(p); err != nil {
			t.Fatal(err)
		}
		return p.Now(), got
	}
	seqT, seqData := run(false)
	wholeT, wholeData := run(true)
	if !bytes.Equal(seqData, payload) || !bytes.Equal(wholeData, payload) {
		t.Fatal("payload corrupted")
	}
	if seqT != wholeT {
		t.Fatalf("virtual cost changed: sequence %v, whole-file %v", seqT, wholeT)
	}
}

// TestServerGoneFailsFast: once the server is down, in-flight and new
// calls fail with errors instead of hanging.
func TestServerGoneFailsFast(t *testing.T) {
	sim := vtime.NewVirtual()
	srv, client := newServerOpts(t, sim)
	p := sim.NewProc("p")
	sess, err := client.Connect(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Open(p, "gone/f", storage.ModeCreate); err == nil {
		t.Fatal("open against a dead server succeeded")
	}
}

// TestDialTimeout bounds Connect against an unresponsive address.  The
// old client used net.Dial, which could hang indefinitely.
func TestDialTimeout(t *testing.T) {
	// TEST-NET-3 (RFC 5737) is reserved and not routed.
	client := NewClient("203.0.113.1:9", "u", "s", "r", storage.KindRemoteDisk,
		func(c *Client) { c.dialTimeout = 100 * time.Millisecond })
	sim := vtime.NewVirtual()
	p := sim.NewProc("p")
	start := time.Now()
	_, err := client.Connect(p)
	if err == nil {
		t.Fatal("connect to a black-hole address succeeded")
	}
	if wall := time.Since(start); wall > 5*time.Second {
		t.Fatalf("dial took %v despite the 100ms timeout", wall)
	}
}
