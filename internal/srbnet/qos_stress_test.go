package srbnet

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/memfs"
	"repro/internal/qos"
	"repro/internal/remotedisk"
	"repro/internal/resilient"
	"repro/internal/srb"
	"repro/internal/storage"
	"repro/internal/vtime"
)

// newScheduledServer starts a server whose data plane runs through a
// qos scheduler, with one user per tenant name.
func newScheduledServer(t *testing.T, sim *vtime.Sim, cfg qos.Config, users ...string) (*Server, *qos.Scheduler) {
	t.Helper()
	broker := srb.NewBroker()
	be, err := remotedisk.New("sdsc-disk", memfs.New())
	if err != nil {
		t.Fatal(err)
	}
	if err := broker.Register(be); err != nil {
		t.Fatal(err)
	}
	for _, u := range users {
		broker.AddUser(u, "pw")
	}
	sched, err := qos.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve("127.0.0.1:0", broker, sim, WithScheduler(sched))
	if err != nil {
		t.Fatal(err)
	}
	srv.SetLogf(func(string, ...any) {})
	// LIFO: the scheduler closes first, waking queued handlers so the
	// server's session drain cannot hang on them.
	t.Cleanup(func() { srv.Close() })
	t.Cleanup(sched.Close)
	return srv, sched
}

// TestScheduledStressMixedOpcodes hammers a scheduled server with 8
// tenants × mixed opcodes concurrently (run under -race in CI) and
// verifies no frame is corrupted: every byte read back matches what
// that tenant wrote, and the scheduler accounts every grant.
func TestScheduledStressMixedOpcodes(t *testing.T) {
	const (
		clients = 8
		rounds  = 10
		chunk   = 2048
	)
	sim := vtime.NewVirtual()
	users := make([]string, clients)
	weights := make(map[string]int, clients)
	for k := range users {
		users[k] = fmt.Sprintf("u%d", k)
		weights[users[k]] = 1 + k%4
	}
	srv, sched := newScheduledServer(t, sim, qos.Config{
		Tenants:     weights,
		MaxInFlight: 4,
	}, users...)

	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			user := users[k]
			c := NewClient(srv.Addr(), user, "pw", "sdsc-disk", storage.KindRemoteDisk)
			defer c.Close()
			p := sim.NewProc(user)
			sess, err := c.Connect(p)
			if err != nil {
				t.Errorf("%s: connect: %v", user, err)
				return
			}
			defer sess.Close(p)
			fill := func(i, n int) []byte {
				b := make([]byte, n)
				for j := range b {
					b[j] = byte(k*37 + i*11 + j)
				}
				return b
			}
			h, err := sess.Open(p, user+"/data", storage.ModeCreate)
			if err != nil {
				t.Errorf("%s: open: %v", user, err)
				return
			}
			vh := h.(storage.VectorHandle)
			wf := sess.(storage.WholeFiler)
			for i := 0; i < rounds; i++ {
				pat := fill(i, chunk)
				off := int64(i) * chunk
				if n, err := h.WriteAt(p, pat, off); n != chunk || err != nil {
					t.Errorf("%s: write %d = (%d, %v)", user, i, n, err)
					return
				}
				got := make([]byte, chunk)
				if _, err := h.ReadAt(p, got, off); err != nil {
					t.Errorf("%s: read %d: %v", user, i, err)
					return
				}
				if !bytes.Equal(got, pat) {
					t.Errorf("%s: round %d corrupted", user, i)
					return
				}
				if i%3 == 0 {
					// Vectored write/read of two non-adjacent chunks.
					vbase := int64(rounds+i) * chunk * 2
					w1, w2 := fill(100+i, 512), fill(200+i, 512)
					wv := []storage.Vec{{Off: vbase, B: w1}, {Off: vbase + 1024, B: w2}}
					if n, err := vh.WriteAtV(p, wv); n != 1024 || err != nil {
						t.Errorf("%s: writev %d = (%d, %v)", user, i, n, err)
						return
					}
					r1, r2 := make([]byte, 512), make([]byte, 512)
					rv := []storage.Vec{{Off: vbase, B: r1}, {Off: vbase + 1024, B: r2}}
					if n, err := vh.ReadAtV(p, rv); n != 1024 || err != nil {
						t.Errorf("%s: readv %d = (%d, %v)", user, i, n, err)
						return
					}
					if !bytes.Equal(r1, w1) || !bytes.Equal(r2, w2) {
						t.Errorf("%s: vectored round %d corrupted", user, i)
						return
					}
				}
				if i%4 == 0 {
					// Whole-file transfer plus a control-plane stat.
					blob := fill(300+i, 3*chunk)
					path := fmt.Sprintf("%s/blob%d", user, i)
					if err := wf.PutFile(p, path, storage.ModeCreate, blob); err != nil {
						t.Errorf("%s: putfile %d: %v", user, i, err)
						return
					}
					back, err := wf.GetFile(p, path)
					if err != nil || !bytes.Equal(back, blob) {
						t.Errorf("%s: getfile %d mismatch (err %v)", user, i, err)
						return
					}
					if fi, err := sess.Stat(p, path); err != nil || fi.Size != int64(len(blob)) {
						t.Errorf("%s: stat %d = (%+v, %v)", user, i, fi, err)
						return
					}
				}
			}
			if err := h.Close(p); err != nil {
				t.Errorf("%s: close: %v", user, err)
			}
		}(k)
	}
	wg.Wait()

	st := sched.Stats()
	if len(st.Tenants) != clients {
		t.Fatalf("scheduler saw %d tenants, want %d", len(st.Tenants), clients)
	}
	for _, ts := range st.Tenants {
		if ts.Granted == 0 {
			t.Errorf("tenant %s: no grants", ts.Tenant)
		}
		if ts.Done != ts.Granted {
			t.Errorf("tenant %s: done %d != granted %d", ts.Tenant, ts.Done, ts.Granted)
		}
		if ts.Overloads != 0 {
			t.Errorf("tenant %s: unexpected overloads %d", ts.Tenant, ts.Overloads)
		}
	}
	if st.Queued != 0 || st.InFlight != 0 {
		t.Errorf("scheduler not drained: queued %d inflight %d", st.Queued, st.InFlight)
	}
}

// TestOverloadRoundTripsWire pins the backpressure contract across the
// wire: a shed request surfaces client-side as storage.ErrOverload,
// classified transient by resilient, with a positive RetryAfter hint —
// and the same request succeeds once the queue drains.
func TestOverloadRoundTripsWire(t *testing.T) {
	sim := vtime.NewVirtual()
	srv, sched := newScheduledServer(t, sim, qos.Config{
		MaxInFlight:    1,
		MaxQueuedBytes: 64,
	}, "alice", "bob")

	p1 := sim.NewProc("alice")
	c1 := NewClient(srv.Addr(), "alice", "pw", "sdsc-disk", storage.KindRemoteDisk)
	defer c1.Close()
	sess1, err := c1.Connect(p1)
	if err != nil {
		t.Fatal(err)
	}
	h1, err := sess1.Open(p1, "alice/f", storage.ModeCreate)
	if err != nil {
		t.Fatal(err)
	}
	p2 := sim.NewProc("bob")
	c2 := NewClient(srv.Addr(), "bob", "pw", "sdsc-disk", storage.KindRemoteDisk)
	defer c2.Close()
	sess2, err := c2.Connect(p2)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := sess2.Open(p2, "bob/f", storage.ModeCreate)
	if err != nil {
		t.Fatal(err)
	}

	// Build a backlog: with the scheduler paused, alice's write queues.
	sched.Pause()
	wrote := make(chan error, 1)
	go func() {
		_, err := h1.WriteAt(p1, make([]byte, 32), 0)
		wrote <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for sched.QueueDepth() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("alice's write never queued")
		}
		time.Sleep(50 * time.Microsecond)
	}

	// Bob's 128-byte write blows the 64-byte global budget.
	_, err = h2.WriteAt(p2, make([]byte, 128), 0)
	if err == nil {
		t.Fatal("want overload error, got nil")
	}
	if !errors.Is(err, storage.ErrOverload) {
		t.Errorf("errors.Is(err, ErrOverload) false across the wire: %v", err)
	}
	if !resilient.Transient(err) {
		t.Errorf("wire overload not transient: %v", err)
	}
	if after, ok := resilient.RetryAfterOf(err); !ok || after <= 0 {
		t.Errorf("RetryAfterOf across the wire = (%v, %v), want positive hint", after, ok)
	}

	// Drain and retry: both writes must now land intact.
	sched.Resume()
	if err := <-wrote; err != nil {
		t.Fatalf("alice's queued write: %v", err)
	}
	if n, err := h2.WriteAt(p2, make([]byte, 128), 0); n != 128 || err != nil {
		t.Fatalf("bob's retry = (%d, %v)", n, err)
	}
	if sched.Stats().Overloads != 1 {
		t.Errorf("overloads %d, want 1", sched.Stats().Overloads)
	}
}

// TestScheduledRoundTripAllocCeiling holds wire-small's count where
// tier-1 sees it: a 4 KiB WriteAt or ReadAt over loopback — client
// codec and mux, server demux, a parked handler, the scheduler, the
// broker and back — costs at most 2 allocations on both sides together
// (it was 24, and the steady state now measures 0: the slack is for a
// GC emptying the sync.Pools mid-run and a handler spawned because none
// was parked yet).
func TestScheduledRoundTripAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	sim := vtime.NewVirtual()
	srv, _ := newScheduledServer(t, sim, qos.Config{Tenants: map[string]int{"astro3d": 3}}, "astro3d")
	c := NewClient(srv.Addr(), "astro3d", "pw", "sdsc-disk", storage.KindRemoteDisk)
	defer c.Close()
	p := sim.NewProc("client")
	sess, err := c.Connect(p)
	if err != nil {
		t.Fatal(err)
	}
	h, err := sess.Open(p, "small/f", storage.ModeWrite)
	if err != nil {
		t.Fatal(err)
	}
	buf := bytes.Repeat([]byte{0x5A}, 4<<10)
	i := 0
	op := func() {
		var err error
		if i++; i%2 == 1 {
			_, err = h.WriteAt(p, buf, 0)
		} else {
			_, err = h.ReadAt(p, buf, 0)
		}
		if err != nil {
			panic(err)
		}
	}
	for j := 0; j < 64; j++ {
		op() // warm the pools, the waiter free list and the file
	}
	avg := testing.AllocsPerRun(2000, op)
	t.Logf("scheduled 4 KiB round trip: %v allocs/op", avg)
	if avg > 2 {
		t.Fatalf("scheduled 4 KiB round trip: %v allocs/op, want <= 2", avg)
	}
	if err := h.Close(p); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(p); err != nil {
		t.Fatal(err)
	}
}

// TestBlockedRequestDoesNotDelayNextFrame: handler goroutines are
// reused across a connection's requests, but a request still never
// waits for one.  The connection's only handler is parked after the
// warm-up; the next request takes it and blocks in the paused
// scheduler, so the frame after that must get a handler of its own.
func TestBlockedRequestDoesNotDelayNextFrame(t *testing.T) {
	sim := vtime.NewVirtual()
	srv, sched := newScheduledServer(t, sim, qos.Config{}, "alice")
	c := NewClient(srv.Addr(), "alice", "pw", "sdsc-disk", storage.KindRemoteDisk)
	defer c.Close()
	p := sim.NewProc("alice")
	sess, err := c.Connect(p)
	if err != nil {
		t.Fatal(err)
	}
	h, err := sess.Open(p, "alice/f", storage.ModeCreate)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.WriteAt(p, make([]byte, 32), 0); err != nil {
		t.Fatal(err)
	}

	sched.Pause()
	read := make(chan error, 1)
	go func() {
		_, err := h.ReadAt(sim.NewProc("alice/blocked"), make([]byte, 32), 0)
		read <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for sched.QueueDepth() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the read never queued")
		}
		time.Sleep(50 * time.Microsecond)
	}
	// Stat is not a scheduled opcode: only a free handler can answer it.
	if fi, err := sess.Stat(p, "alice/f"); err != nil || fi.Size != 32 {
		t.Fatalf("Stat behind a blocked read on the same connection = %+v, %v", fi, err)
	}
	select {
	case err := <-read:
		t.Fatalf("the read ran while the scheduler was paused: %v", err)
	default:
	}
	sched.Resume()
	if err := <-read; err != nil {
		t.Fatalf("blocked read after Resume: %v", err)
	}
}
