package srbnet

import (
	"errors"
	"fmt"
	"io"
	"testing"
	"time"

	"repro/internal/resilient"
	"repro/internal/storage"
	"repro/internal/vtime"
)

// poison fails every live pooled connection with a transport error,
// simulating a dropped wire.
func poison(c *Client) {
	c.mu.Lock()
	conns := append([]*mux(nil), c.conns...)
	c.mu.Unlock()
	for _, m := range conns {
		m.fail(fmt.Errorf("srbnet client: recv: %w: %w", errConnFailed, io.ErrUnexpectedEOF))
	}
}

// TestRedialRecoversPoisonedPool: killing every pooled connection
// between requests must be invisible to the caller — the next call
// redials and the server-side session keeps working.
func TestRedialRecoversPoisonedPool(t *testing.T) {
	sim := vtime.NewVirtual()
	_, client := newServerOpts(t, sim)
	p := sim.NewProc("p")
	sess, err := client.Connect(p)
	if err != nil {
		t.Fatal(err)
	}
	h, err := sess.Open(p, "f", storage.ModeCreate)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.WriteAt(p, []byte("before"), 0); err != nil {
		t.Fatal(err)
	}

	poison(client)
	client.mu.Lock()
	live := len(client.conns)
	client.mu.Unlock()
	if live != 0 {
		t.Fatalf("%d poisoned connections still pooled", live)
	}

	if _, err := h.WriteAt(p, []byte("after"), 6); err != nil {
		t.Fatalf("write after poisoning: %v", err)
	}
	buf := make([]byte, 11)
	if _, err := h.ReadAt(p, buf, 0); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "beforeafter" {
		t.Fatalf("read %q after redial", buf)
	}
	if err := h.Close(p); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(p); err != nil {
		t.Fatal(err)
	}
}

// TestRedialChargesVirtualBackoff: a request that first lands on a
// poisoned connection pays its redial backoff on the virtual clock.
func TestRedialChargesVirtualBackoff(t *testing.T) {
	sim := vtime.NewVirtual()
	_, client := newServerOpts(t, sim, func(c *Client) { c.redialBackoff = 50 * time.Millisecond })
	p := sim.NewProc("p")
	sess, err := client.Connect(p)
	if err != nil {
		t.Fatal(err)
	}
	// Poison the pool, then stuff a dead mux back in so pickMux hands it
	// out and the first attempt fails with a transport error.
	poison(client)
	dead, err := client.dial()
	if err != nil {
		t.Fatal(err)
	}
	dead.fail(fmt.Errorf("srbnet client: recv: %w: %w", errConnFailed, io.ErrUnexpectedEOF))
	client.mu.Lock()
	client.conns = append(client.conns, dead)
	client.mu.Unlock()

	before := p.Now()
	h, err := sess.Open(p, "g", storage.ModeCreate)
	if err != nil {
		t.Fatalf("open after poisoning: %v", err)
	}
	if p.Now() == before {
		t.Fatal("redial backoff not charged to the virtual clock")
	}
	if err := h.Close(p); err != nil {
		t.Fatal(err)
	}
}

// TestRedialExhaustionIsPermanent: an unreachable server burns the
// bounded redial budget and surfaces one classified permanent error, so
// outer retry layers stop immediately.
func TestRedialExhaustionIsPermanent(t *testing.T) {
	sim := vtime.NewVirtual()
	srv, client := newServerOpts(t, sim, func(c *Client) {
		c.redialAttempts, c.redialBackoff = 2, time.Millisecond
		c.dialTimeout = 200 * time.Millisecond
	})
	p := sim.NewProc("p")
	sess, err := client.Connect(p)
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	poison(client)
	_, err = sess.Open(p, "f", storage.ModeCreate)
	if err == nil {
		t.Fatal("open succeeded against a dead server")
	}
	if !resilient.Permanent(err) {
		t.Fatalf("exhausted redial budget not classified permanent: %v", err)
	}
}

// TestClosedClientNotRedialed: a deliberate Close must surface
// ErrClosed immediately, not burn the redial budget.
func TestClosedClientNotRedialed(t *testing.T) {
	sim := vtime.NewVirtual()
	_, client := newServerOpts(t, sim)
	p := sim.NewProc("p")
	sess, err := client.Connect(p)
	if err != nil {
		t.Fatal(err)
	}
	client.Close()
	before := p.Now()
	if _, err := sess.Open(p, "f", storage.ModeCreate); !errors.Is(err, storage.ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	if p.Now() != before {
		t.Fatal("deliberate close charged redial backoff")
	}
}
