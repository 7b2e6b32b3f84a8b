package flaky

import (
	"errors"
	"testing"

	"repro/internal/apps/astro3d"
	"repro/internal/core"
	"repro/internal/localdisk"
	"repro/internal/memfs"
	"repro/internal/metadb"
	"repro/internal/storage"
	"repro/internal/vtime"
)

func inner(t *testing.T) storage.Backend {
	t.Helper()
	be, err := localdisk.New("l", memfs.New())
	if err != nil {
		t.Fatal(err)
	}
	return be
}

func TestEveryNthWriteFails(t *testing.T) {
	b := Wrap(inner(t), Policy{FailEvery: 3, Ops: []string{"write"}})
	p := vtime.NewVirtual().NewProc("p")
	sess, err := b.Connect(p)
	if err != nil {
		t.Fatal(err)
	}
	h, err := sess.Open(p, "f", storage.ModeCreate)
	if err != nil {
		t.Fatal(err)
	}
	failures := 0
	for i := 0; i < 9; i++ {
		if _, err := h.WriteAt(p, []byte{1}, int64(i)); err != nil {
			failures++
			if !errors.Is(err, storage.ErrDown) {
				t.Fatalf("injected err = %v", err)
			}
		}
	}
	if failures != 3 || b.Injected() != 3 {
		t.Fatalf("failures = %d, injected = %d, want 3", failures, b.Injected())
	}
}

func TestOpFilterAndCustomError(t *testing.T) {
	custom := errors.New("boom")
	b := Wrap(inner(t), Policy{FailEvery: 1, Err: custom, Ops: []string{"read"}})
	p := vtime.NewVirtual().NewProc("p")
	sess, err := b.Connect(p) // connect unaffected
	if err != nil {
		t.Fatal(err)
	}
	h, err := sess.Open(p, "f", storage.ModeCreate) // open unaffected
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.WriteAt(p, []byte{1}, 0); err != nil { // write unaffected
		t.Fatal(err)
	}
	if _, err := h.ReadAt(p, make([]byte, 1), 0); !errors.Is(err, custom) {
		t.Fatalf("read err = %v, want custom", err)
	}
}

func TestZeroPolicyIsTransparent(t *testing.T) {
	b := Wrap(inner(t), Policy{})
	p := vtime.NewVirtual().NewProc("p")
	sess, _ := b.Connect(p)
	h, err := sess.Open(p, "f", storage.ModeCreate)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := h.WriteAt(p, []byte{1}, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if b.Injected() != 0 {
		t.Fatalf("injected = %d", b.Injected())
	}
}

// TestRunSurfacesMidRunFault: a fault in the middle of an application
// run must surface as a clean error, not a hang or corruption.
func TestRunSurfacesMidRunFault(t *testing.T) {
	be := Wrap(inner(t), Policy{FailEvery: 10, Ops: []string{"write"}})
	sys, err := core.NewSystem(core.SystemConfig{
		Sim: vtime.NewVirtual(), Meta: metadb.New(), LocalDisk: be,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = astro3d.Run(sys, "r", astro3d.Params{
		Nx: 8, Ny: 8, Nz: 8, MaxIter: 12, AnalysisFreq: 3, Procs: 2,
		DefaultLocation: core.LocLocalDisk,
	})
	if err == nil {
		t.Fatal("mid-run fault swallowed")
	}
	if !errors.Is(err, storage.ErrDown) {
		t.Fatalf("fault surfaced as %v", err)
	}
}

func TestPassthroughSurface(t *testing.T) {
	b := Wrap(inner(t), Policy{})
	if b.Kind() != storage.KindLocalDisk || b.Name() != "l" {
		t.Fatalf("identity = %v/%v", b.Kind(), b.Name())
	}
	if total, _ := b.Capacity(); total == 0 {
		t.Fatal("capacity not forwarded")
	}
	b.SetDown(true)
	if !b.Down() {
		t.Fatal("outage not forwarded")
	}
	b.SetDown(false)
	p := vtime.NewVirtual().NewProc("p")
	sess, err := b.Connect(p)
	if err != nil {
		t.Fatal(err)
	}
	h, _ := sess.Open(p, "d/f", storage.ModeCreate)
	h.WriteAt(p, []byte{1, 2}, 0)
	if h.Size() != 2 || h.Path() != "d/f" {
		t.Fatalf("handle surface = %d %q", h.Size(), h.Path())
	}
	if err := h.Close(p); err != nil {
		t.Fatal(err)
	}
	fi, err := sess.Stat(p, "d/f")
	if err != nil || fi.Size != 2 {
		t.Fatalf("Stat = %+v, %v", fi, err)
	}
	ls, err := sess.List(p, "d/")
	if err != nil || len(ls) != 1 {
		t.Fatalf("List = %v, %v", ls, err)
	}
	if err := sess.Remove(p, "d/f"); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(p); err != nil {
		t.Fatal(err)
	}
}

func TestConnectFault(t *testing.T) {
	b := Wrap(inner(t), Policy{FailEvery: 1, Ops: []string{"connect"}})
	p := vtime.NewVirtual().NewProc("p")
	if _, err := b.Connect(p); !errors.Is(err, storage.ErrDown) {
		t.Fatalf("connect fault = %v", err)
	}
}

func TestBurstFailsConsecutiveOps(t *testing.T) {
	// Every 5th write starts a burst of 3 consecutive failures.
	b := Wrap(inner(t), Policy{FailEvery: 5, FailFor: 3, Ops: []string{"write"}})
	p := vtime.NewVirtual().NewProc("p")
	sess, _ := b.Connect(p)
	h, err := sess.Open(p, "f", storage.ModeCreate)
	if err != nil {
		t.Fatal(err)
	}
	var outcomes []bool
	off := int64(0)
	for i := 0; i < 12; i++ {
		n, err := h.WriteAt(p, []byte{1}, off)
		outcomes = append(outcomes, err == nil)
		off += int64(n)
	}
	// Counted ops 1-4 pass, the 5th fires and starts a burst that burns
	// the next two calls without counting them; the count then resumes
	// at 6 and the next fault fires at 10 (the 12th call).
	want := []bool{true, true, true, true, false, false, false, true, true, true, true, false}
	for i := range want {
		if outcomes[i] != want[i] {
			t.Fatalf("op %d: ok = %v, outcomes = %v", i, outcomes[i], outcomes)
		}
	}
	if b.Injected() != 4 {
		t.Fatalf("injected = %d, want 4", b.Injected())
	}
}

func TestSeekFaults(t *testing.T) {
	b := Wrap(inner(t), Policy{FailEvery: 1, Ops: []string{"seek"}})
	p := vtime.NewVirtual().NewProc("p")
	sess, _ := b.Connect(p)
	h, err := sess.Open(p, "f", storage.ModeCreate)
	if err != nil {
		t.Fatal(err)
	}
	// Sequential writes never reposition, so they never trip.
	for i := int64(0); i < 4; i++ {
		if _, err := h.WriteAt(p, []byte{1}, i); err != nil {
			t.Fatalf("sequential write %d tripped seek: %v", i, err)
		}
	}
	// Jumping back repositions: the seek fault fires.
	if _, err := h.WriteAt(p, []byte{1}, 0); !errors.Is(err, storage.ErrDown) {
		t.Fatalf("non-sequential write err = %v, want seek fault", err)
	}
	// A fresh handle starts at position zero, so a scan from the start
	// is sequential; jumping back mid-scan repositions and trips.
	r, err := sess.Open(p, "f", storage.ModeRead)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadAt(p, make([]byte, 2), 0); err != nil {
		t.Fatalf("sequential read tripped seek: %v", err)
	}
	if _, err := r.ReadAt(p, make([]byte, 2), 2); err != nil {
		t.Fatalf("continuing read tripped seek: %v", err)
	}
	if _, err := r.ReadAt(p, make([]byte, 1), 0); !errors.Is(err, storage.ErrDown) {
		t.Fatalf("strided read err = %v, want seek fault", err)
	}
	if b.Injected() != 2 {
		t.Fatalf("injected = %d, want 2", b.Injected())
	}
}

func TestCloseFaults(t *testing.T) {
	b := Wrap(inner(t), Policy{FailEvery: 1, Ops: []string{"close"}})
	p := vtime.NewVirtual().NewProc("p")
	sess, err := b.Connect(p)
	if err != nil {
		t.Fatal(err)
	}
	h, err := sess.Open(p, "f", storage.ModeCreate)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Close(p); !errors.Is(err, storage.ErrDown) {
		t.Fatalf("handle close err = %v, want injected fault", err)
	}
	if err := sess.Close(p); !errors.Is(err, storage.ErrDown) {
		t.Fatalf("session close err = %v, want injected fault", err)
	}
}

func TestSetPolicyClearsFaultsAndBurst(t *testing.T) {
	b := Wrap(inner(t), Policy{FailEvery: 1, FailFor: 100, Ops: []string{"write"}})
	p := vtime.NewVirtual().NewProc("p")
	sess, _ := b.Connect(p)
	h, err := sess.Open(p, "f", storage.ModeCreate)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.WriteAt(p, []byte{1}, 0); err == nil {
		t.Fatal("fault not injected")
	}
	b.SetPolicy(Policy{})
	if _, err := h.WriteAt(p, []byte{1}, 0); err != nil {
		t.Fatalf("burst survived SetPolicy: %v", err)
	}
}
