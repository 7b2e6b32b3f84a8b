package resilient

import (
	"errors"
	"testing"
	"time"

	"repro/internal/flaky"
	"repro/internal/localdisk"
	"repro/internal/memfs"
	"repro/internal/storage"
	"repro/internal/vtime"
)

// withPolicy and withBreakerConfig shrink the retry budget and the
// breaker thresholds to test size; shipped wrappers run on the defaults.
func withPolicy(po Policy) Option {
	return func(b *Backend) { b.policy = po.withDefaults() }
}

func withBreakerConfig(cfg BreakerConfig) Option {
	return func(b *Backend) { b.breakerCfg = cfg.withDefaults() }
}

func flakyDisk(t *testing.T, pol flaky.Policy) *flaky.Backend {
	t.Helper()
	inner, err := localdisk.New("ssa", memfs.New())
	if err != nil {
		t.Fatal(err)
	}
	return flaky.Wrap(inner, pol)
}

// TestRetriesMaskEveryNthFault: a 1-in-3 write fault rate never
// surfaces to the caller, and every retry charges virtual time.
func TestRetriesMaskEveryNthFault(t *testing.T) {
	fb := flakyDisk(t, flaky.Policy{FailEvery: 3, Ops: []string{"write"}})
	b := Wrap(fb, withPolicy(Policy{MaxAttempts: 3, BaseDelay: time.Second, Jitter: 0}))
	p := vtime.NewVirtual().NewProc("p")
	sess, err := b.Connect(p)
	if err != nil {
		t.Fatal(err)
	}
	h, err := sess.Open(p, "f", storage.ModeCreate)
	if err != nil {
		t.Fatal(err)
	}
	before := p.Now()
	for i := 0; i < 30; i++ {
		if _, err := h.WriteAt(p, []byte{byte(i)}, int64(i)); err != nil {
			t.Fatalf("write %d: fault surfaced: %v", i, err)
		}
	}
	if err := h.Close(p); err != nil {
		t.Fatal(err)
	}
	st := b.Stats()
	if st.Faults == 0 || st.Retries != st.Faults {
		t.Fatalf("stats = %+v, want every fault retried once", st)
	}
	if fb.Injected() != st.Faults {
		t.Fatalf("injected %d faults, wrapper observed %d", fb.Injected(), st.Faults)
	}
	if charged := p.Now() - before; charged < time.Duration(st.Retries)*time.Second/2 {
		t.Fatalf("backoff not charged to virtual time: %v for %d retries", charged, st.Retries)
	}
	if st.Backoff == 0 {
		t.Fatal("no backoff accounted")
	}
	// The data must be intact after recovery.
	r, err := sess.Open(p, "f", storage.ModeRead)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 30)
	if _, err := r.ReadAt(p, buf, 0); err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		if buf[i] != byte(i) {
			t.Fatalf("byte %d = %d after recovery", i, buf[i])
		}
	}
}

// TestPermanentErrorsPassThrough: a missing file is not retried.
func TestPermanentErrorsPassThrough(t *testing.T) {
	b := Wrap(flakyDisk(t, flaky.Policy{}))
	p := vtime.NewVirtual().NewProc("p")
	sess, err := b.Connect(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Open(p, "absent", storage.ModeRead); !errors.Is(err, storage.ErrNotExist) {
		t.Fatalf("err = %v", err)
	}
	if st := b.Stats(); st.Retries != 0 {
		t.Fatalf("permanent error retried: %+v", st)
	}
}

// TestBreakerShedsLoadAndReportsDown: a solidly failing backend trips
// the circuit; further calls fast-fail and Down() reports the outage.
func TestBreakerShedsLoadAndReportsDown(t *testing.T) {
	fb := flakyDisk(t, flaky.Policy{FailEvery: 1, Ops: []string{"write"}})
	b := Wrap(fb,
		withPolicy(Policy{MaxAttempts: 2, BaseDelay: time.Millisecond, Jitter: 0}),
		withBreakerConfig(BreakerConfig{FailureThreshold: 4, Cooldown: time.Hour}))
	p := vtime.NewVirtual().NewProc("p")
	sess, err := b.Connect(p)
	if err != nil {
		t.Fatal(err)
	}
	h, err := sess.Open(p, "f", storage.ModeCreate)
	if err != nil {
		t.Fatal(err)
	}
	if b.Down() {
		t.Fatal("down before any fault")
	}
	// First write: 2 attempts, both fail → exhausted (2 faults).
	// Second write: 2 more faults → breaker opens at threshold 4.
	for i := 0; i < 2; i++ {
		if _, err := h.WriteAt(p, []byte{1}, 0); err == nil {
			t.Fatal("write unexpectedly succeeded")
		}
	}
	if b.Breaker().State() != Open {
		t.Fatalf("breaker = %v after sustained faults", b.Breaker().State())
	}
	if !b.Down() {
		t.Fatal("open circuit not reported as down")
	}
	injectedBefore := fb.Injected()
	_, err = h.WriteAt(p, []byte{1}, 0)
	if !errors.Is(err, ErrCircuitOpen) || !errors.Is(err, storage.ErrDown) {
		t.Fatalf("fast-fail err = %v", err)
	}
	if fb.Injected() != injectedBefore {
		t.Fatal("open circuit still probed the backend")
	}
	if st := b.Stats(); st.FastFails == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestBreakerRecoversViaProbe: once the virtual cooldown passes, one
// probe closes the circuit again after the fault clears.
func TestBreakerRecoversViaProbe(t *testing.T) {
	fb := flakyDisk(t, flaky.Policy{FailEvery: 1, Ops: []string{"write"}})
	b := Wrap(fb,
		withPolicy(Policy{MaxAttempts: 1}),
		withBreakerConfig(BreakerConfig{FailureThreshold: 2, Cooldown: 10 * time.Second}))
	p := vtime.NewVirtual().NewProc("p")
	sess, _ := b.Connect(p)
	h, err := sess.Open(p, "f", storage.ModeCreate)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		h.WriteAt(p, []byte{1}, 0)
	}
	if b.Breaker().State() != Open {
		t.Fatalf("breaker = %v", b.Breaker().State())
	}
	// Clear the fault and advance past the cooldown: the next call is
	// the half-open probe and closes the circuit.
	fb.SetPolicy(flaky.Policy{})
	p.Advance(11 * time.Second)
	if _, err := h.WriteAt(p, []byte{2}, 0); err != nil {
		t.Fatalf("probe failed: %v", err)
	}
	if b.Breaker().State() != Closed {
		t.Fatalf("breaker = %v after successful probe", b.Breaker().State())
	}
	if b.Down() {
		t.Fatal("recovered backend still down")
	}
}

// stubVector is an in-memory backend whose handles implement
// storage.VectorHandle and whose sessions implement storage.WholeFiler,
// to verify the wrapper preserves the batched fast paths.
type stubVector struct {
	storage.Backend
	calls *int
}

type stubVectorSession struct {
	storage.Session
	calls *int
}

type stubVectorHandle struct {
	storage.Handle
	calls *int
}

func (s *stubVectorSession) Open(p *vtime.Proc, name string, mode storage.AMode) (storage.Handle, error) {
	h, err := s.Session.Open(p, name, mode)
	if err != nil {
		return nil, err
	}
	return &stubVectorHandle{Handle: h, calls: s.calls}, nil
}

func (s *stubVectorSession) PutFile(p *vtime.Proc, name string, mode storage.AMode, data []byte) error {
	*s.calls++
	return storage.PutFile(p, s.Session, name, mode, data)
}

func (s *stubVectorSession) GetFile(p *vtime.Proc, name string) ([]byte, error) {
	*s.calls++
	return storage.GetFile(p, s.Session, name)
}

func (h *stubVectorHandle) ReadAtV(p *vtime.Proc, vecs []storage.Vec) (int64, error) {
	*h.calls++
	var total int64
	for _, v := range vecs {
		n, err := h.ReadAt(p, v.B, v.Off)
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

func (h *stubVectorHandle) WriteAtV(p *vtime.Proc, vecs []storage.Vec) (int64, error) {
	*h.calls++
	var total int64
	for _, v := range vecs {
		n, err := h.WriteAt(p, v.B, v.Off)
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

func (b *stubVector) Connect(p *vtime.Proc) (storage.Session, error) {
	s, err := b.Backend.Connect(p)
	if err != nil {
		return nil, err
	}
	return &stubVectorSession{Session: s, calls: b.calls}, nil
}

// TestBatchedPathsStayBatched: wrapping must surface VectorHandle and
// WholeFiler exactly when the inner backend has them.
func TestBatchedPathsStayBatched(t *testing.T) {
	inner, err := localdisk.New("ssa", memfs.New())
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	stub := &stubVector{Backend: inner, calls: &calls}
	b := Wrap(stub)
	p := vtime.NewVirtual().NewProc("p")
	sess, err := b.Connect(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sess.(storage.WholeFiler); !ok {
		t.Fatal("wrapper hides WholeFiler")
	}
	if err := storage.PutFile(p, sess, "f", storage.ModeCreate, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("PutFile fast path not taken: calls = %d", calls)
	}
	h, err := sess.Open(p, "f", storage.ModeRead)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := h.(storage.VectorHandle); !ok {
		t.Fatal("wrapper hides VectorHandle")
	}
	buf := make([]byte, 3)
	if _, err := storage.ReadV(p, h, []storage.Vec{{Off: 0, B: buf}}); err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("ReadAtV fast path not taken: calls = %d", calls)
	}
	if string(buf) != "abc" {
		t.Fatalf("got %q", buf)
	}

	// A plain backend must NOT grow the optional interfaces.
	plain := Wrap(inner)
	plainSess, err := plain.Connect(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := plainSess.(storage.WholeFiler); ok {
		t.Fatal("wrapper invents WholeFiler")
	}
	ph, err := plainSess.Open(p, "g", storage.ModeCreate)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ph.(storage.VectorHandle); ok {
		t.Fatal("wrapper invents VectorHandle")
	}
}

// TestCreateRetrySeam: a create whose first attempt failed transiently
// and whose retry sees ErrExist reopens the half-created file.
type createSeam struct {
	storage.Backend
	tripped bool
}

type createSeamSession struct {
	storage.Session
	b *createSeam
}

func (b *createSeam) Connect(p *vtime.Proc) (storage.Session, error) {
	s, err := b.Backend.Connect(p)
	if err != nil {
		return nil, err
	}
	return &createSeamSession{Session: s, b: b}, nil
}

func (s *createSeamSession) Open(p *vtime.Proc, name string, mode storage.AMode) (storage.Handle, error) {
	if mode == storage.ModeCreate && !s.b.tripped {
		// The create lands server-side but the reply is lost.
		s.b.tripped = true
		if h, err := s.Session.Open(p, name, mode); err == nil {
			h.Close(p)
		}
		return nil, MarkTransient(errors.New("reply lost"))
	}
	return s.Session.Open(p, name, mode)
}

func TestCreateRetrySeam(t *testing.T) {
	inner, err := localdisk.New("ssa", memfs.New())
	if err != nil {
		t.Fatal(err)
	}
	b := Wrap(&createSeam{Backend: inner}, withPolicy(Policy{MaxAttempts: 3, BaseDelay: time.Millisecond, Jitter: 0}))
	p := vtime.NewVirtual().NewProc("p")
	sess, err := b.Connect(p)
	if err != nil {
		t.Fatal(err)
	}
	h, err := sess.Open(p, "f", storage.ModeCreate)
	if err != nil {
		t.Fatalf("retried create failed: %v", err)
	}
	if _, err := h.WriteAt(p, []byte("ok"), 0); err != nil {
		t.Fatal(err)
	}
	if err := h.Close(p); err != nil {
		t.Fatal(err)
	}
}
