package resilient

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/storage"
	"repro/internal/vtime"
)

// Option configures a resilient Backend wrapper.
type Option func(*Backend)

// WithHealth registers the wrapper's breaker in a shared Health
// registry (keyed by the backend name), so placement and replication
// observe the same circuit this wrapper feeds.
func WithHealth(h *Health) Option {
	return func(b *Backend) { b.health = h }
}

// Stats counts the recovery work a wrapper has performed.
type Stats struct {
	// Faults is the number of transient failures observed.
	Faults int64
	// Retries is the number of re-attempts issued.
	Retries int64
	// FastFails is the number of calls rejected by an open circuit
	// without touching the backend.
	FastFails int64
	// Backoff is the virtual time charged to retry delays.
	Backoff time.Duration
}

// Backend wraps a storage.Backend with transparent fault recovery:
// transient failures are retried with capped exponential backoff
// charged to the calling process's virtual clock, a circuit breaker
// sheds load from a persistently failing resource, and permanent
// failures pass through unchanged.  Sessions and handles returned by
// the wrapper keep the inner backend's batched fast paths: when the
// inner handle implements storage.VectorHandle (or the session
// storage.WholeFiler), so does the wrapper.
//
// Retries give every operation at-least-once semantics.  All wrapped
// operations are idempotent (offset-addressed reads and writes,
// whole-file puts), with two seams handled explicitly: a retried
// ModeCreate open that finds the file already created by a
// half-completed attempt reopens it with ModeWrite, and a retried
// Remove that finds the file already gone succeeds.
type Backend struct {
	inner      storage.Backend
	policy     Policy
	breakerCfg BreakerConfig
	health     *Health
	breaker    *Breaker

	faults    atomic.Int64
	retries   atomic.Int64
	fastFails atomic.Int64
	backoff   atomic.Int64 // time.Duration
}

var (
	_ storage.Backend = (*Backend)(nil)
	_ storage.Outage  = (*Backend)(nil)
)

// Wrap returns a resilient view of inner.
func Wrap(inner storage.Backend, opts ...Option) *Backend {
	b := &Backend{
		inner:      inner,
		policy:     Policy{}.withDefaults(),
		breakerCfg: BreakerConfig{}.withDefaults(),
	}
	for _, o := range opts {
		o(b)
	}
	if b.health != nil {
		b.breaker = b.health.Breaker(inner.Name())
	} else {
		b.breaker = NewBreaker(b.breakerCfg)
	}
	return b
}

// Name implements storage.Backend.  The wrapper keeps the inner name so
// breaker registries, meta-data rows and placement all agree on the
// resource's identity.
func (b *Backend) Name() string { return b.inner.Name() }

// Kind implements storage.Backend.
func (b *Backend) Kind() storage.Kind { return b.inner.Kind() }

// Capacity implements storage.Backend.
func (b *Backend) Capacity() (total, used int64) { return b.inner.Capacity() }

// Breaker returns the wrapper's circuit breaker.
func (b *Backend) Breaker() *Breaker { return b.breaker }

// Stats snapshots the recovery counters.
func (b *Backend) Stats() Stats {
	return Stats{
		Faults:    b.faults.Load(),
		Retries:   b.retries.Load(),
		FastFails: b.fastFails.Load(),
		Backoff:   time.Duration(b.backoff.Load()),
	}
}

// SetDown forwards outage control to the inner backend when supported.
func (b *Backend) SetDown(down bool) {
	if o, ok := b.inner.(storage.Outage); ok {
		o.SetDown(down)
	}
}

// Down implements storage.Outage: the resource is unavailable when the
// inner backend declares an outage or the circuit is open, so hint- and
// health-driven placement route around a tripped resource exactly like
// a declared outage.
func (b *Backend) Down() bool {
	if o, ok := b.inner.(storage.Outage); ok && o.Down() {
		return true
	}
	return b.breaker.State() == Open
}

// do runs one logical operation under the breaker and the retry
// policy.  Backoff between attempts is charged to p's virtual clock;
// the breaker observes every attempt's outcome, so a retry storm that
// keeps failing trips the circuit and ends the loop early.
func (b *Backend) do(p *vtime.Proc, op string, f func(attempt int) error) error {
	for attempt := 1; ; attempt++ {
		if !b.breaker.Allow(p.Now()) {
			b.fastFails.Add(1)
			return fmt.Errorf("resilient %q %s: %w", b.Name(), op, ErrCircuitOpen)
		}
		err := f(attempt)
		b.breaker.Report(p.Now(), err)
		if err == nil {
			return nil
		}
		if Permanent(err) {
			return err
		}
		b.faults.Add(1)
		if attempt >= b.policy.MaxAttempts {
			return MarkPermanent(fmt.Errorf("resilient %q %s: %w (%d attempts): %w",
				b.Name(), op, ErrRetriesExhausted, b.policy.MaxAttempts, err))
		}
		delay := b.policy.Backoff(attempt, b.Name()+"/"+op)
		p.Advance(delay)
		b.retries.Add(1)
		b.backoff.Add(int64(delay))
	}
}

// Connect implements storage.Backend, retrying transient connection
// failures.
func (b *Backend) Connect(p *vtime.Proc) (storage.Session, error) {
	var inner storage.Session
	err := b.do(p, "connect", func(int) error {
		var err error
		inner, err = b.inner.Connect(p)
		return err
	})
	if err != nil {
		return nil, err
	}
	return wrapSession(b, inner), nil
}

// session wraps one inner session with recovery.
type session struct {
	b     *Backend
	inner storage.Session
}

// wholeFilerSession additionally exposes the inner session's batched
// whole-file fast path.
type wholeFilerSession struct {
	*session
	wf storage.WholeFiler
}

var _ storage.WholeFiler = (*wholeFilerSession)(nil)

func wrapSession(b *Backend, inner storage.Session) storage.Session {
	s := &session{b: b, inner: inner}
	if wf, ok := inner.(storage.WholeFiler); ok {
		return &wholeFilerSession{session: s, wf: wf}
	}
	return s
}

// Open implements storage.Session.  A retried ModeCreate that runs into
// ErrExist after a transient failure reopens with ModeWrite: the file
// is the empty one a half-completed earlier attempt created.
func (s *session) Open(p *vtime.Proc, name string, mode storage.AMode) (storage.Handle, error) {
	var inner storage.Handle
	err := s.b.do(p, "open", func(attempt int) error {
		var err error
		inner, err = s.inner.Open(p, name, mode)
		if attempt > 1 && mode == storage.ModeCreate && errors.Is(err, storage.ErrExist) {
			inner, err = s.inner.Open(p, name, storage.ModeWrite)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return wrapHandle(s.b, inner), nil
}

// Remove implements storage.Session.  A retried remove that finds the
// file already gone succeeded on an earlier half-completed attempt.
func (s *session) Remove(p *vtime.Proc, name string) error {
	return s.b.do(p, "remove", func(attempt int) error {
		err := s.inner.Remove(p, name)
		if attempt > 1 && errors.Is(err, storage.ErrNotExist) {
			return nil
		}
		return err
	})
}

// Stat implements storage.Session.
func (s *session) Stat(p *vtime.Proc, name string) (storage.FileInfo, error) {
	var fi storage.FileInfo
	err := s.b.do(p, "stat", func(int) error {
		var err error
		fi, err = s.inner.Stat(p, name)
		return err
	})
	return fi, err
}

// List implements storage.Session.
func (s *session) List(p *vtime.Proc, prefix string) ([]storage.FileInfo, error) {
	var fis []storage.FileInfo
	err := s.b.do(p, "list", func(int) error {
		var err error
		fis, err = s.inner.List(p, prefix)
		return err
	})
	return fis, err
}

// Close implements storage.Session.
func (s *session) Close(p *vtime.Proc) error {
	return s.b.do(p, "close", func(attempt int) error {
		err := s.inner.Close(p)
		if attempt > 1 && errors.Is(err, storage.ErrClosed) {
			return nil
		}
		return err
	})
}

// PutFile implements storage.WholeFiler through the inner fast path.
// A retried ModeCreate put that runs into ErrExist after a transient
// failure re-puts with ModeOverWrite (the earlier attempt's partial
// file must be replaced whole).
func (s *wholeFilerSession) PutFile(p *vtime.Proc, name string, mode storage.AMode, data []byte) error {
	return s.b.do(p, "putfile", func(attempt int) error {
		err := s.wf.PutFile(p, name, mode, data)
		if attempt > 1 && mode == storage.ModeCreate && errors.Is(err, storage.ErrExist) {
			return s.wf.PutFile(p, name, storage.ModeOverWrite, data)
		}
		return err
	})
}

// GetFile implements storage.WholeFiler through the inner fast path.
func (s *wholeFilerSession) GetFile(p *vtime.Proc, name string) ([]byte, error) {
	var data []byte
	err := s.b.do(p, "getfile", func(int) error {
		var err error
		data, err = s.wf.GetFile(p, name)
		return err
	})
	return data, err
}

// handle wraps one inner handle with recovery.
type handle struct {
	b     *Backend
	inner storage.Handle
}

// vectorHandle additionally exposes the inner handle's batched
// vectored fast path.
type vectorHandle struct {
	*handle
	v storage.VectorHandle
}

var _ storage.VectorHandle = (*vectorHandle)(nil)

func wrapHandle(b *Backend, inner storage.Handle) storage.Handle {
	h := &handle{b: b, inner: inner}
	if v, ok := inner.(storage.VectorHandle); ok {
		return &vectorHandle{handle: h, v: v}
	}
	return h
}

// Path implements storage.Handle.
func (h *handle) Path() string { return h.inner.Path() }

// Size implements storage.Handle.
func (h *handle) Size() int64 { return h.inner.Size() }

// ReadAt implements storage.Handle.
func (h *handle) ReadAt(p *vtime.Proc, buf []byte, off int64) (int, error) {
	var n int
	err := h.b.do(p, "read", func(int) error {
		var err error
		n, err = h.inner.ReadAt(p, buf, off)
		return err
	})
	return n, err
}

// WriteAt implements storage.Handle.
func (h *handle) WriteAt(p *vtime.Proc, buf []byte, off int64) (int, error) {
	var n int
	err := h.b.do(p, "write", func(int) error {
		var err error
		n, err = h.inner.WriteAt(p, buf, off)
		return err
	})
	return n, err
}

// Close implements storage.Handle.
func (h *handle) Close(p *vtime.Proc) error {
	return h.b.do(p, "close", func(attempt int) error {
		err := h.inner.Close(p)
		if attempt > 1 && errors.Is(err, storage.ErrClosed) {
			return nil
		}
		return err
	})
}

// ReadAtV implements storage.VectorHandle: the whole batch is retried
// as a unit (chunk reads are idempotent).
func (h *vectorHandle) ReadAtV(p *vtime.Proc, vecs []storage.Vec) (int64, error) {
	var n int64
	err := h.b.do(p, "readv", func(int) error {
		var err error
		n, err = h.v.ReadAtV(p, vecs)
		return err
	})
	return n, err
}

// WriteAtV implements storage.VectorHandle.
func (h *vectorHandle) WriteAtV(p *vtime.Proc, vecs []storage.Vec) (int64, error) {
	var n int64
	err := h.b.do(p, "writev", func(int) error {
		var err error
		n, err = h.v.WriteAtV(p, vecs)
		return err
	})
	return n, err
}
