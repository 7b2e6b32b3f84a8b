// Package qos is the multi-tenant request scheduler of the
// multi-storage resource architecture: a queueing layer that sits
// between srbnet's tagged-frame demux and the storage backends, where
// the paper's broker multiplexes many simultaneous producers and
// consumers (Astro3D, MSE, Volren, viewers) over shared disks and HPSS
// tape.
//
// Without it the server executes every opcode greedily in arrival
// order, so one bulk client starves everyone and tape thrashes mounts.
// The scheduler provides what production HSM stagers put in front of
// their movers:
//
//   - per-tenant weighted fair queueing, deficit-round-robin over
//     *priced* cost: each request is weighed by its eq. (2) predicted
//     service time (size + resource class), so a tape read counts at
//     its true device cost, not its byte count;
//   - a tape-aware batch lane that groups queued tape reads by
//     cartridge and orders them by position on the tape, amortizing
//     MountLatency and WindPerByte across the batch; queued tape
//     writes batch too (they all append to the staging cartridge), the
//     lane the HSM engine migrates cold disk data through;
//   - admission control: bounded per-tenant and global queued-byte
//     budgets, shedding excess load with a typed ErrOverload carrying
//     a RetryAfter drain hint (honored by resilient.Policy, so shed
//     clients come back when the queue can take them — no retry storm);
//   - full observability: every queue decision is recorded through
//     internal/trace, and Stats() feeds the msra_qos_* Prometheus
//     families in webui.
package qos

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/storage"
	"repro/internal/tape"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// Request describes one unit of schedulable work.
type Request struct {
	// Tenant is the accountable principal (the srbnet user).  Unknown
	// tenants are admitted at defaultWeight.
	Tenant string
	// Backend and Class identify the resource the work runs against;
	// Class is the storage.Kind string ("remotetape", ...) used for
	// predictor pricing and tape-batch eligibility.
	Backend string
	Class   string
	// Op is the priced direction, "read" or "write".
	Op string
	// Path is the target file (batch grouping key input).
	Path string
	// Bytes is the request's payload size; 0 for whole-file ops whose
	// size is unknown at admission.
	Bytes int64
}

// Pricer converts a request into scheduling cost, in predicted seconds
// of service time.  See DefaultPricer and PredictPricer.
type Pricer func(class, op string, bytes int64) float64

// TapeInfo is the view of a tape library the batch lane needs: an
// atomic path→(cartridge, offset) snapshot and the layout generation
// it belongs to.  *tape.Library implements it.
type TapeInfo interface {
	LocateAll(paths []string) ([]tape.Placement, int64)
	Generation() int64
}

// Config parameterizes a Scheduler.
type Config struct {
	// Tenants maps tenant name to DRR weight (service share ratio).
	// Tenants absent from the map get defaultWeight.
	Tenants map[string]int
	// MaxInFlight bounds concurrently executing requests (default 4).
	MaxInFlight int
	// MaxQueuedBytes bounds the bytes queued across all tenants; 0
	// means unlimited.  A request that would exceed it is shed with
	// ErrOverload — unless the whole queue is empty, so a single
	// over-budget request can always make progress.
	MaxQueuedBytes int64
	// TenantQueuedBytes bounds one tenant's queued bytes; 0 unlimited.
	TenantQueuedBytes int64
	// Price converts requests to cost (default DefaultPricer).
	Price Pricer
	// Tape, when non-nil, enables the cartridge batch lane for reads
	// and writes whose Class is "remotetape".
	Tape TapeInfo
	// Trace, when non-nil, records every queue decision.
	Trace *trace.Recorder
}

const (
	// defaultWeight is the DRR weight of a tenant absent from
	// Config.Tenants.
	defaultWeight = 1
	// quantum is the DRR deficit added per round per unit weight, in
	// priced seconds.  Fairness ratios depend only on the weights; the
	// quantum sets burst granularity.
	quantum = 0.1
	// maxBatch caps one cartridge batch.
	maxBatch = 32
)

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 4
	}
	if c.Price == nil {
		c.Price = DefaultPricer
	}
	return c
}

// OverloadError is the typed backpressure returned when admission
// control sheds a request.  It unwraps to storage.ErrOverload (so
// errors.Is works across the wire) and carries the honor-after drain
// hint resilient.Policy uses in place of its exponential schedule.
type OverloadError struct {
	Tenant string
	// Queued is the byte depth that tripped the budget.
	Queued int64
	// After estimates when the queue will have drained enough to admit
	// the request: total queued priced cost over MaxInFlight servers.
	After time.Duration
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("qos: tenant %q shed (%d B queued, retry after %v): %v",
		e.Tenant, e.Queued, e.After, storage.ErrOverload)
}

func (e *OverloadError) Unwrap() error { return storage.ErrOverload }

// RetryAfter implements the honor-after contract consumed by
// resilient.RetryAfterOf.
func (e *OverloadError) RetryAfter() time.Duration { return e.After }

// waiter is one queued request.  Waiters are recycled through
// Scheduler.free: a waiter is allocated with its grant channel once and
// returns to the list only when its request is over — at release, or
// in Do once a failed grant has been received — never while a tenant
// queue or s.batch still points at it.
type waiter struct {
	req    Request
	cost   float64 // priced seconds
	tenant *tenantQ
	// grant carries the one token of this request: nil when it may run,
	// errClosed when the scheduler shut down first.  1-buffered so the
	// granter never blocks; sent once per enqueue and received by Do
	// before the waiter is recycled, so it is empty on reuse.
	grant chan error
	enq   time.Time // wall arrival, for wait accounting
	next  *waiter   // free-list link
}

// errClosed fails requests that meet a closed scheduler.
var errClosed = fmt.Errorf("qos: scheduler %w", storage.ErrClosed)

// tenantQ is one tenant's DRR state.
type tenantQ struct {
	name    string
	weight  int
	q       []*waiter
	deficit float64

	queuedBytes int64
	queuedCount int // queued, not yet granted (includes batch members)
	stats       TenantStats
}

// Scheduler is the multi-tenant request scheduler.  Create with New,
// submit work with Do, shut down with Close.
type Scheduler struct {
	cfg Config

	mu       sync.Mutex
	closed   bool
	paused   bool
	tenants  map[string]*tenantQ
	ring     []*tenantQ // tenants in creation order (DRR rotation)
	cursor   int
	inflight int
	free     *waiter // recycled waiters

	queuedBytes int64
	queuedCount int
	queuedCost  float64

	// In-flight tape batch: already charged to its tenants' deficits,
	// granted ahead of everything until drained or invalidated.
	batch    []*waiter
	batchGen int64

	stats Stats
}

// New validates cfg and returns a ready scheduler.
func New(cfg Config) (*Scheduler, error) {
	for name, w := range cfg.Tenants {
		if name == "" {
			return nil, fmt.Errorf("qos: empty tenant name")
		}
		if w <= 0 {
			return nil, fmt.Errorf("qos: tenant %q has non-positive weight %d", name, w)
		}
	}
	if cfg.MaxInFlight < 0 || cfg.MaxQueuedBytes < 0 || cfg.TenantQueuedBytes < 0 {
		return nil, fmt.Errorf("qos: negative budget")
	}
	s := &Scheduler{cfg: cfg.withDefaults(), tenants: make(map[string]*tenantQ)}
	return s, nil
}

// Do schedules req and, once granted, runs fn.  The queue wait costs
// nothing on p's virtual clock — queueing is a wall-time phenomenon of
// the shared server, and fn's own device acquisitions charge the
// contention to p in grant order.  Do returns fn's error, or an
// *OverloadError / ErrClosed-wrapped error if the request never ran.
func (s *Scheduler) Do(p *vtime.Proc, req Request, fn func() error) error {
	w, err := s.enqueue(req)
	if err != nil {
		var oe *OverloadError
		if s.cfg.Trace != nil && AsOverload(err, &oe) {
			s.cfg.Trace.Record(trace.Event{
				At: p.Now(), Proc: req.Tenant, Backend: req.Backend,
				Op: trace.OpQueueReject, Path: req.Path, Bytes: req.Bytes,
				Cost: oe.After,
			})
		}
		return err
	}
	if err := <-w.grant; err != nil {
		s.mu.Lock()
		s.recycleLocked(w)
		s.mu.Unlock()
		return err
	}
	if s.cfg.Trace != nil {
		s.cfg.Trace.Record(trace.Event{
			At: p.Now(), Proc: req.Tenant, Backend: req.Backend,
			Op: trace.OpQueueGrant, Path: req.Path, Bytes: req.Bytes,
			Cost: time.Since(w.enq),
		})
	}
	start := p.Now()
	ferr := fn()
	s.release(w, p.Now()-start)
	return ferr
}

// AsOverload is a small errors.As convenience for *OverloadError.
func AsOverload(err error, target **OverloadError) bool {
	return errors.As(err, target)
}

func (s *Scheduler) tenantLocked(name string) *tenantQ {
	if t, ok := s.tenants[name]; ok {
		return t
	}
	w, ok := s.cfg.Tenants[name]
	if !ok {
		w = defaultWeight
	}
	t := &tenantQ{name: name, weight: w}
	t.stats.Tenant = name
	t.stats.Weight = w
	s.tenants[name] = t
	s.ring = append(s.ring, t)
	return t
}

// waiterLocked takes a waiter off the free list, or makes one.
func (s *Scheduler) waiterLocked() *waiter {
	w := s.free
	if w == nil {
		return &waiter{grant: make(chan error, 1)}
	}
	s.free, w.next = w.next, nil
	return w
}

// recycleLocked returns a finished request's waiter to the free list.
func (s *Scheduler) recycleLocked(w *waiter) {
	w.req, w.tenant = Request{}, nil
	w.next, s.free = s.free, w
}

func (s *Scheduler) enqueue(req Request) (*waiter, error) {
	cost := s.cfg.Price(req.Class, req.Op, req.Bytes)
	if cost <= 0 {
		cost = minCost
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errClosed
	}
	t := s.tenantLocked(req.Tenant)
	// Admission control.  An empty scope always admits one request so
	// an over-budget single request cannot be starved forever.
	if s.cfg.MaxQueuedBytes > 0 && s.queuedCount > 0 &&
		s.queuedBytes+req.Bytes > s.cfg.MaxQueuedBytes {
		return nil, s.overloadLocked(t, s.queuedBytes)
	}
	if s.cfg.TenantQueuedBytes > 0 && t.queuedCount > 0 &&
		t.queuedBytes+req.Bytes > s.cfg.TenantQueuedBytes {
		return nil, s.overloadLocked(t, t.queuedBytes)
	}
	w := s.waiterLocked()
	w.req, w.cost, w.tenant, w.enq = req, cost, t, time.Now()
	t.q = append(t.q, w)
	s.queuedBytes += req.Bytes
	s.queuedCount++
	s.queuedCost += cost
	t.queuedBytes += req.Bytes
	t.queuedCount++
	t.stats.Enqueued++
	if t.queuedCount > t.stats.MaxDepth {
		t.stats.MaxDepth = t.queuedCount
	}
	if !s.paused {
		s.grantLocked()
	}
	return w, nil
}

// minCost floors priced cost so zero-byte requests still consume
// deficit and drain estimates stay positive.
const minCost = 1e-3

func (s *Scheduler) overloadLocked(t *tenantQ, queued int64) error {
	t.stats.Overloads++
	s.stats.Overloads++
	after := time.Duration(s.queuedCost / float64(s.cfg.MaxInFlight) * float64(time.Second))
	if after < 100*time.Millisecond {
		after = 100 * time.Millisecond
	}
	if after > 30*time.Second {
		after = 30 * time.Second
	}
	return &OverloadError{Tenant: t.name, Queued: queued, After: after}
}

// grantLocked starts queued work while in-flight slots are free.
func (s *Scheduler) grantLocked() {
	for s.inflight < s.cfg.MaxInFlight {
		w := s.nextLocked()
		if w == nil {
			return
		}
		s.inflight++
		s.queuedBytes -= w.req.Bytes
		s.queuedCount--
		s.queuedCost -= w.cost
		t := w.tenant
		t.queuedBytes -= w.req.Bytes
		t.queuedCount--
		t.stats.Granted++
		t.stats.GrantedBytes += w.req.Bytes
		t.stats.GrantedCost += w.cost
		t.stats.Wait += time.Since(w.enq)
		w.grant <- nil
	}
}

// nextLocked picks the next request: the in-flight tape batch first
// (re-validated against the library generation), then deficit round
// robin.
func (s *Scheduler) nextLocked() *waiter {
	for len(s.batch) > 0 {
		if s.cfg.Tape != nil && s.cfg.Tape.Generation() != s.batchGen {
			s.abandonBatchLocked()
			break
		}
		w := s.batch[0]
		s.batch = s.batch[1:]
		return w
	}
	return s.drrLocked()
}

// drrLocked runs one deficit-round-robin selection.  The cursor stays
// on a tenant while its deficit covers its head-of-line cost (classic
// DRR serves a flow until the deficit runs out); when a full rotation
// finds no grantable tenant, every backlogged tenant is topped up by
// the minimal whole number of quanta that makes one eligible — an O(1)
// jump equivalent to running that many empty rounds.
func (s *Scheduler) drrLocked() *waiter {
	backlogged := 0
	for _, t := range s.ring {
		if len(t.q) > 0 {
			backlogged++
		}
	}
	if backlogged == 0 {
		return nil
	}
	for {
		for i := 0; i < len(s.ring); i++ {
			t := s.ring[s.cursor]
			if len(t.q) == 0 || t.deficit+1e-9 < t.q[0].cost {
				s.cursor = (s.cursor + 1) % len(s.ring)
				continue
			}
			w := t.q[0]
			t.deficit -= w.cost
			if len(t.q) > 1 {
				t.q = t.q[1:]
			} else {
				// Drained: truncate rather than slice past the head, so
				// the queue keeps its capacity for the next request.  An
				// idle flow must not bank deficit: weights shape
				// *backlogged* service shares only.
				t.q = t.q[:0]
				t.deficit = 0
			}
			if b := s.maybeBatchLocked(w); b != nil {
				return b
			}
			return w
		}
		// Full rotation, nobody eligible: top up.
		rounds := 0.0
		for _, t := range s.ring {
			if len(t.q) == 0 {
				continue
			}
			k := math.Ceil((t.q[0].cost - t.deficit) / (quantum * float64(t.weight)))
			if k < 1 {
				k = 1
			}
			if rounds == 0 || k < rounds {
				rounds = k
			}
		}
		for _, t := range s.ring {
			if len(t.q) > 0 {
				t.deficit += rounds * quantum * float64(t.weight)
			}
		}
	}
}

// tapeRead reports whether w is eligible for the cartridge batch lane.
func tapeRead(w *waiter) bool {
	return w.req.Class == storage.KindRemoteTape.String() && w.req.Op == "read" && w.req.Path != ""
}

// tapeWrite reports whether w is eligible for the staging-cartridge
// write batch lane.
func tapeWrite(w *waiter) bool {
	return w.req.Class == storage.KindRemoteTape.String() && w.req.Op == "write" && w.req.Path != ""
}

// maybeWriteBatchLocked grows the DRR winner w into a staging-cartridge
// write batch: queued tape writes all append to the library's current
// staging cartridge, so draining them back-to-back amortizes the mount
// the way the read lane amortizes winds.  Members keep arrival order
// (appends have no offsets to sort by) and the batch is stamped with
// the current layout generation; tape.Reclaim bumps the generation, so
// a repack concurrent with an in-flight migration batch makes
// nextLocked abandon the remainder — members requeue at the front of
// their tenant queues with their deficit charge refunded, and none is
// ever granted (written) twice.
func (s *Scheduler) maybeWriteBatchLocked(w *waiter) *waiter {
	cands := []*waiter{w}
	for _, t := range s.ring {
		for _, x := range t.q {
			if tapeWrite(x) && len(cands) < maxBatch {
				cands = append(cands, x)
			}
		}
	}
	if len(cands) == 1 {
		return nil
	}
	// Detach the extra members from their tenant queues and charge
	// their cost as if DRR had granted them now.  (w itself was already
	// dequeued and charged by drrLocked.)
	taken := make(map[*waiter]bool, len(cands))
	var bytes int64
	for _, m := range cands {
		taken[m] = true
		bytes += m.req.Bytes
	}
	for _, t := range s.ring {
		kept := t.q[:0]
		for _, x := range t.q {
			if taken[x] {
				t.deficit -= x.cost
			} else {
				kept = append(kept, x)
			}
		}
		t.q = kept
	}
	s.batch = append(s.batch[:0], cands...)
	s.batchGen = s.cfg.Tape.Generation()
	s.stats.Batches++
	s.stats.Batched += int64(len(cands))
	if s.cfg.Trace != nil {
		s.cfg.Trace.Record(trace.Event{
			Proc: "qos", Backend: w.req.Backend, Op: trace.OpQueueBatch,
			Path: "staging-cartridge", Bytes: bytes,
		})
	}
	first := s.batch[0]
	s.batch = s.batch[1:]
	return first
}

// maybeBatchLocked tries to grow the DRR winner w into a cartridge
// batch: every queued tape read on w's cartridge (across all tenants,
// up to maxBatch) is pulled out of its queue, charged to its tenant's
// deficit — members may drive a deficit negative, which is exactly how
// DRR repays the advance over later rounds — and the members are
// ordered by tape position so the drive winds monotonically.  Returns
// the first member to grant, or nil to grant w itself unbatched.
func (s *Scheduler) maybeBatchLocked(w *waiter) *waiter {
	if s.cfg.Tape == nil {
		return nil
	}
	if tapeWrite(w) {
		return s.maybeWriteBatchLocked(w)
	}
	if !tapeRead(w) {
		return nil
	}
	cands := []*waiter{w}
	for _, t := range s.ring {
		for _, x := range t.q {
			if tapeRead(x) {
				cands = append(cands, x)
			}
		}
	}
	if len(cands) == 1 {
		return nil
	}
	paths := make([]string, len(cands))
	for i, x := range cands {
		paths[i] = x.req.Path
	}
	placements, gen := s.cfg.Tape.LocateAll(paths)
	if !placements[0].OK {
		return nil
	}
	cart := placements[0].Cart
	type member struct {
		w   *waiter
		off int64
	}
	batch := []member{{w, placements[0].Off}}
	for i := 1; i < len(cands) && len(batch) < maxBatch; i++ {
		if placements[i].OK && placements[i].Cart == cart {
			batch = append(batch, member{cands[i], placements[i].Off})
		}
	}
	if len(batch) == 1 {
		return nil
	}
	// Detach the extra members from their tenant queues and charge
	// their cost as if DRR had granted them now.  (w itself was already
	// dequeued and charged by drrLocked.)
	taken := make(map[*waiter]bool, len(batch))
	var bytes int64
	for _, m := range batch {
		taken[m.w] = true
		bytes += m.w.req.Bytes
	}
	for _, t := range s.ring {
		kept := t.q[:0]
		for _, x := range t.q {
			if taken[x] {
				t.deficit -= x.cost
			} else {
				kept = append(kept, x)
			}
		}
		t.q = kept
	}
	sort.SliceStable(batch, func(i, j int) bool { return batch[i].off < batch[j].off })
	s.batch = s.batch[:0]
	for _, m := range batch {
		s.batch = append(s.batch, m.w)
	}
	s.batchGen = gen
	s.stats.Batches++
	s.stats.Batched += int64(len(batch))
	if s.cfg.Trace != nil {
		s.cfg.Trace.Record(trace.Event{
			Proc: "qos", Backend: w.req.Backend, Op: trace.OpQueueBatch,
			Path: fmt.Sprintf("cartridge%d", cart), Bytes: bytes,
		})
	}
	first := s.batch[0]
	s.batch = s.batch[1:]
	return first
}

// abandonBatchLocked requeues the not-yet-granted members of a batch
// whose layout generation went stale (a Reclaim moved the data): their
// cartridge/offset grouping no longer describes the shelf, so they go
// back to the *front* of their tenant queues with their deficit charge
// refunded, and the next DRR pass re-locates them against the new
// layout.  A reclaimed cartridge can therefore never be served from an
// in-flight batch.
func (s *Scheduler) abandonBatchLocked() {
	for i := len(s.batch) - 1; i >= 0; i-- {
		w := s.batch[i]
		t := w.tenant
		t.q = append([]*waiter{w}, t.q...)
		t.deficit += w.cost
	}
	s.stats.BatchAbandoned += int64(len(s.batch))
	s.batch = s.batch[:0]
}

// release returns an in-flight slot and accounts fn's service time.
func (s *Scheduler) release(w *waiter, service time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.inflight--
	w.tenant.stats.Done++
	w.tenant.stats.Service += service
	s.recycleLocked(w)
	if !s.paused && !s.closed {
		s.grantLocked()
	}
}

// Pause stops granting; queued requests accumulate.  Tests and drain
// windows use it to build a known backlog before Resume.
func (s *Scheduler) Pause() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.paused = true
}

// Resume restarts granting.
func (s *Scheduler) Resume() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.paused = false
	s.grantLocked()
}

// SetMaxQueuedBytes re-leases the global queued-bytes budget at
// runtime.  A cluster leader uses this to hand each broker its share
// of the cluster-wide admission budget; 0 removes the bound.  Already
// queued requests are not re-evaluated — the new bound applies to the
// next admission decision.
func (s *Scheduler) SetMaxQueuedBytes(n int64) {
	if n < 0 {
		n = 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cfg.MaxQueuedBytes = n
}

// QueueDepth returns the number of queued (not yet granted) requests.
func (s *Scheduler) QueueDepth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queuedCount
}

// Close shuts the scheduler down: every queued request fails with an
// ErrClosed-wrapped error and later Do calls are rejected.  In-flight
// requests finish normally.
func (s *Scheduler) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	for _, w := range s.batch {
		w.grant <- errClosed
	}
	s.batch = nil
	for _, t := range s.ring {
		for _, w := range t.q {
			w.grant <- errClosed
		}
		t.q = nil
		t.queuedBytes = 0
		t.queuedCount = 0
	}
	s.queuedBytes, s.queuedCount, s.queuedCost = 0, 0, 0
}

// TenantStats is one tenant's cumulative scheduling account.
type TenantStats struct {
	Tenant string
	Weight int

	Enqueued  int64 // admitted requests
	Granted   int64 // requests started
	Done      int64 // requests finished
	Overloads int64 // requests shed by admission control

	Depth       int   // current queue depth
	MaxDepth    int   // high-water queue depth
	QueuedBytes int64 // current queued payload bytes

	GrantedBytes int64         // payload bytes started
	GrantedCost  float64       // priced seconds started
	Wait         time.Duration // total wall time spent queued
	Service      time.Duration // total virtual service time of finished fns
}

// Stats is a point-in-time snapshot of the scheduler.
type Stats struct {
	Tenants []TenantStats // sorted by tenant name

	InFlight    int
	Queued      int
	QueuedBytes int64

	Overloads      int64 // requests shed, all tenants
	Batches        int64 // tape batches formed
	Batched        int64 // requests served through a batch
	BatchAbandoned int64 // batch members requeued by a generation change
}

// Stats returns a snapshot of the scheduler's counters.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.stats
	out.InFlight = s.inflight
	out.Queued = s.queuedCount
	out.QueuedBytes = s.queuedBytes
	out.Tenants = make([]TenantStats, 0, len(s.tenants))
	for _, t := range s.ring {
		ts := t.stats
		ts.Depth = t.queuedCount
		ts.QueuedBytes = t.queuedBytes
		out.Tenants = append(out.Tenants, ts)
	}
	sort.Slice(out.Tenants, func(i, j int) bool { return out.Tenants[i].Tenant < out.Tenants[j].Tenant })
	return out
}
