package qos

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/resilient"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// unitPricer makes every request cost exactly 1 priced second so DRR
// arithmetic in the tests is exact.
func unitPricer(class, op string, bytes int64) float64 { return 1 }

// fill enqueues n requests for tenant on a paused scheduler, one at a
// time (each goroutine launches only after the previous one is visibly
// queued), so arrival order is deterministic.  Each granted fn appends
// its id to order.  Returns the WaitGroup completing when all Do calls
// return.
func fill(t *testing.T, s *Scheduler, sim *vtime.Sim, tenant string, ids []string, order *[]string, mu *sync.Mutex) *sync.WaitGroup {
	t.Helper()
	var wg sync.WaitGroup
	for _, id := range ids {
		depth := s.QueueDepth()
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			p := sim.NewProc(tenant + "/" + id)
			err := s.Do(p, Request{Tenant: tenant, Op: "read", Bytes: 1}, func() error {
				mu.Lock()
				*order = append(*order, id)
				mu.Unlock()
				return nil
			})
			if err != nil {
				t.Errorf("Do(%s): %v", id, err)
			}
		}(id)
		waitDepthAbove(t, s, depth)
	}
	return &wg
}

func waitDepthAbove(t *testing.T, s *Scheduler, depth int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.QueueDepth() <= depth {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth stuck at %d", s.QueueDepth())
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// TestDRRWeightedShare pins the scheduler's core property: with two
// backlogged tenants at weights 3:1 and equal-cost requests, grants
// interleave at a 3:1 ratio rather than arrival order.
func TestDRRWeightedShare(t *testing.T) {
	sim := vtime.NewVirtual()
	s, err := New(Config{
		Tenants:     map[string]int{"a": 3, "b": 1},
		MaxInFlight: 1,
		Price:       unitPricer,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Pause()

	var mu sync.Mutex
	var order []string
	const n = 20
	aIDs := make([]string, n)
	bIDs := make([]string, n)
	for i := range aIDs {
		aIDs[i] = "a"
		bIDs[i] = "b"
	}
	wgA := fill(t, s, sim, "a", aIDs, &order, &mu)
	wgB := fill(t, s, sim, "b", bIDs, &order, &mu)
	if got := s.QueueDepth(); got != 2*n {
		t.Fatalf("queued %d, want %d", got, 2*n)
	}
	s.Resume()
	wgA.Wait()
	wgB.Wait()

	// Over any aligned window of 8 grants, weights 3:1 mean 6 a's and
	// 2 b's.  Check the first 16 (both tenants still backlogged there).
	a := 0
	for _, id := range order[:16] {
		if id == "a" {
			a++
		}
	}
	if a != 12 {
		t.Errorf("first 16 grants: %d for weight-3 tenant, want 12 (order %v)", a, order[:16])
	}
	// Everyone eventually runs.
	if len(order) != 2*n {
		t.Fatalf("completed %d, want %d", len(order), 2*n)
	}
	st := s.Stats()
	for _, ts := range st.Tenants {
		if ts.Granted != n || ts.Done != n {
			t.Errorf("tenant %s: granted %d done %d, want %d", ts.Tenant, ts.Granted, ts.Done, n)
		}
	}
}

// TestTenantQueuePreservesArrival pins the per-flow order: one
// tenant's queue is served in strict arrival order whatever the
// request mix — the arrival-order baseline the qos experiment builds
// by logging both of its clients in under one account.
func TestTenantQueuePreservesArrival(t *testing.T) {
	sim := vtime.NewVirtual()
	s, err := New(Config{
		Tenants:     map[string]int{"a": 100, "b": 1},
		MaxInFlight: 1,
		Price:       unitPricer,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Pause()

	var mu sync.Mutex
	var order []string
	// Two clients of tenant b interleave their arrivals; the grants
	// must keep that order.
	var wgs []*sync.WaitGroup
	want := []string{"b0", "a0", "b1", "a1", "b2", "a2"}
	for _, id := range want {
		wgs = append(wgs, fill(t, s, sim, "b", []string{id}, &order, &mu))
	}
	s.Resume()
	for _, wg := range wgs {
		wg.Wait()
	}
	mu.Lock()
	defer mu.Unlock()
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("grant order %v, want arrival order %v", order, want)
		}
	}
}

// TestAdmissionBudgets covers both budget scopes, the typed overload
// error's contract (errors.Is, transience, retry-after), and the
// empty-scope escape hatch that keeps an over-budget single request
// schedulable.
func TestAdmissionBudgets(t *testing.T) {
	sim := vtime.NewVirtual()
	rec := trace.New(64)
	s, err := New(Config{
		MaxInFlight:       1,
		MaxQueuedBytes:    1000,
		TenantQueuedBytes: 400,
		Trace:             rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Pause()

	var mu sync.Mutex
	var order []string
	wg := fill(t, s, sim, "big", []string{"jumbo"}, &order, &mu)
	// "big" now has one queued byte, so the global scope is non-empty:
	// a 1500-byte request from any tenant must be shed.
	p := sim.NewProc("c")
	err = s.Do(p, Request{Tenant: "c", Op: "write", Bytes: 1500}, func() error { return nil })
	if err == nil {
		t.Fatal("global budget: want overload, got nil")
	}
	checkOverload(t, err, "c")

	// Per-tenant budget: tenant "d" queues 300 bytes, then 200 more
	// trips its 400-byte budget while the global budget still has room.
	wgD := fill(t, s, sim, "d", []string{"d0"}, &order, &mu)
	// d0 carries Bytes:1 via fill; add a 300-byte request directly.
	done := make(chan error, 1)
	go func() {
		done <- s.Do(sim.NewProc("d2"), Request{Tenant: "d", Op: "write", Bytes: 300}, func() error { return nil })
	}()
	waitDepthAbove(t, s, 2)
	err = s.Do(sim.NewProc("d3"), Request{Tenant: "d", Op: "write", Bytes: 200}, func() error { return nil })
	if err == nil {
		t.Fatal("tenant budget: want overload, got nil")
	}
	checkOverload(t, err, "d")

	st := s.Stats()
	if st.Overloads != 2 {
		t.Errorf("overloads %d, want 2", st.Overloads)
	}
	if rec.Count("", trace.OpQueueReject) != 2 {
		t.Errorf("trace rejects %d, want 2", rec.Count("", trace.OpQueueReject))
	}
	s.Resume()
	wg.Wait()
	wgD.Wait()
	if err := <-done; err != nil {
		t.Fatalf("admitted request failed: %v", err)
	}
	if got := rec.Count("", trace.OpQueueGrant); got != 3 {
		t.Errorf("trace grants %d, want 3", got)
	}
}

// TestAdmissionEmptyScopeAdmits: a request larger than the whole
// budget is still admitted when its scopes are empty, so oversized
// work cannot be starved forever — it just runs alone.
func TestAdmissionEmptyScopeAdmits(t *testing.T) {
	sim := vtime.NewVirtual()
	s, err := New(Config{MaxInFlight: 1, MaxQueuedBytes: 1000, TenantQueuedBytes: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	p := sim.NewProc("p")
	for i := 0; i < 2; i++ {
		if err := s.Do(p, Request{Tenant: "t", Op: "write", Bytes: 5000}, func() error { return nil }); err != nil {
			t.Fatalf("over-budget request %d on empty queue: %v", i, err)
		}
	}
}

func checkOverload(t *testing.T, err error, tenant string) {
	t.Helper()
	if !errors.Is(err, storage.ErrOverload) {
		t.Errorf("errors.Is(err, ErrOverload) false for %v", err)
	}
	if !resilient.Transient(err) {
		t.Errorf("overload not classified transient: %v", err)
	}
	if after, ok := resilient.RetryAfterOf(err); !ok || after <= 0 {
		t.Errorf("RetryAfterOf = %v, %v; want positive hint", after, ok)
	}
	var oe *OverloadError
	if !AsOverload(err, &oe) {
		t.Fatalf("AsOverload false for %v", err)
	}
	if oe.Tenant != tenant {
		t.Errorf("overload tenant %q, want %q", oe.Tenant, tenant)
	}
}

// TestUnknownTenantDefaultWeight: tenants absent from Config.Tenants
// are admitted and scheduled at defaultWeight.
func TestUnknownTenantDefaultWeight(t *testing.T) {
	sim := vtime.NewVirtual()
	s, err := New(Config{Tenants: map[string]int{"known": 5}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	p := sim.NewProc("p")
	for _, tenant := range []string{"known", "mystery"} {
		if err := s.Do(p, Request{Tenant: tenant, Op: "read", Bytes: 1}, func() error { return nil }); err != nil {
			t.Fatalf("Do(%s): %v", tenant, err)
		}
	}
	weights := map[string]int{}
	for _, ts := range s.Stats().Tenants {
		weights[ts.Tenant] = ts.Weight
	}
	if weights["known"] != 5 || weights["mystery"] != defaultWeight {
		t.Errorf("weights %v, want known=5 mystery=%d", weights, defaultWeight)
	}
}

// TestCloseFailsQueued: Close wakes every queued waiter with an
// ErrClosed-wrapped error and rejects later submissions.
func TestCloseFailsQueued(t *testing.T) {
	sim := vtime.NewVirtual()
	s, err := New(Config{MaxInFlight: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.Pause()
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		depth := s.QueueDepth()
		go func(i int) {
			errs <- s.Do(sim.NewProc("p"), Request{Tenant: "t", Op: "read"}, func() error { return nil })
		}(i)
		waitDepthAbove(t, s, depth)
	}
	s.Close()
	for i := 0; i < 2; i++ {
		if err := <-errs; !errors.Is(err, storage.ErrClosed) {
			t.Errorf("queued Do after Close: %v, want ErrClosed", err)
		}
	}
	if err := s.Do(sim.NewProc("p"), Request{Tenant: "t"}, func() error { return nil }); !errors.Is(err, storage.ErrClosed) {
		t.Errorf("Do on closed scheduler: %v, want ErrClosed", err)
	}
}

// TestConfigValidation: New rejects nonsense configs.
func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Tenants: map[string]int{"": 1}},
		{Tenants: map[string]int{"a": 0}},
		{Tenants: map[string]int{"a": -3}},
		{MaxQueuedBytes: -1},
		{TenantQueuedBytes: -1},
		{MaxInFlight: -1},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d: want error, got nil", i)
		}
	}
	if _, err := New(Config{}); err != nil {
		t.Errorf("zero config: %v", err)
	}
}

// TestSetMaxQueuedBytes re-leases the global admission budget at
// runtime, the knob a cluster leader turns when shard ownership (and
// with it each broker's budget share) moves.
func TestSetMaxQueuedBytes(t *testing.T) {
	sim := vtime.NewVirtual()
	s, err := New(Config{MaxInFlight: 1, MaxQueuedBytes: 1000})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Pause()

	var mu sync.Mutex
	var order []string
	wg := fill(t, s, sim, "a", []string{"seed"}, &order, &mu)

	// Under the original 1000-byte budget an 800-byte request fits.
	// Shrink the lease and the same request is shed.
	s.SetMaxQueuedBytes(100)
	err = s.Do(sim.NewProc("b"), Request{Tenant: "b", Op: "write", Bytes: 800}, func() error { return nil })
	if err == nil {
		t.Fatal("shrunk budget admitted an over-budget request")
	}
	checkOverload(t, err, "b")

	// Grow the lease back and the request is admitted.
	s.SetMaxQueuedBytes(2000)
	done := make(chan error, 1)
	go func() {
		done <- s.Do(sim.NewProc("b2"), Request{Tenant: "b", Op: "write", Bytes: 800}, func() error { return nil })
	}()
	waitDepthAbove(t, s, 1)
	s.Resume()
	wg.Wait()
	if err := <-done; err != nil {
		t.Fatalf("re-grown budget rejected: %v", err)
	}
}
