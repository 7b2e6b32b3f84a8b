package qos

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/metadb"
	"repro/internal/predict"
	"repro/internal/storage"
	"repro/internal/tape"
	"repro/internal/testbed"
	"repro/internal/vtime"
)

// sweptDB is the performance database srbd prices with: one PTool
// sweep of the testbed, which measures localdisk, remotedisk and
// remotetape and never localdb.
func sweptDB(t testing.TB) *predict.DB {
	t.Helper()
	res, err := testbed.New(testbed.Dir(""), nil)
	if err != nil {
		t.Fatal(err)
	}
	meta := metadb.New()
	if _, err := res.Sweep(meta, 1); err != nil {
		t.Fatal(err)
	}
	return predict.NewDB(meta)
}

func noop() error { return nil }

// TestPredictPricerZeroAlloc: pricing a request allocates nothing,
// whether the class has a curve, has none (every request of a dbstore
// session used to build and drop a "no samples" error), has no size to
// price, or there is no database at all — and a miss still falls back
// to DefaultPricer.
func TestPredictPricerZeroAlloc(t *testing.T) {
	db := sweptDB(t)
	const n = 4 << 10
	cases := []struct {
		name      string
		price     Pricer
		class     string
		bytes     int64
		isDefault bool
	}{
		{"hit", PredictPricer(db), storage.KindRemoteDisk.String(), n, false},
		{"miss", PredictPricer(db), storage.KindLocalDB.String(), n, true},
		{"no bytes", PredictPricer(db), storage.KindRemoteDisk.String(), 0, true},
		{"nil db", PredictPricer(nil), storage.KindRemoteDisk.String(), n, true},
	}
	for _, tc := range cases {
		got := tc.price(tc.class, "write", tc.bytes)
		if def := DefaultPricer(tc.class, "write", tc.bytes); (got == def) != tc.isDefault || got <= 0 {
			t.Errorf("%s: priced %v, DefaultPricer %v (want default: %v)", tc.name, got, def, tc.isDefault)
		}
		if avg := testing.AllocsPerRun(200, func() { tc.price(tc.class, "write", tc.bytes) }); avg != 0 {
			t.Errorf("%s: %v allocs per priced request, want 0", tc.name, avg)
		}
	}
}

// TestDoZeroAlloc holds wire-small's scheduler share where tier-1 sees
// it: an uncontended Do under the production pricer leaves no garbage —
// the waiter and its grant channel are recycled, the tenant queue keeps
// its capacity, the curve is the compiled one.
func TestDoZeroAlloc(t *testing.T) {
	s, err := New(Config{Tenants: map[string]int{"astro3d": 3}, Price: PredictPricer(sweptDB(t))})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	p := vtime.NewVirtual().NewProc("p")
	req := Request{Tenant: "astro3d", Backend: "sdsc-disk", Class: storage.KindRemoteDisk.String(), Op: "write", Path: "f", Bytes: 4 << 10}
	do := func() {
		if err := s.Do(p, req, noop); err != nil {
			panic(err)
		}
	}
	do() // the first request makes the tenant, its queue and the one waiter
	if avg := testing.AllocsPerRun(500, do); avg != 0 {
		t.Fatalf("uncontended Do: %v allocs/op, want 0", avg)
	}
	if st := s.Stats(); st.Tenants[0].Granted != st.Tenants[0].Done || st.Tenants[0].Done < 500 || st.Queued != 0 || st.InFlight != 0 {
		t.Fatalf("scheduler account after the run: %+v", st)
	}
}

// TestRecycledWaitersStress (run under -race) drives every way a
// waiter leaves a queue — a plain grant, a tape batch, a batch
// abandoned by a generation bump and requeued, Pause/Resume, Close
// with work queued — round after round over the same recycled waiters.
// Each request must run or fail exactly once, never more than
// MaxInFlight at a time, and no waiter may come back to the free list
// with a token still in its channel.
func TestRecycledWaitersStress(t *testing.T) {
	const (
		rounds   = 40
		perRound = 12
		inflight = 2
	)
	st := &stubTape{gen: 1, loc: map[string]tape.Placement{}}
	for i := 0; i < perRound; i++ {
		st.loc[fmt.Sprintf("v/f%d", i)] = tape.Placement{Cart: 1, Off: int64(100 * i), OK: true}
	}
	s, err := New(Config{MaxInFlight: inflight, Price: unitPricer, Tape: st})
	if err != nil {
		t.Fatal(err)
	}
	sim := vtime.NewVirtual()
	var running atomic.Int64
	for round := 0; round <= rounds; round++ {
		last := round == rounds
		var ran, failed [perRound]atomic.Int64
		var wg sync.WaitGroup
		s.Pause()
		for i := 0; i < perRound; i++ {
			req := Request{Tenant: fmt.Sprintf("t%d", i%3), Op: "read", Bytes: 1}
			if i%2 == 0 { // every other request rides the cartridge batch lane
				req = tapeReq(req.Tenant, fmt.Sprintf("v/f%d", i))
			}
			depth := s.QueueDepth()
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				err := s.Do(sim.NewProc("p"), req, func() error {
					if n := running.Add(1); n > inflight {
						t.Errorf("round %d: %d requests running, MaxInFlight %d", round, n, inflight)
					}
					ran[i].Add(1)
					if i == 0 {
						// A reclaim lands while the batch's first member is
						// on the drive: the rest must be abandoned, requeued
						// and granted again, once.
						st.mu.Lock()
						st.gen++
						st.mu.Unlock()
					}
					runtime.Gosched()
					running.Add(-1)
					return nil
				})
				if err != nil {
					if !errors.Is(err, storage.ErrClosed) {
						t.Errorf("round %d request %d: %v", round, i, err)
					}
					failed[i].Add(1)
				}
			}(i)
			waitDepthAbove(t, s, depth)
		}
		if last {
			s.Close() // everything is still queued: all of it must fail, none run
		} else {
			s.Resume()
		}
		wg.Wait()
		for i := range ran {
			r, f := ran[i].Load(), failed[i].Load()
			if r+f != 1 || (f == 1) != last {
				t.Fatalf("round %d request %d: ran %d times, failed %d times", round, i, r, f)
			}
		}
	}
	if s.Stats().BatchAbandoned == 0 {
		t.Error("no batch was ever abandoned: the requeue path went unexercised")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	free := 0
	for w := s.free; w != nil; w = w.next {
		free++
		if len(w.grant) != 0 || w.tenant != nil {
			t.Errorf("free waiter %d: %d stale token(s), tenant %v", free, len(w.grant), w.tenant)
		}
	}
	// perRound requests were outstanding at once, (rounds+1)·perRound in
	// all: the free list holds the former only if waiters were reused.
	if free != perRound {
		t.Errorf("%d waiters on the free list after %d requests, want the peak %d", free, (rounds+1)*perRound, perRound)
	}
}

// BenchmarkDo: Scheduler.Do around a no-op under the production
// pricer, from one goroutine and from GOMAXPROCS goroutines each
// submitting as its own tenant.
func BenchmarkDo(b *testing.B) {
	price := PredictPricer(sweptDB(b))
	req := Request{Backend: "sdsc-disk", Class: storage.KindRemoteDisk.String(), Op: "write", Path: "f", Bytes: 4 << 10}
	b.Run("uncontended", func(b *testing.B) {
		s, err := New(Config{MaxInFlight: 8, Price: price})
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		p := vtime.NewVirtual().NewProc("p")
		req := req
		req.Tenant = "t0"
		s.Do(p, req, noop) // make the tenant and the one waiter outside the timed loop
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.Do(p, req, noop); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("contended", func(b *testing.B) {
		s, err := New(Config{MaxInFlight: 8, Price: price})
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		var tenant atomic.Int64
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			p := vtime.NewVirtual().NewProc("p")
			req := req
			req.Tenant = fmt.Sprintf("t%d", tenant.Add(1))
			for pb.Next() {
				if err := s.Do(p, req, noop); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
}
