package vtime

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestProcAdvance(t *testing.T) {
	sim := NewVirtual()
	p := sim.NewProc("p0")
	if p.Now() != 0 {
		t.Fatalf("new proc clock = %v, want 0", p.Now())
	}
	p.Advance(3 * time.Second)
	p.Advance(2 * time.Second)
	if got := p.Now(); got != 5*time.Second {
		t.Fatalf("Now = %v, want 5s", got)
	}
}

func TestProcAdvanceNegativeIgnored(t *testing.T) {
	p := NewVirtual().NewProc("p")
	p.Advance(time.Second)
	p.Advance(-time.Second)
	if got := p.Now(); got != time.Second {
		t.Fatalf("Now = %v, want 1s", got)
	}
}

func TestAdvanceTo(t *testing.T) {
	p := NewVirtual().NewProc("p")
	if d := p.AdvanceTo(4 * time.Second); d != 4*time.Second {
		t.Fatalf("AdvanceTo returned %v, want 4s", d)
	}
	if d := p.AdvanceTo(2 * time.Second); d != 0 {
		t.Fatalf("backward AdvanceTo returned %v, want 0", d)
	}
	if got := p.Now(); got != 4*time.Second {
		t.Fatalf("Now = %v, want 4s", got)
	}
}

func TestBarrier(t *testing.T) {
	sim := NewVirtual()
	ps := sim.NewProcs("r", 4)
	for i, p := range ps {
		p.Advance(time.Duration(i) * time.Second)
	}
	max := Barrier(ps...)
	if max != 3*time.Second {
		t.Fatalf("Barrier = %v, want 3s", max)
	}
	for i, p := range ps {
		if p.Now() != 3*time.Second {
			t.Fatalf("proc %d at %v after barrier, want 3s", i, p.Now())
		}
	}
}

func TestResourceQueueing(t *testing.T) {
	sim := NewVirtual()
	r := NewResource("drive")
	a := sim.NewProc("a")
	b := sim.NewProc("b")

	// a occupies [0,10); b requests at its local time 2 but must wait.
	r.Acquire(a, 10*time.Second)
	b.Advance(2 * time.Second)
	end := r.Acquire(b, 5*time.Second)
	if end != 15*time.Second {
		t.Fatalf("b finished at %v, want 15s (queued behind a)", end)
	}
	if b.Now() != 15*time.Second {
		t.Fatalf("b clock %v, want 15s", b.Now())
	}
	busy, ops := r.Stats()
	if busy != 15*time.Second || ops != 2 {
		t.Fatalf("stats = (%v, %d), want (15s, 2)", busy, ops)
	}
}

func TestResourceIdleGap(t *testing.T) {
	sim := NewVirtual()
	r := NewResource("disk")
	p := sim.NewProc("p")
	p.Advance(100 * time.Second)
	end := r.Acquire(p, time.Second)
	if end != 101*time.Second {
		t.Fatalf("end = %v, want 101s (resource idle until caller arrives)", end)
	}
}

func TestScaledModeSleeps(t *testing.T) {
	sim := NewScaled(1e-6) // 1s simulated = 1µs wall
	p := sim.NewProc("p")
	start := time.Now()
	p.Advance(2 * time.Second)
	if el := time.Since(start); el > 500*time.Millisecond {
		t.Fatalf("scaled advance slept %v, far above scale", el)
	}
	if p.Now() != 2*time.Second {
		t.Fatalf("Now = %v, want 2s", p.Now())
	}
}

func TestResourceReset(t *testing.T) {
	r := NewResource("x")
	p := NewVirtual().NewProc("p")
	r.Acquire(p, time.Second)
	r.Reset()
	if f := r.freeAt; f != 0 {
		t.Fatalf("freeAt after reset = %v, want 0", f)
	}
	busy, ops := r.Stats()
	if busy != 0 || ops != 0 {
		t.Fatalf("stats after reset = (%v,%d), want zeros", busy, ops)
	}
}

func TestModeString(t *testing.T) {
	if Virtual.String() != "virtual" || Scaled.String() != "scaled" {
		t.Fatalf("unexpected mode strings %q %q", Virtual, Scaled)
	}
	if Mode(42).String() != "Mode(42)" {
		t.Fatalf("unknown mode string = %q", Mode(42))
	}
}

// Property: a clock never decreases, whatever mix of Advance/AdvanceTo.
func TestQuickClockMonotonic(t *testing.T) {
	f := func(steps []int16) bool {
		p := NewVirtual().NewProc("p")
		prev := time.Duration(0)
		for _, s := range steps {
			if s%2 == 0 {
				p.Advance(time.Duration(s) * time.Millisecond)
			} else {
				p.AdvanceTo(time.Duration(s) * time.Millisecond)
			}
			if p.Now() < prev {
				return false
			}
			prev = p.Now()
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: serialized resource busy time equals the sum of granted
// durations, and freeAt is at least that sum when all requests start at 0.
func TestQuickResourceConservation(t *testing.T) {
	f := func(durs []uint8) bool {
		sim := NewVirtual()
		r := NewResource("r")
		var sum time.Duration
		for i, d := range durs {
			p := sim.NewProc("p")
			_ = i
			r.Acquire(p, time.Duration(d)*time.Millisecond)
			sum += time.Duration(d) * time.Millisecond
		}
		busy, ops := r.Stats()
		return busy == sum && ops == int64(len(durs)) && r.freeAt == sum
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Barrier leaves every proc at the same time, equal to the prior max.
func TestQuickBarrier(t *testing.T) {
	f := func(offsets []uint16) bool {
		if len(offsets) == 0 {
			return true
		}
		sim := NewVirtual()
		ps := make([]*Proc, len(offsets))
		var want time.Duration
		for i, o := range offsets {
			ps[i] = sim.NewProc("p")
			d := time.Duration(o) * time.Millisecond
			ps[i].Advance(d)
			if d > want {
				want = d
			}
		}
		got := Barrier(ps...)
		if got != want {
			return false
		}
		for _, p := range ps {
			if p.Now() != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentResourceRace(t *testing.T) {
	// Exercised under -race: concurrent acquires must be safe and conserve
	// busy time.
	sim := NewVirtual()
	r := NewResource("shared")
	const n = 32
	ps := sim.NewProcs("w", n)
	var wg sync.WaitGroup
	for _, p := range ps {
		wg.Add(1)
		go func(p *Proc) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				r.Acquire(p, time.Millisecond)
			}
		}(p)
	}
	wg.Wait()
	busy, ops := r.Stats()
	if ops != n*10 || busy != n*10*time.Millisecond {
		t.Fatalf("stats = (%v,%d), want (%v,%d)", busy, ops, n*10*time.Millisecond, n*10)
	}
	if r.freeAt != busy {
		t.Fatalf("freeAt %v != busy %v for back-to-back serialized ops", r.freeAt, busy)
	}
}

func TestConstructorPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("NewScaled(0)", func() { NewScaled(0) })
	mustPanic("NewScaled(-1)", func() { NewScaled(-1) })
}

func TestSimAccessors(t *testing.T) {
	v := NewVirtual()
	if v.Mode() != Virtual || v.Scale() != 0 {
		t.Fatalf("virtual sim = %v %v", v.Mode(), v.Scale())
	}
	s := NewScaled(0.5)
	if s.Mode() != Scaled || s.Scale() != 0.5 {
		t.Fatalf("scaled sim = %v %v", s.Mode(), s.Scale())
	}
	p := v.NewProc("x")
	if p.Sim() != v || p.Name() != "x" {
		t.Fatal("proc accessors broken")
	}
}
