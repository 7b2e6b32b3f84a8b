// Package vtime provides the simulated-time substrate for the
// multi-storage resource architecture.
//
// The paper's experiments ran on year-2000 hardware (SSA disks on an IBM
// SP2, SRB-served remote disks and HPSS tapes at SDSC).  Reproducing the
// evaluation therefore requires charging realistic device costs without
// actually waiting hours of wall-clock time.  vtime models time the way a
// conservative discrete-event simulation does:
//
//   - every logical process (an MPI rank in the paper, a goroutine here)
//     owns a Proc with a monotonically increasing logical clock;
//   - every serially shared device (a tape drive, a WAN link, a disk
//     spindle) is a Resource: an operation starts at
//     max(proc.Now, resource.freeAt) and both clocks advance past it, so
//     contention queues exactly like a real device;
//   - Barrier synchronizes a group of Procs to their max clock, which is
//     how collective I/O and the end of a simulation timestep are modelled.
//
// A Sim can run in Virtual mode (clocks advance instantly; used by tests
// and the benchmark harness) or Scaled mode (Advance also sleeps
// duration×scale of wall time; used by the TCP examples and live demos).
package vtime

import (
	"fmt"
	"sync"
	"time"
)

// Mode selects how simulated time maps onto wall-clock time.
type Mode int

const (
	// Virtual advances logical clocks without sleeping.
	Virtual Mode = iota
	// Scaled sleeps scale × duration of wall time on every Advance.
	Scaled
)

func (m Mode) String() string {
	switch m {
	case Virtual:
		return "virtual"
	case Scaled:
		return "scaled"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Sim is a simulation time domain.  All Procs and Resources that interact
// must belong to the same Sim.  The zero value is not usable; construct
// with NewVirtual or NewScaled.
type Sim struct {
	mode  Mode
	scale float64
}

// NewVirtual returns a Sim whose clocks advance instantly.
func NewVirtual() *Sim { return &Sim{mode: Virtual} }

// NewScaled returns a Sim that sleeps scale × d wall time for every
// simulated advance of d.  scale must be positive; 1e-3 makes a 25 s tape
// mount cost 25 ms of wall time.
func NewScaled(scale float64) *Sim {
	if scale <= 0 {
		panic(fmt.Sprintf("vtime: non-positive scale %v", scale))
	}
	return &Sim{mode: Scaled, scale: scale}
}

// Mode reports the Sim's mode.
func (s *Sim) Mode() Mode { return s.mode }

// Scale reports the wall-time scale factor (0 in Virtual mode).
func (s *Sim) Scale() float64 { return s.scale }

// Proc is a logical process with its own clock.  A Proc is safe for use by
// one goroutine at a time; distinct Procs may run concurrently.
type Proc struct {
	sim  *Sim
	name string

	mu  sync.Mutex
	now time.Duration
}

// NewProc returns a new process whose clock starts at zero.
func (s *Sim) NewProc(name string) *Proc {
	return &Proc{sim: s, name: name}
}

// NewProcs returns n processes named prefix0..prefix{n-1}, all at time zero.
func (s *Sim) NewProcs(prefix string, n int) []*Proc {
	ps := make([]*Proc, n)
	for i := range ps {
		ps[i] = s.NewProc(fmt.Sprintf("%s%d", prefix, i))
	}
	return ps
}

// Sim returns the time domain the Proc belongs to.
func (p *Proc) Sim() *Sim { return p.sim }

// Name returns the process name given at creation.
func (p *Proc) Name() string { return p.name }

// Now returns the process's current logical time.
func (p *Proc) Now() time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.now
}

// Advance moves the process clock forward by d (ignoring negative d) and,
// in Scaled mode, sleeps the scaled wall-time equivalent.
func (p *Proc) Advance(d time.Duration) {
	if d <= 0 {
		return
	}
	p.mu.Lock()
	p.now += d
	p.mu.Unlock()
	p.sleep(d)
}

// AdvanceTo moves the process clock forward to t if t is later than the
// current clock, returning the amount advanced.
func (p *Proc) AdvanceTo(t time.Duration) time.Duration {
	p.mu.Lock()
	d := t - p.now
	if d > 0 {
		p.now = t
	}
	p.mu.Unlock()
	if d > 0 {
		p.sleep(d)
		return d
	}
	return 0
}

func (p *Proc) sleep(d time.Duration) {
	if p.sim.mode == Scaled {
		time.Sleep(time.Duration(float64(d) * p.sim.scale))
	}
}

// Barrier synchronizes the given processes: all clocks advance to the
// maximum clock in the group.  It models a collective synchronization
// point (the end of a two-phase exchange, a timestep boundary).  The
// caller must ensure no other goroutine is advancing these Procs
// concurrently with the barrier, which matches collective semantics.
func Barrier(ps ...*Proc) time.Duration {
	var max time.Duration
	for _, p := range ps {
		if t := p.Now(); t > max {
			max = t
		}
	}
	for _, p := range ps {
		p.AdvanceTo(max)
	}
	return max
}

// MaxNow returns the latest clock among the given processes without
// advancing any of them.
func MaxNow(ps ...*Proc) time.Duration {
	var max time.Duration
	for _, p := range ps {
		if t := p.Now(); t > max {
			max = t
		}
	}
	return max
}

// Resource is a serially shared device: at most one operation occupies it
// at a time, and later requests queue behind earlier ones.  The zero value
// is an idle resource; give it a name with NewResource for diagnostics.
type Resource struct {
	name string

	mu     sync.Mutex
	freeAt time.Duration
	busy   time.Duration // total occupied time, for utilization reports
	ops    int64
}

// NewResource returns an idle named resource.
func NewResource(name string) *Resource { return &Resource{name: name} }

// Name returns the resource name.
func (r *Resource) Name() string { return r.name }

// Acquire occupies the resource for d simulated time on behalf of p.  The
// operation begins at max(p.Now, resource free time); p's clock is
// advanced to the completion time.  It returns the time the operation
// completed.
func (r *Resource) Acquire(p *Proc, d time.Duration) time.Duration {
	end := r.reserve(p, d)
	p.AdvanceTo(end)
	return end
}

// reserve books the resource without advancing the caller's clock.
func (r *Resource) reserve(p *Proc, d time.Duration) time.Duration {
	if d < 0 {
		d = 0
	}
	r.mu.Lock()
	start := p.Now()
	if r.freeAt > start {
		start = r.freeAt
	}
	end := start + d
	r.freeAt = end
	r.busy += d
	r.ops++
	r.mu.Unlock()
	return end
}

// Stats reports the accumulated busy time and operation count.
func (r *Resource) Stats() (busy time.Duration, ops int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.busy, r.ops
}

// Reset returns the resource to idle and clears statistics.  Intended for
// reuse between benchmark scenarios.
func (r *Resource) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.freeAt, r.busy, r.ops = 0, 0, 0
}
