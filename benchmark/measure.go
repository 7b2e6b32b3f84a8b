package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// samples is a pre-sized latency store: one indexed write per op, no
// append, so recording allocates nothing inside a timed region.  Once
// full it counts what it drops instead of growing.
type samples struct {
	ns      []uint32
	n       int
	dropped int
	sorted  bool
}

func newSamples(capacity int) *samples { return &samples{ns: make([]uint32, capacity)} }

func (s *samples) add(d time.Duration) {
	if s.n == len(s.ns) {
		s.dropped++
		return
	}
	if d > math.MaxUint32 {
		d = math.MaxUint32
	}
	s.ns[s.n] = uint32(d)
	s.n++
	s.sorted = false
}

func (s *samples) reset() { s.n, s.dropped = 0, 0 }

// quantileUS returns the q-quantile in microseconds: the mean of the
// order statistics within ±0.05 % of rank q·n, which keeps sub-
// nanosecond digits where a single order statistic would be an integer.
func (s *samples) quantileUS(q float64) float64 {
	n := s.n
	if n == 0 {
		return 0
	}
	v := s.ns[:n]
	if !s.sorted {
		sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
		s.sorted = true
	}
	mid := q * float64(n-1)
	half := 0.0005 * float64(n)
	lo, hi := int(math.Round(mid-half)), int(math.Round(mid+half))
	if lo < 0 {
		lo = 0
	}
	if hi > n-1 {
		hi = n - 1
	}
	var sum float64
	for _, x := range v[lo : hi+1] {
		sum += float64(x)
	}
	return sum / float64(hi-lo+1) / 1e3
}

// median returns the middle of a small float series (0 when empty).
func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile interpolates linearly between order statistics.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo == len(s)-1 {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// usage is a snapshot of the process-wide costs a phase is charged
// with: CPU from getrusage (client + server + harness share the
// process), heap traffic and GC work from runtime.MemStats.
type usage struct {
	cpu      time.Duration
	mallocs  uint64
	bytes    uint64
	gcCycles uint32
	gcPause  time.Duration
	heap     uint64
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs:  ms.Mallocs,
		bytes:    ms.TotalAlloc,
		gcCycles: ms.NumGC,
		gcPause:  time.Duration(ms.PauseTotalNs),
		heap:     ms.HeapAlloc,
	}
}

func (u usage) sub(v usage) usage {
	return usage{
		cpu: u.cpu - v.cpu, mallocs: u.mallocs - v.mallocs, bytes: u.bytes - v.bytes,
		gcCycles: u.gcCycles - v.gcCycles, gcPause: u.gcPause - v.gcPause, heap: u.heap,
	}
}

// stepFn runs client c's i-th op and reports whether it completed and
// verified.  It must not allocate on the harness's behalf.
type stepFn func(c, i int) bool

// phase is what one closed-loop timed region measured.
type phase struct {
	clients   int
	elapsed   time.Duration
	attempted int64
	failed    int64
	window    time.Duration
	windows   []int64 // verified ops per complete window, all clients
	use       usage
}

func (p phase) ok() int64 { return p.attempted - p.failed }

// opsPerSec is the median per-window rate of verified ops.  When ops
// take longer than a window (the median window is empty) it falls back
// to the whole-phase mean.
func (p phase) opsPerSec() float64 {
	rates := make([]float64, len(p.windows))
	for i, n := range p.windows {
		rates[i] = float64(n) / p.window.Seconds()
	}
	if m := median(rates); m > 0 {
		return m
	}
	return float64(p.ok()) / p.elapsed.Seconds()
}

// per divides a phase total by its verified ops.
func (p phase) per(total float64) float64 {
	if p.ok() == 0 {
		return 0
	}
	return total / float64(p.ok())
}

// windowFor picks the window a phase is cut into: 1 s, or a quarter of
// a phase too short to hold four of those.
func windowFor(dur time.Duration) time.Duration {
	if dur >= 4*time.Second {
		return time.Second
	}
	return dur / 4
}

// runPhase drives `clients` closed loops for dur: each client issues
// its next op only when the previous one returned.  first[c] is the
// index of client c's first op and is advanced past the last one, so
// consecutive phases continue one op list.  lat, when non-nil, records
// every verified op's latency (one-client phases only).
func runPhase(clients int, dur time.Duration, first []int, lat *samples, step stepFn) phase {
	window := windowFor(dur)
	nwin := int(dur / window)
	type counters struct {
		attempted, failed int64
		win               []int64
		_                 [64]byte // keep clients off each other's cache line
	}
	cs := make([]counters, clients)
	for c := range cs {
		cs[c].win = make([]int64, nwin)
	}
	var wg sync.WaitGroup
	before := readUsage()
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ct := &cs[c]
			i := first[c]
			t0 := time.Now()
			for {
				ok := step(c, i)
				t1 := time.Now()
				i++
				ct.attempted++
				since := t1.Sub(start)
				if ok {
					if w := int(since / window); w < nwin {
						ct.win[w]++
					}
					if lat != nil {
						lat.add(t1.Sub(t0))
					}
				} else {
					ct.failed++
				}
				if since >= dur {
					break
				}
				t0 = t1
			}
			first[c] = i
		}(c)
	}
	wg.Wait()
	p := phase{clients: clients, elapsed: time.Since(start), window: window, windows: make([]int64, nwin)}
	p.use = readUsage().sub(before)
	for c := range cs {
		p.attempted += cs[c].attempted
		p.failed += cs[c].failed
		for w, n := range cs[c].win {
			p.windows[w] += n
		}
	}
	return p
}

// timerNS calibrates the clock read the loop above pays per op.
func timerNS() float64 {
	const n = 1 << 20
	start := time.Now()
	var last time.Time
	for i := 0; i < n; i++ {
		last = time.Now()
	}
	return float64(last.Sub(start)) / n
}

// measureN times n sequential calls of fn and reports mean µs and
// allocations per call — the probe primitive.
func measureN(n int, fn func(i int)) (us, allocs float64) {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	el := time.Since(start)
	runtime.ReadMemStats(&ms1)
	return float64(el) / 1e3 / float64(n), float64(ms1.Mallocs-ms0.Mallocs) / float64(n)
}

var processStart = time.Now()

// nowNS is a monotonic nanosecond clock for interval sums.
func nowNS() int64 { return int64(time.Since(processStart)) }
