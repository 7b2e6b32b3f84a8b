package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifestMatchesRegistry keeps BENCHMARK.json and the harness
// registry from drifting: same command, workloads, metrics, units,
// directions and bounds, all inside the contract's limits.
func TestManifestMatchesRegistry(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
	var onDisk manifest
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&onDisk); err != nil {
		t.Fatal(err)
	}
	want := buildManifest()
	if !reflect.DeepEqual(onDisk, want) {
		t.Errorf("BENCHMARK.json differs from the registry; regenerate it with `bash benchmark/run.sh --manifest > BENCHMARK.json`")
	}

	if want.RunSeconds < 1 || want.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", want.RunSeconds)
	}
	if n := len(want.Workloads); n < 2 || n > 8 || n != len(workloads) {
		t.Errorf("%d workloads in the manifest, %d runnable", n, len(workloads))
	}
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside the contract", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for _, w := range want.Workloads {
		name(w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("workload %q has no implementation", w.Name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %q: why is %d characters", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, d := range want.EndToEnd {
		name(d.Name)
		if !unitRE.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("%s: unit %q better %q", d.Name, d.Unit, d.Better)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			setup = d.Unit == "s" && d.Better == "lower"
		}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if n := len(want.EndToEnd); n > 16 {
		t.Errorf("%d end-to-end metrics, limit 16", n)
	}
	if n := len(want.PerLayer); n > 128 {
		t.Errorf("%d per-layer metrics, limit 128", n)
	}
	for _, d := range want.PerLayer {
		name(d.Name)
		if !unitRE.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("%s: unit %q better %q", d.Name, d.Unit, d.Better)
		}
	}
}

// TestHarnessZeroAlloc: the steady-state loop against a no-op target
// allocates nothing per op, with and without latency recording, so
// allocs_per_op belongs to the program.
func TestHarnessZeroAlloc(t *testing.T) {
	noop := func(int, int) bool { return true }
	for _, lat := range []*samples{nil, newSamples(1 << 16)} {
		p := runPhase(1, 100*time.Millisecond, []int{0}, lat, noop)
		if p.ok() < 1000 {
			t.Fatalf("only %d ops in 100 ms", p.ok())
		}
		// The phase itself makes a fixed handful of allocations
		// (goroutine, counters); per op that must vanish.
		if per := p.per(float64(p.use.mallocs)); per > 0.01 {
			t.Errorf("harness allocates %.4f per op (%d mallocs over %d ops)", per, p.use.mallocs, p.ok())
		}
	}
	if ns := timerNS(); ns <= 0 || ns > 5000 {
		t.Errorf("timer calibration %v ns per clock read", ns)
	}
}

func TestRunPhaseCountsFailuresAndWindows(t *testing.T) {
	first := []int{0, 0}
	p := runPhase(2, 200*time.Millisecond, first, nil, func(c, i int) bool {
		time.Sleep(time.Millisecond)
		return i%4 != 3
	})
	if p.failed == 0 || p.failed >= p.attempted/3 {
		t.Errorf("failed %d of %d, want about a quarter", p.failed, p.attempted)
	}
	if len(p.windows) != 4 || p.window != 50*time.Millisecond {
		t.Fatalf("windows %v of %v", p.windows, p.window)
	}
	var inWindows int64
	for _, n := range p.windows {
		inWindows += n
	}
	if inWindows > p.ok() || inWindows < p.ok()-4 {
		t.Errorf("windows hold %d verified ops, phase %d", inWindows, p.ok())
	}
	if first[0] == 0 || first[1] == 0 {
		t.Errorf("op cursors not advanced: %v", first)
	}
	if rate := p.opsPerSec(); rate < 500 || rate > 2000 {
		t.Errorf("ops/s = %v, want ~1500 (2 clients, 1 ms per op, a quarter failing)", rate)
	}
}

func TestSamplesQuantile(t *testing.T) {
	s := newSamples(4)
	for _, us := range []int{30, 10, 20, 40} {
		s.add(time.Duration(us) * time.Microsecond)
	}
	s.add(time.Second) // full: dropped, not grown
	if s.n != 4 || s.dropped != 1 {
		t.Fatalf("n=%d dropped=%d", s.n, s.dropped)
	}
	if got := s.quantileUS(0.5); got != 25 {
		t.Errorf("p50 = %v, want 25 (mean of the two middle samples)", got)
	}
	if got := s.quantileUS(1); got != 40 {
		t.Errorf("p100 = %v, want 40", got)
	}
}

// TestQuartilesMatchPython pins the spread arithmetic to
// statistics.quantiles(values, n=4), the driver's.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{10, 20, 30, 40}, 12.5, 37.5},
		{[]float64{5, 7}, 4.5, 7.5},
	} {
		q1, q3 := quartiles(c.v)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; Python gives %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
}

// TestSpanSelfTime checks the nesting and self-time arithmetic on a
// synthetic two-request tree recorded out of order, with one orphan.
func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{start: 110, end: 150, kind: spStoreWrite}, // inside the device span below
		{start: 0, end: 1000, kind: spClientOp},    // request 0
		{start: 100, end: 400, kind: spDevWrite},
		{start: 50, end: 80, kind: spPrice},
		{start: 200, end: 300, kind: spStoreWrite},
		{start: 2000, end: 2600, kind: spClientOp}, // request 1
		{start: 2100, end: 2200, kind: spDevRead},
		{start: 1500, end: 1600, kind: spStoreRead}, // between requests: orphan
	}
	nodes := nest(spans)
	sum := summarize(nodes)
	if sum.roots != 2 || sum.rootTotal != 1600 {
		t.Fatalf("roots %d total %d, want 2 and 1600", sum.roots, sum.rootTotal)
	}
	want := map[string]layerStat{
		"srbnet": {calls: 2, total: 1600, self: 1600 - 300 - 30 - 100},
		"qos":    {calls: 1, total: 30, self: 30},
		"device": {calls: 2, total: 400, self: 400 - 40 - 100},
		"store":  {calls: 2, total: 140, self: 140},
	}
	if !reflect.DeepEqual(sum.byLayer, want) {
		t.Errorf("layers = %+v\nwant     %+v", sum.byLayer, want)
	}
	var self int64
	for _, l := range sum.byLayer {
		self += l.self
	}
	if self != sum.rootTotal {
		t.Errorf("layer self times sum to %d, root spans to %d", self, sum.rootTotal)
	}
	if got := sum.selfUSPerRoot("device"); got != 0.13 {
		t.Errorf("device self per request = %v µs, want 0.13", got)
	}
	for _, n := range nodes {
		if n.kind == spStoreRead && (n.req != -1 || n.parent != -1) {
			t.Errorf("orphan span got req %d parent %d", n.req, n.parent)
		}
		if n.kind == spStoreWrite && nodes[n.parent].kind != spDevWrite {
			t.Errorf("store span's parent is %v, want the device span", spanKinds[nodes[n.parent].kind].name)
		}
	}
}

// TestWorkloadsSmoke runs every workload for half a second, untraced
// and traced: each must pass its verification, report every metric of
// the requested family under a registered name, and keep the
// end-to-end metrics non-zero.
func TestWorkloadsSmoke(t *testing.T) {
	registered := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		registered[d.Name] = true
	}
	for _, w := range workloadDefs {
		for _, traced := range []bool{false, true} {
			w, traced := w, traced
			name := w.Name + "/untraced"
			if traced {
				name = w.Name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				base := t.TempDir()
				cfg := runConfig{seed: 1, seconds: 0.5, traced: traced, clients: 2, csvDir: base}
				// The probes are the same on every workload; under the
				// race detector once is enough.
				r, err := runOne(cfg, base, w.Name, traced && w.Name == "wire-small")
				if err != nil {
					t.Fatal(err)
				}
				if !r.correct() || r.attempted < 1 {
					t.Fatalf("attempted %d failed %d problems %v", r.attempted, r.failed, r.problems)
				}
				for n := range r.values {
					if !registered[n] {
						t.Errorf("metric %q is not in the registry", n)
					}
				}
				for _, d := range endToEnd {
					if v, ok := r.values[d.Name]; !ok || !(v > 0) || math.IsInf(v, 0) {
						t.Errorf("%s = %v (reported %v), want a positive number", d.Name, v, ok)
					}
				}
				defs := endToEnd
				if traced {
					defs = perLayer
					if r.values["trace.spans"] == 0 {
						t.Error("traced run recorded no spans")
					}
					if _, err := os.Stat(base + "/" + w.Name + "-seed1.csv"); err != nil {
						t.Errorf("span CSV: %v", err)
					}
				}
				line, err := r.jsonLine(defs)
				if err != nil {
					t.Fatal(err)
				}
				var out struct {
					Correct   *bool                 `json:"correct"`
					Attempted *int64                `json:"attempted"`
					Failed    *int64                `json:"failed"`
					Metrics   map[string]jsonMetric `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(line), &out); err != nil {
					t.Fatal(err)
				}
				if out.Correct == nil || out.Attempted == nil || out.Failed == nil || len(out.Metrics) != len(defs) {
					t.Errorf("result line has %d metrics, want %d: %s", len(out.Metrics), len(defs), line)
				}
				for _, d := range defs {
					if m, ok := out.Metrics[d.Name]; !ok || m.Unit != d.Unit {
						t.Errorf("result line: %s = %+v (present %v)", d.Name, m, ok)
					}
				}
			})
		}
	}
}
