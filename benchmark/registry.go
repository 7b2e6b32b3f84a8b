package main

import (
	"encoding/json"
	"fmt"
	"io"
)

// metricDef is one named metric: the registry below is the single
// source BENCHMARK.json is generated from and checked against.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: relative worsening that is a regression
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// runSeconds is the timed length the driver passes as --seconds.
const runSeconds = 20

// workloadDefs lists the workloads in the order a run of all of them
// takes.  The two journal workloads go first: their timings hang on a
// fixed flush budget, so they are the least moved by the minutes in
// which a freshly loaded sandbox VM drops from burst to sustained
// speed — which then lie behind the wire workloads.
var workloadDefs = []workloadDef{
	{"meta-journal", "journaled metadb mutators on the real fs with a reader beside them: the flush, JSON records and the lock held across Sync are everything"},
	{"cluster-meta", "3 durable replicas, 6 shards: the only workload where quorum replication and the redirect path do work"},
	{"wire-small", "4 KiB reads/writes through the full broker: per-request software cost (codec, demux, qos, dispatch) is all of the work, bytes are nothing"},
	{"wire-bulk", "4 MiB whole-file put/get onto osfs: bytes dominate and per-request overhead is noise, so a dispatch fix must not move it"},
	{"pipeline-astro3d", "the paper's application (Astro3D then MSE) through the User API over the wire: time to solution, every layer does a little"},
}

// endToEnd metrics are reported by every workload for its own unit of
// work ("op": see README.md) and are never zero.  The time bounds are
// the widest the contract allows: ten runs of one commit spread by
// 5-15 % in this sandbox (README.md, sandbox caveats).
var endToEnd = []metricDef{
	{"ops_per_s", "1/s", "higher", 0.25},
	{"p50_us", "us", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.03},
	{"alloc_bytes_per_op", "B", "lower", 0.15},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer metrics come from the traced invocation: probes (a layer's
// public functions in isolation, fixed iteration counts), spans and
// counts from the harness decorators, and the workload-specific
// results that only one or two workloads can report.  A metric whose
// layer is not on the workload's path reads 0.
var perLayer = []metricDef{
	// whole-process results too unsteady here to carry a bound
	{"lat.tail_us", "us", "lower", 0},
	{"proc.cpu_us_per_op", "us", "lower", 0},
	// workload-specific results
	{"bulk.write_mib_per_s", "MiB/s", "higher", 0},
	{"bulk.read_mib_per_s", "MiB/s", "higher", 0},
	{"journal.fsyncs_per_op", "count", "lower", 0},
	{"journal.reader_p50_us", "us", "lower", 0},
	{"journal.reader_p99_us", "us", "lower", 0},
	{"journal.replay_ms", "ms", "lower", 0},
	{"journal.checkpoint_ms", "ms", "lower", 0},
	{"journal.sync_share_pct", "%", "lower", 0},
	{"pipeline.virt_io_s", "virt_s", "lower", 0},
	{"pipeline.predict_err_pct", "%", "lower", 0},
	{"pipeline.wall_s", "s", "lower", 0},
	{"pipeline.wire_share_pct", "%", "lower", 0},
	// srbnet
	{"srbnet.self_us", "us", "lower", 0},
	{"srbnet.null_rtt_us", "us", "lower", 0},
	{"srbnet.null_allocs_per_op", "count", "lower", 0},
	{"srbnet.stream_mib_per_s", "MiB/s", "higher", 0},
	{"srbnet.redirects", "count", "lower", 0},
	{"srbnet.failovers", "count", "lower", 0},
	// qos
	{"qos.self_us", "us", "lower", 0},
	{"qos.do_us", "us", "lower", 0},
	{"qos.do_allocs", "count", "lower", 0},
	{"qos.do_contended_us", "us", "lower", 0},
	{"qos.price_us", "us", "lower", 0},
	{"qos.price_allocs", "count", "lower", 0},
	{"qos.allocs_gap", "count", "lower", 0},
	{"qos.granted", "count", "higher", 0},
	{"qos.shed", "count", "lower", 0},
	{"qos.batches", "count", "lower", 0},
	// predict, srb
	{"predict.unit_us", "us", "lower", 0},
	{"predict.unit_allocs", "count", "lower", 0},
	{"srb.dispatch_us", "us", "lower", 0},
	// device, store
	{"device.self_us", "us", "lower", 0},
	{"device.calls", "count", "lower", 0},
	{"device.bytes", "B", "lower", 0},
	{"tape.mounts", "count", "lower", 0},
	{"store.self_us", "us", "lower", 0},
	{"store.calls", "count", "lower", 0},
	{"store.bytes", "B", "lower", 0},
	// metadb, wal, vfs
	{"metadb.self_us", "us", "lower", 0},
	{"metadb.mutate_us", "us", "lower", 0},
	{"metadb.mutate_allocs", "count", "lower", 0},
	{"metadb.read_us", "us", "lower", 0},
	{"wal.append_us", "us", "lower", 0},
	{"wal.sync_us", "us", "lower", 0},
	{"wal.bytes_per_rec", "B", "lower", 0},
	{"wal.rotations", "count", "lower", 0},
	{"wal.replay_us_per_rec", "us", "lower", 0},
	{"wal.compact_ms", "ms", "lower", 0},
	{"vfs.sync_us", "us", "lower", 0},
	{"vfs.write_us", "us", "lower", 0},
	{"vfs.syncs", "count", "lower", 0},
	{"vfs.write_bytes", "B", "lower", 0},
	// cluster
	{"cluster.self_us", "us", "lower", 0},
	{"cluster.replicate_us", "us", "lower", 0},
	{"cluster.replicate_durable_us", "us", "lower", 0},
	{"cluster.route_us", "us", "lower", 0},
	{"cluster.log_entries", "count", "lower", 0},
	{"cluster.sharded_ops_per_s", "1/s", "higher", 0},
	// core / collective, hsm
	{"core.writeiter_ms", "ms", "lower", 0},
	{"hsm.put_us", "us", "lower", 0},
	{"hsm.read_hit_us", "us", "lower", 0},
	{"hsm.recall_us", "us", "lower", 0},
	{"hsm.tick_ms", "ms", "lower", 0},
	{"hsm.journal_recs_per_op", "count", "lower", 0},
	// go runtime, harness, tracing
	{"go.gc_cycles", "count", "lower", 0},
	{"go.gc_pause_ms", "ms", "lower", 0},
	{"go.heap_mib", "MiB", "lower", 0},
	{"harness.timer_ns", "ns", "lower", 0},
	{"harness.allocs_per_op", "count", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
	{"trace.spans", "count", "higher", 0},
	{"trace.dropped", "count", "lower", 0},
}

// manifest is the BENCHMARK.json layout.
type manifest struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []perLayerDef `json:"per_layer"`
}

// perLayerDef drops the bound key, which per-layer metrics do not have.
type perLayerDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloadDefs,
		EndToEnd:   endToEnd,
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, perLayerDef{d.Name, d.Unit, d.Better})
	}
	return m
}

// result is what one workload run measured.
type result struct {
	workload  string
	attempted int64
	failed    int64
	// problems lists every verification that did not hold; the run is
	// correct only when it is empty and no op failed.
	problems []string
	values   map[string]float64
	counts   map[string]int64 // samples behind a value, where that is meaningful
	notes    []string         // free-form lines for the human report
}

func newResult(workload string) *result {
	return &result{workload: workload, values: map[string]float64{}, counts: map[string]int64{}}
}

// set records a metric; every metric is reported once per run.
func (r *result) set(name string, v float64) {
	if _, dup := r.values[name]; dup {
		r.problemf("metric %s reported twice", name)
	}
	r.values[name] = v
}

func (r *result) setN(name string, v float64, n int64) {
	r.set(name, v)
	r.counts[name] = n
}
func (r *result) problemf(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}
func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}
func (r *result) correct() bool { return r.failed == 0 && len(r.problems) == 0 }

// count folds one phase's op counts into the run totals.
func (r *result) count(p phase) {
	r.attempted += p.attempted
	r.failed += p.failed
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// jsonLine renders the one-line machine result: exactly the metrics of
// the requested family, every one of them.
func (r *result) jsonLine(defs []metricDef) (string, error) {
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, map[string]jsonMetric{}}
	for _, d := range defs {
		out.Metrics[d.Name] = jsonMetric{r.values[d.Name], d.Unit}
	}
	b, err := json.Marshal(out)
	return string(b), err
}

// report prints every metric the run produced by name, with unit,
// sample count and regression bound.
func (r *result) report(w io.Writer) {
	fmt.Fprintf(w, "== %s: attempted_ops=%d failed_ops=%d correct=%v\n", r.workload, r.attempted, r.failed, r.correct())
	for _, p := range r.problems {
		fmt.Fprintf(w, "   PROBLEM: %s\n", p)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "   %s\n", n)
	}
	row := func(d metricDef) {
		v, ok := r.values[d.Name]
		if !ok {
			return
		}
		n, bound := "-", "-"
		if c, ok := r.counts[d.Name]; ok {
			n = fmt.Sprint(c)
		}
		if d.Bound > 0 {
			bound = fmt.Sprintf("%.0f%%", d.Bound*100)
		}
		fmt.Fprintf(w, "   %-30s %16.4f %-7s n=%-9s %-6s bound=%s\n", d.Name, v, d.Unit, n, d.Better, bound)
	}
	for _, d := range endToEnd {
		row(d)
	}
	for _, d := range perLayer {
		row(d)
	}
}
