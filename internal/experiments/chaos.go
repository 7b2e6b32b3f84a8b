package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"repro/internal/apps/astro3d"
	"repro/internal/apps/mse"
	"repro/internal/core"
	"repro/internal/flaky"
	"repro/internal/metadb"
	"repro/internal/resilient"
	"repro/internal/stage"
	"repro/internal/storage"
	"repro/internal/testbed"
	"repro/internal/vtime"
)

// ------------------------------------------------------------------
// Chaos: Astro3D writes over fault-injected remote resources, recovered
// by the resilience layer.  The paper's §5 reliability argument covers
// a resource that is down before the run; chaos covers the harder case
// of a resource that keeps dropping individual operations mid-run.  A
// run "completes" when every fault was recovered transparently; the
// recovery cost is visible as virtual-time overhead against the
// fault-free baseline, because retry backoff is charged to the same
// clocks as device time.

// ChaosRow is one fault-rate point of the chaos experiment.
type ChaosRow struct {
	FailEvery int64   // one injected fault per this many remote ops (0 = none)
	Rate      float64 // injected fault rate (1/FailEvery)

	Completed bool
	Err       string // non-empty when the run failed anyway

	Injected  int64         // faults the flaky layer fired
	Retries   int64         // re-attempts the resilient layer issued
	FastFails int64         // calls shed by an open circuit
	Backoff   time.Duration // virtual time charged to retry delays
	Trips     int64         // breaker trips during the run

	IOTime   time.Duration // the run's total I/O virtual time
	Overhead float64       // (IOTime - baseline) / baseline
}

// Chaos runs Astro3D with every dataset on a flaky remote disk wrapped
// by the resilience layer, once per fault rate: one fault per N
// operations for N = 100, 20, 10 (1 %, 5 %, 10 %) after the clean
// baseline, which comes first for overhead accounting.
func Chaos(scale Scale) ([]ChaosRow, error) {
	var rows []ChaosRow
	var baseline time.Duration
	for _, n := range []int64{0, 100, 20, 10} {
		row, err := chaosOne(scale, n)
		if err != nil {
			return rows, err
		}
		if n == 0 {
			baseline = row.IOTime
		}
		if baseline > 0 && row.IOTime > 0 {
			row.Overhead = float64(row.IOTime-baseline) / float64(baseline)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// chaosOne builds a fresh environment whose remote disk drops one in n
// operations, recovered by a resilient wrapper, and drives a full
// Astro3D write workload through it.
func chaosOne(scale Scale, n int64) (ChaosRow, error) {
	sim := vtime.NewVirtual()
	res, err := testbed.New(testbed.Dir(""), nil)
	if err != nil {
		return ChaosRow{}, err
	}
	health := resilient.NewHealth(resilient.BreakerConfig{})
	fb := flaky.Wrap(res.RDisk, flaky.Policy{FailEvery: n})
	rb := resilient.Wrap(fb, resilient.WithHealth(health))
	sys, err := core.NewSystem(core.SystemConfig{
		Sim: sim, Meta: metadb.New(),
		LocalDisk: res.Local, RemoteDisk: rb, RemoteTape: res.Tape,
	})
	if err != nil {
		return ChaosRow{}, err
	}
	prm := scale.params()
	prm.DefaultLocation = core.LocRemoteDisk
	row := ChaosRow{FailEvery: n}
	if n > 0 {
		row.Rate = 1 / float64(n)
	}
	rep, err := astro3d.Run(sys, fmt.Sprintf("chaos-%d", n), prm)
	st := rb.Stats()
	row.Injected = fb.Injected()
	row.Retries = st.Retries
	row.FastFails = st.FastFails
	row.Backoff = st.Backoff
	row.Trips = rb.Breaker().Stats().Trips
	if err != nil {
		row.Err = err.Error()
		return row, nil
	}
	row.Completed = true
	row.IOTime = rep.IOTime
	return row, nil
}

// ------------------------------------------------------------------
// Chaos × staging: the staging engine pulls instances off a flaky
// remote disk.  The contract under faults: a stage-in either completes
// (the resilient wrapper retried the copy to success) or is abandoned
// and the read falls through to the direct path (which surfaces the
// breaker state) — and an abandoned copy never leaves partial bytes
// that a later hit could read.  Afterwards every surviving cache entry
// is byte-compared against its home instance.

// ChaosStageRow is one fault-rate point of the staging chaos case.
type ChaosStageRow struct {
	FailEvery int64
	Rate      float64

	Completed bool
	Err       string

	Injected int64 // faults the flaky layer fired
	Retries  int64 // re-attempts the resilient layer issued

	StagedIn  int64 // instances that made it into the cache
	Fallbacks int64 // stage-ins abandoned (read served directly)
	Hits      int64

	Corrupt bool // any cached copy differing from its home instance
	IOTime  time.Duration
}

// ChaosStage drives the MSE consumer twice through a staging engine
// whose home resource drops one in n operations, for n = 5 and 2
// (20 %, 50 %) after a clean row: staging issues few home-tier
// operations (one whole-file copy per dump), so the rates are harsher
// than the write-path chaos schedule to make every faulty row actually
// exercise recovery.
func ChaosStage(scale Scale) ([]ChaosStageRow, error) {
	var rows []ChaosStageRow
	for _, n := range []int64{0, 5, 2} {
		row, err := chaosStageOne(scale, n)
		if err != nil {
			return rows, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func chaosStageOne(scale Scale, n int64) (ChaosStageRow, error) {
	sim := vtime.NewVirtual()
	res, err := testbed.New(testbed.Dir(""), nil)
	if err != nil {
		return ChaosStageRow{}, err
	}
	local, rdisk := res.Local, res.RDisk
	health := resilient.NewHealth(resilient.BreakerConfig{})
	fb := flaky.Wrap(rdisk, flaky.Policy{}) // faults off while the producer writes
	rb := resilient.Wrap(fb, resilient.WithHealth(health))
	meta := metadb.New()

	// The producer writes temp to the (still healthy) remote disk
	// directly — the fault injection targets the consumer's stage-ins.
	prodSys, err := core.NewSystem(core.SystemConfig{
		Sim: sim, Meta: meta, LocalDisk: local, RemoteDisk: rb,
	})
	if err != nil {
		return ChaosStageRow{}, err
	}
	prm := scale.params()
	prm.VizFreq, prm.CheckpointFreq = 0, 0
	prm.Locations = map[string]core.Location{"temp": core.LocRemoteDisk}
	prm.DefaultLocation = core.LocDisable
	if _, err := astro3d.Run(prodSys, "prod", prm); err != nil {
		return ChaosStageRow{}, err
	}

	// No PTool sweep: with no predictor the engine stages on tier
	// ranking alone, which keeps the case about fault recovery.
	mgr, err := stage.New(stage.Config{
		Sim: sim, Cache: local,
		Budget: int64(scale.Dumps()) * int64(scale.N) * int64(scale.N) * int64(scale.N) * 4,
		Health: health,
	})
	if err != nil {
		return ChaosStageRow{}, err
	}
	defer mgr.Close()
	consSys, err := core.NewSystem(core.SystemConfig{
		Sim: sim, Meta: meta, LocalDisk: local, RemoteDisk: rb,
		Stager: mgr,
	})
	if err != nil {
		return ChaosStageRow{}, err
	}

	fb.SetPolicy(flaky.Policy{FailEvery: n})
	row := ChaosStageRow{FailEvery: n}
	if n > 0 {
		row.Rate = 1 / float64(n)
	}
	var ioTime time.Duration
	for _, id := range []string{"mse-a", "mse-b"} {
		res, err := mse.Run(consSys, id, mse.Params{
			ProducerRun: "prod", Dataset: "temp",
			Iterations: scale.MaxIter, Procs: scale.Procs,
		})
		if err != nil {
			row.Err = err.Error()
			break
		}
		ioTime += res.IOTime
	}
	fb.SetPolicy(flaky.Policy{})

	st := mgr.Stats()
	wrapped := rb.Stats()
	row.Injected = fb.Injected()
	row.Retries = wrapped.Retries
	row.StagedIn = st.StagedIn
	row.Fallbacks = st.StageFailures
	row.Hits = st.Hits
	row.Completed = row.Err == ""
	row.IOTime = ioTime

	// The integrity check: every cached instance must equal its home
	// copy, faults or not.
	p := sim.NewProc("chaos-stage-verify")
	csess, err := local.Connect(p)
	if err != nil {
		return ChaosStageRow{}, err
	}
	hsess, err := rdisk.Connect(p) // the unwrapped home: no faults here
	if err != nil {
		return ChaosStageRow{}, err
	}
	for _, me := range mgr.Manifest() {
		cached, err := storage.GetFile(p, csess, me.Staged)
		if err != nil {
			row.Corrupt = true
			break
		}
		home, err := storage.GetFile(p, hsess, me.Path)
		if err != nil || !bytes.Equal(cached, home) {
			row.Corrupt = true
			break
		}
	}
	return row, nil
}

// chaosHeadline flattens both chaos tables into the scalars the gate
// reads: how many rows ran and completed, how many faults fired, and
// how many staging rows left a corrupt cache copy behind.
func chaosHeadline(rows []ChaosRow, srows []ChaosStageRow) map[string]float64 {
	h := map[string]float64{
		"rows": float64(len(rows)), "completed": 0, "injected": 0,
		"stage_rows": float64(len(srows)), "stage_completed": 0, "corrupt": 0,
	}
	for _, r := range rows {
		h["injected"] += float64(r.Injected)
		if r.Completed {
			h["completed"]++
		}
	}
	for _, r := range srows {
		if r.Completed {
			h["stage_completed"]++
		}
		if r.Corrupt {
			h["corrupt"]++
		}
	}
	return h
}

// ChaosStageString renders the staging chaos table.
func ChaosStageString(rows []ChaosStageRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-9s %-9s %-8s %-8s %-9s %-9s %-6s %-8s %s\n",
		"fail_every", "rate", "completed", "injected", "retries", "staged_in", "fallback", "hits", "corrupt", "io_time")
	for _, r := range rows {
		status := "yes"
		if !r.Completed {
			status = "NO"
		}
		corrupt := "no"
		if r.Corrupt {
			corrupt = "YES"
		}
		fmt.Fprintf(&b, "%-10d %-9s %-9s %-8d %-8d %-9d %-9d %-6d %-8s %v\n",
			r.FailEvery, fmt.Sprintf("%.1f%%", r.Rate*100), status,
			r.Injected, r.Retries, r.StagedIn, r.Fallbacks, r.Hits, corrupt, r.IOTime)
	}
	return b.String()
}

// ChaosString renders the chaos table.
func ChaosString(rows []ChaosRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-9s %-9s %-8s %-8s %-6s %-12s %-12s %s\n",
		"fail_every", "rate", "completed", "injected", "retries", "trips", "backoff", "io_time", "overhead")
	for _, r := range rows {
		status := "yes"
		if !r.Completed {
			status = "NO: " + r.Err
		}
		fmt.Fprintf(&b, "%-10d %-9s %-9s %-8d %-8d %-6d %-12v %-12v %+.1f%%\n",
			r.FailEvery, fmt.Sprintf("%.1f%%", r.Rate*100), status,
			r.Injected, r.Retries, r.Trips, r.Backoff, r.IOTime, r.Overhead*100)
	}
	return b.String()
}
