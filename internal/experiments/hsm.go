package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/faultfs"
	"repro/internal/hsm"
	"repro/internal/memfs"
	"repro/internal/metadb"
	"repro/internal/model"
	"repro/internal/predict"
	"repro/internal/qos"
	"repro/internal/remotedisk"
	"repro/internal/storage"
	"repro/internal/tape"
	"repro/internal/vtime"
	"repro/internal/wal"
)

// ------------------------------------------------------------------
// HSM: months of simulated archive workload — daily dataset births,
// Zipf-over-recency reads, steady churn of retirements — run twice
// over a small disk pool in front of the tape library:
//
//   - Baseline (static placement, the paper's model): datasets land on
//     the pool until its hard capacity is hit, then overflow straight
//     to tape and stay there.  The pool fills with the oldest data and
//     every read of younger data mounts cartridges.
//   - HSM: the lifecycle engine migrates cold datasets to tape through
//     the qos staging-cartridge write lane, purges dual copies against
//     the watermarks (migrate-before-purge), recalls tape-resident
//     datasets through the eq. (1)-priced staging engine, and repacks
//     fragmented cartridges.
//
// Both legs replay the identical deterministic schedule and every read
// is byte-compared against the generator, so the win is measured at
// equal correctness.  Headline metrics: robot mounts per simulated
// day, disk-pool hit rate, and the recall latency p95 against a bound
// of hsmRecallBoundFactor × the predicted direct tape read of the
// largest dataset.
//
// A third leg reruns a compressed schedule with the lifecycle state
// journaled through the write-ahead log on a fault-injected
// filesystem: the broker crashes at sampled mutation points under
// every crash mode, the journal is replayed, hsm.Engine.Recover maps
// in-flight states back to safe ones, and every surviving row must be
// in a durable state with its authoritative copy byte-intact.

// hsmCartridgeBytes shrinks cartridges so the workload spans many of
// them — mount behaviour, not capacity, is what is under test.
const hsmCartridgeBytes = 64 << 10

// hsmRecallBoundFactor scales one worst-case blind recall — a full
// robot cycle (unmount + mount) plus the predicted direct tape read of
// the largest dataset — into the recall-latency deadline.  The factor
// of two leaves room for queueing behind one in-flight tape job.
const hsmRecallBoundFactor = 2

// hsmUnmountLatency pins the library's robot unmount cost so the
// recall bound and the simulation agree on it.
const hsmUnmountLatency = 15 * time.Second

// hsmPolicy is the lifecycle policy both the main and crash legs run.
func hsmPolicy() hsm.Policy {
	return hsm.Policy{
		ColdAfter:    48 * time.Hour,
		ScanInterval: 24 * time.Hour,
		HighWater:    0.85,
		LowWater:     0.6,
		RepackWaste:  0.25,
		MaxBatch:     64,
	}
}

// HSMCrashRow aggregates one crash mode's trials.
type HSMCrashRow struct {
	Mode       string
	Points     int
	Fired      int
	Replays    int
	Recovered  int // in-flight rows Recover mapped to a safe state
	Violations int // unsafe state, missing copy, or byte mismatch
}

// HSMResult holds all three legs.
type HSMResult struct {
	Days         int
	Datasets     int // datasets born over the horizon
	Reads        int // reads per leg
	Removes      int
	PoolCapacity int64

	BaseMounts       int64
	BaseMountsPerDay float64
	BaseHitRate      float64

	HSMMounts       int64
	HSMMountsPerDay float64
	HSMHitRate      float64

	Migrations int64
	Recalls    int64
	GCRuns     int64
	GCPurged   int64
	GCStalls   int64
	Repacks    int64

	RecallP95   time.Duration
	RecallBound time.Duration

	Mismatches int // byte-compare failures across both legs

	CrashRows []HSMCrashRow
}

// MountWin is the mounts-per-day reduction factor of the HSM leg.
func (r HSMResult) MountWin() float64 {
	if r.HSMMountsPerDay <= 0 {
		return 0
	}
	return r.BaseMountsPerDay / r.HSMMountsPerDay
}

// CrashPoints, CrashFired and CrashViolations aggregate the matrix.
func (r HSMResult) CrashPoints() int {
	n := 0
	for _, row := range r.CrashRows {
		n += row.Points
	}
	return n
}

func (r HSMResult) CrashFired() int {
	n := 0
	for _, row := range r.CrashRows {
		n += row.Fired
	}
	return n
}

func (r HSMResult) CrashViolations() int {
	n := 0
	for _, row := range r.CrashRows {
		n += row.Violations
	}
	return n
}

// Headline flattens the result into the scalars hsmGate reads.
func (r HSMResult) Headline() map[string]float64 {
	return map[string]float64{
		"mount_win_x":             r.MountWin(),
		"mounts_per_day_baseline": r.BaseMountsPerDay,
		"mounts_per_day_hsm":      r.HSMMountsPerDay,
		"hit_rate_baseline":       r.BaseHitRate,
		"hit_rate_hsm":            r.HSMHitRate,
		"recall_p95_s":            r.RecallP95.Seconds(),
		"recall_bound_s":          r.RecallBound.Seconds(),
		"migrations":              float64(r.Migrations),
		"recalls":                 float64(r.Recalls),
		"gc_purged":               float64(r.GCPurged),
		"repacks":                 float64(r.Repacks),
		"mismatches":              float64(r.Mismatches),
		"crash_points":            float64(r.CrashPoints()),
		"crash_violations":        float64(r.CrashViolations()),
	}
}

// hsmGate is the acceptance gate: equal correctness, a real mount and
// hit-rate win, a lifecycle that did every kind of work, recalls inside
// the deadline bound, and a clean crash matrix.
var hsmGate = gates(
	want("mismatches", "==", 0),
	want("migrations", ">", 0), want("recalls", ">", 0), want("gc_purged", ">", 0), want("repacks", ">", 0),
	want("mount_win_x", ">", 1),
	want("hit_rate_hsm", ">", "hit_rate_baseline"),
	want("recall_p95_s", ">", 0), want("recall_p95_s", "<=", "recall_bound_s"),
	want("crash_points", ">", 0), want("crash_violations", "==", 0))

// hsmOp is one scheduled archive operation.
type hsmOp struct {
	kind byte // 'w' new dataset, 'r' read, 'd' retire
	path string
	size int
}

// hsmContent is a dataset's deterministic bytes, derived from its
// path alone so any leg (and any crash recovery) can regenerate it.
func hsmContent(path string, size int) []byte {
	h := 0
	for _, c := range path {
		h = h*131 + int(c)
	}
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(h + i*7)
	}
	return data
}

// hsmSchedule builds the deterministic day-by-day operation schedule:
// newPerDay births, readsPerDay Zipf-over-recency reads (rank 0 = the
// newest dataset), and from day 4 one retirement per day among the
// five oldest survivors.
func hsmSchedule(days, newPerDay, readsPerDay int, seed int64) ([][]hsmOp, int, int, int) {
	rng := rand.New(rand.NewSource(seed))
	var live []string
	size := func(i int) int { return 8<<10 + (i%4)*(8<<10) }
	sizes := make(map[string]int)
	sched := make([][]hsmOp, days)
	born, reads, removes := 0, 0, 0
	for d := 0; d < days; d++ {
		var ops []hsmOp
		for i := 0; i < newPerDay; i++ {
			path := fmt.Sprintf("archive/ds%05d", born)
			sizes[path] = size(born)
			born++
			live = append(live, path)
			ops = append(ops, hsmOp{'w', path, sizes[path]})
		}
		z := rand.NewZipf(rng, 1.5, 1, uint64(len(live)-1))
		for i := 0; i < readsPerDay; i++ {
			idx := len(live) - 1 - int(z.Uint64())
			ops = append(ops, hsmOp{'r', live[idx], sizes[live[idx]]})
			reads++
		}
		if d >= 4 && len(live) > 8 {
			idx := rng.Intn(5)
			path := live[idx]
			live = append(live[:idx], live[idx+1:]...)
			ops = append(ops, hsmOp{'d', path, sizes[path]})
			removes++
		}
		sched[d] = ops
	}
	return sched, born, reads, removes
}

// hsmPoolCapacity sizes the pool to hold roughly six days of births —
// large enough for the working set, far too small for the archive.
func hsmPoolCapacity(newPerDay int) int64 {
	return int64(6 * newPerDay * 20 << 10)
}

// newHSMTape builds the workload tape library.
func newHSMTape() (*tape.Library, error) {
	// One drive: the robot's mount behaviour is the contended resource
	// under test, and a single drive keeps either leg from hiding a
	// hot cartridge on a spare spindle.
	return tape.New(tape.Config{
		Name: "sdsc-hpss", Params: model.RemoteTape2000(),
		Store: memfs.New(), CartridgeCapacity: hsmCartridgeBytes,
		UnmountLatency: hsmUnmountLatency, Drives: 1,
	})
}

// HSM runs all three legs.  The schedule horizon scales with
// scale.MaxIter (two simulated days per iteration step: the test
// scale covers ~3.5 weeks, the paper scale ~8 months).
func HSM(scale Scale, seed int64) (HSMResult, error) {
	days := 2 * scale.MaxIter
	if days < 14 {
		days = 14
	}
	newPerDay, readsPerDay := 3, 5*scale.Procs
	sched, born, reads, removes := hsmSchedule(days, newPerDay, readsPerDay, seed)
	res := HSMResult{
		Days: days, Datasets: born, Reads: reads, Removes: removes,
		PoolCapacity: hsmPoolCapacity(newPerDay),
	}

	// The predictor pricing GC scoring, staging decisions and qos
	// costs comes from a standard PTool sweep; only the curves are
	// reused.
	env, err := NewEnv()
	if err != nil {
		return res, err
	}
	maxBytes := int64(0)
	for _, day := range sched {
		for _, op := range day {
			if op.kind == 'w' && int64(op.size) > maxBytes {
				maxBytes = int64(op.size)
			}
		}
	}
	sec, err := env.PDB.WholeFile(storage.KindRemoteTape.String(), "read", maxBytes)
	if err != nil {
		return res, err
	}
	robot := hsmUnmountLatency + model.RemoteTape2000().MountLatency
	res.RecallBound = hsmRecallBoundFactor *
		(robot + time.Duration(sec*float64(time.Second)))

	if err := hsmBaselineLeg(&res, sched); err != nil {
		return res, err
	}
	if err := hsmEngineLeg(&res, sched, env.PDB); err != nil {
		return res, err
	}
	if err := hsmCrashLeg(&res, seed); err != nil {
		return res, err
	}
	return res, nil
}

// hsmBaselineLeg replays the schedule with static placement: the pool
// until its hard capacity, tape overflow after.
func hsmBaselineLeg(res *HSMResult, sched [][]hsmOp) error {
	sim := vtime.NewVirtual()
	pool, err := remotedisk.New("sdsc-disk", memfs.New(), remotedisk.WithCapacity(res.PoolCapacity))
	if err != nil {
		return err
	}
	lib, err := newHSMTape()
	if err != nil {
		return err
	}
	p := sim.NewProc("archive")
	psess, err := pool.Connect(p)
	if err != nil {
		return err
	}
	tsess, err := lib.Connect(p)
	if err != nil {
		return err
	}
	onTape := make(map[string]bool)
	hits, misses := 0, 0
	for _, day := range sched {
		step := 24 * time.Hour / time.Duration(len(day)+1)
		for _, op := range day {
			p.Advance(step)
			data := hsmContent(op.path, op.size)
			switch op.kind {
			case 'w':
				err := storage.PutFile(p, psess, op.path, storage.ModeOverWrite, data)
				if errors.Is(err, storage.ErrCapacity) {
					onTape[op.path] = true
					err = storage.PutFile(p, tsess, op.path, storage.ModeOverWrite, data)
				}
				if err != nil {
					return err
				}
			case 'r':
				sess := psess
				if onTape[op.path] {
					sess = tsess
					misses++
				} else {
					hits++
				}
				got, err := storage.GetFile(p, sess, op.path)
				if err != nil {
					return err
				}
				if !bytes.Equal(got, data) {
					res.Mismatches++
				}
			case 'd':
				sess := psess
				if onTape[op.path] {
					sess = tsess
				}
				if err := sess.Remove(p, op.path); err != nil {
					return err
				}
				delete(onTape, op.path)
			}
		}
	}
	mounts, _, _ := lib.Stats()
	res.BaseMounts = mounts
	res.BaseMountsPerDay = float64(mounts) / float64(res.Days)
	if hits+misses > 0 {
		res.BaseHitRate = float64(hits) / float64(hits+misses)
	}
	return nil
}

// hsmEngineLeg replays the schedule through the lifecycle engine with
// one policy tick per simulated day.
func hsmEngineLeg(res *HSMResult, sched [][]hsmOp, pdb *predict.DB) error {
	sim := vtime.NewVirtual()
	pool, err := remotedisk.New("sdsc-disk", memfs.New())
	if err != nil {
		return err
	}
	lib, err := newHSMTape()
	if err != nil {
		return err
	}
	sched2, err := qos.New(qos.Config{
		Tape: lib, MaxInFlight: 1, Price: qos.PredictPricer(pdb),
	})
	if err != nil {
		return err
	}
	defer sched2.Close()
	eng, err := hsm.New(hsm.Config{
		Sim: sim, Meta: metadb.New(), Pool: pool, Tape: lib,
		PDB: pdb, QoS: sched2,
		PoolCapacity: res.PoolCapacity, Policy: hsmPolicy(),
	})
	if err != nil {
		return err
	}
	defer eng.Close()
	p := sim.NewProc("archive")
	for _, day := range sched {
		step := 24 * time.Hour / time.Duration(len(day)+1)
		for _, op := range day {
			p.Advance(step)
			switch op.kind {
			case 'w':
				if err := eng.Put(p, op.path, hsmContent(op.path, op.size)); err != nil {
					return err
				}
			case 'r':
				got, err := eng.Read(p, op.path)
				if err != nil {
					return err
				}
				if !bytes.Equal(got, hsmContent(op.path, op.size)) {
					res.Mismatches++
				}
			case 'd':
				if err := eng.Remove(p, op.path); err != nil {
					return err
				}
			}
		}
		p.Advance(step)
		if err := eng.Tick(p); err != nil {
			return err
		}
	}
	st := eng.Stats()
	res.HSMMounts = st.Mounts
	res.HSMMountsPerDay = float64(st.Mounts) / float64(res.Days)
	res.HSMHitRate = st.HitRate()
	res.Migrations = st.Migrations
	res.Recalls = st.Recalls
	res.GCRuns = st.GCRuns
	res.GCPurged = st.GCPurged
	res.GCStalls = st.GCStalls
	res.Repacks = st.Repacks
	res.RecallP95 = st.RecallP95
	return nil
}

// ------------------------------------------------------------------
// Crash leg.

// hsmCrashDays keeps the per-trial workload small; the matrix runs it
// dozens of times.
const hsmCrashDays = 8

// hsmCrashPoints is the number of sampled crash points per mode.
const hsmCrashPoints = 8

// hsmCrashLeg runs the crash-point matrix over the journaled engine.
func hsmCrashLeg(res *HSMResult, seed int64) error {
	// The clean run measures the journal-op budget and proves the
	// compressed workload still exercises the lifecycle.
	clean, err := hsmCrashOne(faultfs.DropUnsynced, 0, seed)
	if err != nil {
		return err
	}
	if clean.ops == 0 || clean.migrations == 0 || clean.purged == 0 {
		return fmt.Errorf("hsm: vacuous crash workload (ops %d, migrations %d, purged %d)",
			clean.ops, clean.migrations, clean.purged)
	}
	if clean.violations != 0 {
		return fmt.Errorf("hsm: clean crash run violated invariants (%d)", clean.violations)
	}
	rng := rand.New(rand.NewSource(seed))
	for _, mode := range faultfs.Modes() {
		row := HSMCrashRow{Mode: mode.String()}
		for j := 0; j < hsmCrashPoints; j++ {
			point := 1 + rng.Intn(clean.ops)
			t, err := hsmCrashOne(mode, point, seed^int64(point)*6007+int64(j))
			if err != nil {
				return err
			}
			row.Points++
			if t.fired {
				row.Fired++
			}
			if !t.replayFailed {
				row.Replays++
			}
			row.Recovered += t.recovered
			row.Violations += t.violations
			if t.replayFailed {
				row.Violations++
			}
		}
		res.CrashRows = append(res.CrashRows, row)
	}
	if fired, points := res.CrashFired(), res.CrashPoints(); fired != points {
		return fmt.Errorf("hsm: only %d of %d armed crashes fired", fired, points)
	}
	return nil
}

type hsmCrashTrial struct {
	ops        int
	fired      bool
	migrations int64
	purged     int64

	replayFailed bool
	recovered    int
	violations   int
}

// hsmCrashOne runs the compressed schedule over a journal-backed
// engine with a crash armed at the point-th journal-filesystem
// mutation, recovers, replays, runs Engine.Recover, and verifies that
// every surviving row is in a durable state whose authoritative copy
// byte-matches the generator.  The pool and tape live on plain memory
// — only the broker's journal host crashes.
func hsmCrashOne(mode faultfs.CrashMode, point int, seed int64) (hsmCrashTrial, error) {
	var t hsmCrashTrial
	sim := vtime.NewVirtual()
	p := sim.NewProc("hsm-crash")
	pool, err := remotedisk.New("sdsc-disk", memfs.New())
	if err != nil {
		return t, err
	}
	lib, err := newHSMTape()
	if err != nil {
		return t, err
	}
	fsys := faultfs.New()
	db, err := metadb.OpenJournal(wal.Options{FS: fsys, Dir: "journal", SegmentBytes: 2048})
	if err != nil {
		return t, err
	}
	newPerDay := 3
	eng, err := hsm.New(hsm.Config{
		Sim: sim, Meta: db, Pool: pool, Tape: lib,
		PoolCapacity: hsmPoolCapacity(newPerDay),
		Policy:       hsmPolicy(),
	})
	if err != nil {
		return t, err
	}
	defer eng.Close()
	sched, _, _, _ := hsmSchedule(hsmCrashDays, newPerDay, 6, seed)
	sizes := make(map[string]int)

	base := fsys.Ops()
	fsys.SetCrash(point)
work:
	for _, day := range sched {
		step := 24 * time.Hour / time.Duration(len(day)+1)
		for _, op := range day {
			p.Advance(step)
			var err error
			switch op.kind {
			case 'w':
				sizes[op.path] = op.size
				err = eng.Put(p, op.path, hsmContent(op.path, op.size))
			case 'r':
				var got []byte
				got, err = eng.Read(p, op.path)
				if err == nil && !bytes.Equal(got, hsmContent(op.path, op.size)) {
					t.violations++
				}
			case 'd':
				err = eng.Remove(p, op.path)
			}
			if err != nil {
				if !fsys.Crashed() {
					return t, fmt.Errorf("hsm crash workload %c %s: %w", op.kind, op.path, err)
				}
				break work
			}
		}
		p.Advance(step)
		if err := eng.Tick(p); err != nil {
			if !fsys.Crashed() {
				return t, err
			}
			break
		}
	}
	st := eng.Stats()
	t.migrations = st.Migrations
	t.purged = st.GCPurged
	_ = db.CloseJournal()
	t.ops = fsys.Ops() - base
	t.fired = fsys.Crashed()

	// ---- Recover the journal host and verify. ----
	rec := fsys.Recover(mode, seed)
	db2, err := metadb.OpenJournal(wal.Options{FS: rec, Dir: "journal", SegmentBytes: 2048})
	if err != nil {
		t.replayFailed = true
		return t, nil
	}
	defer db2.CloseJournal()
	eng2, err := hsm.New(hsm.Config{
		Sim: sim, Meta: db2, Pool: pool, Tape: lib,
		PoolCapacity: hsmPoolCapacity(newPerDay),
		Policy:       hsmPolicy(),
	})
	if err != nil {
		return t, err
	}
	defer eng2.Close()
	fixed, err := eng2.Recover()
	if err != nil {
		return t, err
	}
	t.recovered = fixed

	p2 := sim.NewProc("hsm-verify")
	for _, r := range db2.Lifecycles(nil, "sdsc-disk") {
		switch r.State {
		case hsm.StateResident, hsm.StateDual, hsm.StateMigrated:
		default:
			// Recover must not leave transient states behind.
			t.violations++
			continue
		}
		if (r.State == hsm.StateDual || r.State == hsm.StateMigrated) && r.TapePath == "" {
			t.violations++
			continue
		}
		// End-to-end: the engine must serve the authoritative copy,
		// recalling from tape where the disk copy was purged.
		got, err := eng2.Read(p2, r.Path)
		if err != nil || !bytes.Equal(got, hsmContent(r.Path, int(r.Bytes))) {
			t.violations++
		}
	}
	return t, nil
}

// HSMString renders the experiment report.
func HSMString(r HSMResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d days, %d datasets born, %d reads, %d retired, pool %d KiB\n",
		r.Days, r.Datasets, r.Reads, r.Removes, r.PoolCapacity>>10)
	fmt.Fprintf(&b, "%-10s %14s %10s\n", "leg", "mounts/day", "hit rate")
	fmt.Fprintf(&b, "%-10s %14.2f %9.1f%%\n", "baseline", r.BaseMountsPerDay, 100*r.BaseHitRate)
	fmt.Fprintf(&b, "%-10s %14.2f %9.1f%%   (%.1f× fewer mounts)\n",
		"hsm", r.HSMMountsPerDay, 100*r.HSMHitRate, r.MountWin())
	fmt.Fprintf(&b, "lifecycle: %d migrations, %d recalls, %d gc runs (%d purged, %d stalls), %d repacks\n",
		r.Migrations, r.Recalls, r.GCRuns, r.GCPurged, r.GCStalls, r.Repacks)
	fmt.Fprintf(&b, "recall p95 %.2f s (bound %.2f s), %d byte mismatches\n",
		r.RecallP95.Seconds(), r.RecallBound.Seconds(), r.Mismatches)
	fmt.Fprintf(&b, "%-14s %-7s %-6s %-8s %-10s %s\n", "crash mode", "points", "fired", "replays", "recovered", "violations")
	for _, row := range r.CrashRows {
		fmt.Fprintf(&b, "%-14s %-7d %-6d %-8d %-10d %d\n",
			row.Mode, row.Points, row.Fired, row.Replays, row.Recovered, row.Violations)
	}
	if hsmGate(r.Headline()) == nil {
		b.WriteString("hsm beats the static baseline at equal correctness; lifecycle state crash-safe\n")
	} else {
		b.WriteString("HSM ACCEPTANCE GATE FAILED\n")
	}
	return b.String()
}
