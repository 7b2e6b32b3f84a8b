package experiments

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/faultfs"
	"repro/internal/localdisk"
	"repro/internal/memfs"
	"repro/internal/metadb"
	"repro/internal/remotedisk"
	"repro/internal/stage"
	"repro/internal/storage"
	"repro/internal/vfs"
	"repro/internal/vtime"
	"repro/internal/wal"
)

// ------------------------------------------------------------------
// Crash: a mixed metadb+staging workload dies at a randomized mutating
// operation (write, fsync, rename, directory sync — faultfs numbers
// them all), the filesystem image is recovered under each crash mode
// (drop-unsynced, keep-unsynced, torn-writes), and the broker state is
// replayed.  The invariants asserted after every recovery are the
// paper-level trust contract for the meta-data repository:
//
//  1. the journal replays without error (ErrCorrupt never escapes a
//     crash the durability model permits),
//  2. the replayed database equals the acknowledged mutation history
//     exactly, or that history plus the single in-flight mutation —
//     no acked row lost, no partial row visible,
//  3. a recovered metadb JSON snapshot, when present, byte-matches one
//     atomically written version (never a torn mixture),
//  4. every cache entry a restarted staging manager adopts from the
//     recovered manifest byte-matches its home-tier instance.

// CrashRow aggregates one crash mode's trials.
type CrashRow struct {
	Mode   string
	Points int // crash points exercised
	Fired  int // trials where the armed crash actually fired

	Replays   int // successful post-crash journal replays
	TornTails int // recoveries that truncated a torn journal tail
	Adopted   int // cache entries re-adopted from recovered manifests

	// The gates: all must stay zero.
	ReplayFailures     int // journal replay returned an error
	StateViolations    int // replayed state matched no acked prefix
	SnapshotViolations int // recovered metadb snapshot torn or unaccounted
	ManifestViolations int // adopted cache entry differed from its home bytes
}

// Violations sums the row's invariant failures.
func (r CrashRow) Violations() int {
	return r.ReplayFailures + r.StateViolations + r.SnapshotViolations + r.ManifestViolations
}

// crashHeadline flattens the matrix into the scalars crashGate reads.
func crashHeadline(rows []CrashRow) map[string]float64 {
	h := map[string]float64{"points": 0, "fired": 0, "torn_tails": 0, "adopted": 0, "violations": 0}
	for _, r := range rows {
		h["points"] += float64(r.Points)
		h["fired"] += float64(r.Fired)
		h["torn_tails"] += float64(r.TornTails)
		h["adopted"] += float64(r.Adopted)
		h["violations"] += float64(r.Violations())
	}
	return h
}

// crashGate: every trial in every mode recovered to a consistent state,
// and the matrix actually crashed something at every armed point.
var crashGate = gates(want("points", ">", 0), want("fired", "==", "points"), want("violations", "==", 0))

// crashJournalDir is the journal directory on the injected filesystem.
const crashJournalDir = "journal"

// crashSegBytes keeps journal segments tiny so the matrix exercises
// rotation and compaction, not just appends.
const crashSegBytes = 2048

// crashSnapPath is where the workload periodically saves the metadb
// JSON snapshot (the atomic-replace path under test).
const crashSnapPath = "db/meta.json"

// Crash runs the crash-point matrix: `points` uniformly sampled crash
// points per crash mode over the workload's mutating-operation budget.
// points <= 0 selects the default of 24.  The sampling is deterministic
// in seed.
func Crash(scale Scale, points int, seed int64) ([]CrashRow, error) {
	if points <= 0 {
		points = 24
	}
	// The clean run measures the op budget and proves the workload is
	// not vacuous (it stages, journals, checkpoints and saves).
	clean, err := crashOne(scale, faultfs.DropUnsynced, 0, seed)
	if err != nil {
		return nil, err
	}
	if clean.ops == 0 || clean.acked == 0 || clean.staged == 0 || clean.manifests == 0 {
		return nil, fmt.Errorf("crash: vacuous workload (ops %d, acked %d, staged %d, manifests %d)",
			clean.ops, clean.acked, clean.staged, clean.manifests)
	}
	if v := clean.violations(); v != 0 {
		return nil, fmt.Errorf("crash: clean run violated invariants (%d)", v)
	}
	rng := rand.New(rand.NewSource(seed))
	var rows []CrashRow
	for _, mode := range faultfs.Modes() {
		row := CrashRow{Mode: mode.String()}
		for j := 0; j < points; j++ {
			point := 1 + rng.Intn(clean.ops)
			t, err := crashOne(scale, mode, point, seed^int64(point)*7919+int64(j))
			if err != nil {
				return rows, err
			}
			row.Points++
			if t.fired {
				row.Fired++
			}
			if t.replayFailed {
				row.ReplayFailures++
			} else {
				row.Replays++
			}
			if t.tornTail {
				row.TornTails++
			}
			row.Adopted += t.adopted
			row.StateViolations += t.stateViolations
			row.SnapshotViolations += t.snapViolations
			row.ManifestViolations += t.manifestViolations
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// crashTrial is one run of the workload-crash-recover-verify cycle.
type crashTrial struct {
	ops       int // mutating ops the run performed (crash disarmed)
	fired     bool
	acked     int
	staged    int64
	manifests int
	adopted   int

	tornTail           bool
	replayFailed       bool
	stateViolations    int
	snapViolations     int
	manifestViolations int
}

func (t crashTrial) violations() int {
	n := t.stateViolations + t.snapViolations + t.manifestViolations
	if t.replayFailed {
		n++
	}
	return n
}

// crashMut is one deterministic metadb mutation.
type crashMut struct {
	desc string
	do   func(*metadb.DB) error
}

// crashMuts builds the mutation schedule: registrations, samples,
// constants and whole-curve rewrites, the full journaled surface.
func crashMuts(groups int) [][]crashMut {
	out := make([][]crashMut, groups)
	for i := 0; i < groups; i++ {
		i := i
		runID := fmt.Sprintf("run-%03d", i)
		g := []crashMut{
			{"putrun", func(db *metadb.DB) error {
				return db.PutRun(nil, metadb.Run{ID: runID, App: "astro3d", User: "shen", Iterations: 100 + i, Procs: 8})
			}},
			{"putdataset", func(db *metadb.DB) error {
				return db.PutDataset(nil, metadb.Dataset{
					RunID: runID, Name: "temp", AMode: "w", NDims: 3,
					Dims: []int{8 + i, 8, 8}, ETypeSize: 4, Pattern: "BBB",
					Location: "REMOTEDISK", Frequency: 6, Resource: "sdsc-disk",
					PathBase: runID,
				})
			}},
			{"addsample", func(db *metadb.DB) error {
				return db.AddSample(nil, metadb.PerfSample{
					Resource: "sdsc-disk", Op: "read",
					Size: int64(1024 << uint(i%8)), Seconds: 0.001 * float64(i+1),
				})
			}},
			{"setconstant", func(db *metadb.DB) error {
				return db.SetConstant(nil, metadb.PerfConstant{
					Resource: "sdsc-disk", Op: "read",
					Component: metadb.CompOpen, Seconds: 0.0001 * float64(i+1),
				})
			}},
		}
		if i%3 == 2 {
			// The calibration write-back path: replace a whole curve.
			samples := make([]metadb.PerfSample, 0, 3)
			for k := 0; k < 3; k++ {
				samples = append(samples, metadb.PerfSample{
					Size: int64(4096 << uint(k)), Seconds: 0.002 * float64(i+k+1),
				})
			}
			g = append(g, crashMut{"replacesamples", func(db *metadb.DB) error {
				return db.ReplaceSamples(nil, "sdsc-hpss", "write", samples)
			}})
		}
		out[i] = g
	}
	return out
}

// crashHomeContent is file i's deterministic home-tier bytes.
func crashHomeContent(i int) []byte {
	data := make([]byte, 1024+256*i)
	for j := range data {
		data[j] = byte(i*31 + j)
	}
	return data
}

// metadbCanon renders a database's canonical persisted form (sorted
// JSON), for state comparison.  The scratch filesystem is private and
// never crashes.
func metadbCanon(db *metadb.DB) (string, error) {
	scratch := faultfs.New()
	if err := db.SaveFS(scratch, "dump"); err != nil {
		return "", err
	}
	b, err := vfs.ReadFile(scratch, "dump")
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// crashReplayCanon applies the first n mutations to a fresh, journal-
// free database and canonicalizes it.
func crashReplayCanon(flat []crashMut, n int) (string, error) {
	db := metadb.New()
	for _, m := range flat[:n] {
		if err := m.do(db); err != nil {
			return "", fmt.Errorf("crash: shadow %s: %w", m.desc, err)
		}
	}
	return metadbCanon(db)
}

// crashOne runs the workload with a crash armed at the point-th
// mutating operation (0 = disarmed), recovers under mode, and verifies
// the invariants.  Returned errors are harness failures; invariant
// breaks are reported in the trial counters.
func crashOne(scale Scale, mode faultfs.CrashMode, point int, seed int64) (crashTrial, error) {
	var t crashTrial
	sim := vtime.NewVirtual()
	p := sim.NewProc("crash")

	// The home tier lives on plain memory — only the broker host (its
	// journal, snapshot and staging cache) crashes.
	home, err := remotedisk.New("sdsc-disk", memfs.New())
	if err != nil {
		return t, err
	}
	hsess, err := home.Connect(p)
	if err != nil {
		return t, err
	}
	groups := scale.Dumps()
	if groups < 8 {
		groups = 8
	}
	homeData := make(map[string][]byte, groups)
	for i := 0; i < groups; i++ {
		path := fmt.Sprintf("run/iter%06d", i)
		homeData[path] = crashHomeContent(i)
		if err := storage.PutFile(p, hsess, path, storage.ModeOverWrite, homeData[path]); err != nil {
			return t, err
		}
	}

	fsys := faultfs.New()
	db, err := metadb.OpenJournal(wal.Options{FS: fsys, Dir: crashJournalDir, SegmentBytes: crashSegBytes})
	if err != nil {
		return t, err
	}
	cache, err := localdisk.New("argonne-ssa", fsys.Store())
	if err != nil {
		return t, err
	}
	mgr, err := stage.New(stage.Config{Sim: sim, Cache: cache, Budget: 1 << 22})
	if err != nil {
		return t, err
	}
	defer mgr.Close()

	mutGroups := crashMuts(groups)
	var flat []crashMut
	for _, g := range mutGroups {
		flat = append(flat, g...)
	}

	// SetCrash counts from here, so the op budget the matrix samples
	// from must exclude the deterministic setup above.
	base := fsys.Ops()
	fsys.SetCrash(point)

	// The sequential workload.  acked counts metadb mutations whose
	// journal barrier completed; attempted additionally counts the one
	// in flight when the crash hit.  snapCanons collects the canonical
	// state at every snapshot-save attempt — atomic replace guarantees
	// the recovered file matches one of them (or the save never became
	// durable and the file is absent).
	attempted := 0
	var snapCanons []string
	savedOnce := false
work:
	for i := 0; i < groups; i++ {
		for _, m := range mutGroups[i] {
			attempted++
			if err := m.do(db); err != nil {
				if !fsys.Crashed() {
					return t, fmt.Errorf("crash: %s: %w", m.desc, err)
				}
				break work
			}
			t.acked++
		}
		pl := mgr.StageRead(p, home, hsess, fmt.Sprintf("run/iter%06d", i), int64(len(crashHomeContent(i))))
		if pl.Staged {
			t.staged++
		}
		pl.Release()
		if fsys.Crashed() {
			break
		}
		if i%3 == 2 {
			if err := mgr.SaveManifest(p); err != nil {
				if !fsys.Crashed() {
					return t, err
				}
				break
			}
			t.manifests++
		}
		if i%4 == 3 {
			canon, err := metadbCanon(db)
			if err != nil {
				return t, err
			}
			snapCanons = append(snapCanons, canon)
			if err := db.SaveFS(fsys, crashSnapPath); err != nil {
				if !fsys.Crashed() {
					return t, err
				}
				break
			}
			savedOnce = true
		}
		if i%5 == 4 {
			if err := db.Checkpoint(); err != nil {
				if !fsys.Crashed() {
					return t, err
				}
				break
			}
		}
	}
	if !fsys.Crashed() {
		// Clean completion path: checkpoint and close like srbd does.
		// The armed crash can still fire inside these — that is a
		// legitimate trial, not a harness failure.
		if err := db.Checkpoint(); err != nil && !fsys.Crashed() {
			return t, err
		}
		if !fsys.Crashed() {
			if err := mgr.SaveManifest(p); err != nil {
				if !fsys.Crashed() {
					return t, err
				}
			} else {
				t.manifests++
			}
		}
	}
	_ = db.CloseJournal()
	t.ops = fsys.Ops() - base
	t.fired = fsys.Crashed()

	// ---- Crash over; recover the machine and verify. ----
	rec := fsys.Recover(mode, seed)

	db2, err := metadb.OpenJournal(wal.Options{FS: rec, Dir: crashJournalDir, SegmentBytes: crashSegBytes})
	if err != nil {
		t.replayFailed = true
		return t, nil
	}
	defer db2.CloseJournal()
	if st, ok := db2.JournalStats(); ok && st.TornTailBytes > 0 {
		t.tornTail = true
	}

	// Invariant 2: the replayed state is the acked history, or the
	// acked history plus the single in-flight mutation.
	got, err := metadbCanon(db2)
	if err != nil {
		return t, err
	}
	wantAcked, err := crashReplayCanon(flat, t.acked)
	if err != nil {
		return t, err
	}
	match := got == wantAcked
	if !match && attempted > t.acked {
		wantInflight, err := crashReplayCanon(flat, t.acked+1)
		if err != nil {
			return t, err
		}
		match = got == wantInflight
	}
	if !match {
		t.stateViolations++
	}

	// Invariant 3: the JSON snapshot is a complete version from some
	// save attempt, never a torn mixture.
	if snapData, err := vfs.ReadFile(rec, crashSnapPath); err == nil {
		db3 := metadb.New()
		if lerr := db3.LoadFS(rec, crashSnapPath); lerr != nil {
			t.snapViolations++
		} else {
			canon, cerr := metadbCanon(db3)
			if cerr != nil {
				return t, cerr
			}
			found := false
			for _, want := range snapCanons {
				if canon == want {
					found = true
					break
				}
			}
			if !found || canon != string(snapData) {
				t.snapViolations++
			}
		}
	} else if savedOnce && mode != faultfs.DropUnsynced && !t.fired {
		// A completed save can only be missing if the crash predates
		// its directory barrier; with no crash it must exist.
		t.snapViolations++
	}

	// Invariant 4: a restarted staging manager adopts only cache
	// entries that byte-match their home instances.
	cache2, err := localdisk.New("argonne-ssa", rec.Store())
	if err != nil {
		return t, err
	}
	mgr2, err := stage.New(stage.Config{Sim: sim, Cache: cache2, Budget: 1 << 22})
	if err != nil {
		return t, err
	}
	defer mgr2.Close()
	p2 := sim.NewProc("crash-verify")
	adopted, err := mgr2.LoadManifest(p2, home)
	if err != nil {
		return t, err
	}
	t.adopted = adopted
	csess, err := cache2.Connect(p2)
	if err != nil {
		return t, err
	}
	for _, me := range mgr2.Manifest() {
		cached, err := storage.GetFile(p2, csess, me.Staged)
		if err != nil || !bytes.Equal(cached, homeData[me.Path]) {
			t.manifestViolations++
		}
	}
	return t, nil
}

// CrashString renders the crash-matrix table.
func CrashString(rows []CrashRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %-7s %-6s %-8s %-10s %-8s %-11s %-9s %-9s %s\n",
		"mode", "points", "fired", "replays", "torn_tails", "adopted", "replay_fail", "state_bad", "snap_bad", "manifest_bad")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %-7d %-6d %-8d %-10d %-8d %-11d %-9d %-9d %d\n",
			r.Mode, r.Points, r.Fired, r.Replays, r.TornTails, r.Adopted,
			r.ReplayFailures, r.StateViolations, r.SnapshotViolations, r.ManifestViolations)
	}
	if crashGate(crashHeadline(rows)) == nil {
		b.WriteString("all crash points recovered to a consistent state\n")
	} else {
		b.WriteString("RECOVERY INVARIANTS VIOLATED\n")
	}
	return b.String()
}
