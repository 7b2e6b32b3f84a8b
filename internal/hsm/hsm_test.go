package hsm

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/memfs"
	"repro/internal/metadb"
	"repro/internal/qos"
	"repro/internal/remotedisk"
	"repro/internal/storage"
	"repro/internal/tape"
	"repro/internal/vtime"
)

// testEnv is a capacity-managed disk pool in front of a tape library,
// all over in-memory stores.
type testEnv struct {
	sim  *vtime.Sim
	meta *metadb.DB
	pool storage.Backend
	lib  *tape.Library
	eng  *Engine
	p    *vtime.Proc
}

func newTestEnv(t *testing.T, cfg Config) *testEnv {
	t.Helper()
	sim := vtime.NewVirtual()
	meta := metadb.New()
	pool, err := remotedisk.New("pool", memfs.New())
	if err != nil {
		t.Fatal(err)
	}
	lib, err := tape.New(tape.Config{Name: "vault", Store: memfs.New()})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Sim = sim
	cfg.Meta = meta
	cfg.Pool = pool
	cfg.Tape = lib
	if cfg.PoolCapacity == 0 {
		cfg.PoolCapacity = 10_000
	}
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	return &testEnv{sim: sim, meta: meta, pool: pool, lib: lib, eng: eng, p: sim.NewProc("rank0")}
}

func (e *testEnv) put(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := e.eng.Put(e.p, path, data); err != nil {
		t.Fatalf("put %s: %v", path, err)
	}
}

func (e *testEnv) read(t *testing.T, path string) []byte {
	t.Helper()
	data, err := e.eng.Read(e.p, path)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return data
}

func (e *testEnv) state(t *testing.T, path string) string {
	t.Helper()
	s, err := e.eng.State(path)
	if err != nil {
		t.Fatalf("state %s: %v", path, err)
	}
	return s
}

// seed installs a lifecycle row with its copies in place, bypassing
// the engine's data plane, so tests can construct exact occupancy.
func (e *testEnv) seed(t *testing.T, path, state string, data []byte, lastAccess time.Duration) {
	t.Helper()
	row := metadb.Lifecycle{
		Pool: e.pool.Name(), Path: path, State: state,
		Bytes: int64(len(data)), LastAccess: int64(lastAccess),
	}
	if state == StateResident || state == StateDual {
		sess, err := e.pool.Connect(e.p)
		if err != nil {
			t.Fatal(err)
		}
		if err := storage.PutFile(e.p, sess, path, storage.ModeOverWrite, data); err != nil {
			t.Fatal(err)
		}
	}
	if state == StateDual || state == StateMigrated {
		sess, err := e.lib.Connect(e.p)
		if err != nil {
			t.Fatal(err)
		}
		row.TapePath = tapePath(row.Pool, path)
		if err := storage.PutFile(e.p, sess, row.TapePath, storage.ModeOverWrite, data); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.meta.PutLifecycle(nil, row); err != nil {
		t.Fatal(err)
	}
}

func pat(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i%97)
	}
	return b
}

func TestPutReadResident(t *testing.T) {
	e := newTestEnv(t, Config{})
	data := pat(100, 1)
	e.put(t, "a", data)
	if got := e.read(t, "a"); !bytes.Equal(got, data) {
		t.Fatal("read mismatch")
	}
	if s := e.state(t, "a"); s != StateResident {
		t.Fatalf("state = %s, want resident", s)
	}
	st := e.eng.Stats()
	if st.Hits != 1 || st.Misses != 0 || st.Recalls != 0 {
		t.Fatalf("stats = %+v, want 1 pool hit", st)
	}
}

func TestMigrationSweepAgesOutColdData(t *testing.T) {
	e := newTestEnv(t, Config{Policy: Policy{ColdAfter: time.Hour}})
	e.put(t, "cold", pat(200, 2))
	e.p.Advance(30 * time.Minute)
	e.put(t, "warm", pat(200, 3))
	e.p.Advance(45 * time.Minute) // cold idle 75m, warm idle 45m

	if err := e.eng.Tick(e.p); err != nil {
		t.Fatal(err)
	}
	if s := e.state(t, "cold"); s != StateDual {
		t.Fatalf("cold state = %s, want dual", s)
	}
	if s := e.state(t, "warm"); s != StateResident {
		t.Fatalf("warm state = %s, want resident", s)
	}
	st := e.eng.Stats()
	if st.Migrations != 1 || st.MigratedBytes != 200 {
		t.Fatalf("migrations = %d/%d bytes, want 1/200", st.Migrations, st.MigratedBytes)
	}
	// A read refreshes the cold clock: the dual copy reads from disk.
	if got := e.read(t, "cold"); !bytes.Equal(got, pat(200, 2)) {
		t.Fatal("dual read mismatch")
	}
	if e.eng.Stats().Recalls != 0 {
		t.Fatal("dual read must not recall")
	}
}

func TestReadKeepsDatasetWarm(t *testing.T) {
	e := newTestEnv(t, Config{Policy: Policy{ColdAfter: time.Hour}})
	e.put(t, "a", pat(50, 4))
	e.p.Advance(50 * time.Minute)
	e.read(t, "a") // refresh
	e.p.Advance(50 * time.Minute)
	if err := e.eng.Tick(e.p); err != nil {
		t.Fatal(err)
	}
	if s := e.state(t, "a"); s != StateResident {
		t.Fatalf("recently-read dataset migrated (state %s)", s)
	}
}

func TestRecallRoundTrip(t *testing.T) {
	e := newTestEnv(t, Config{PoolCapacity: 2000})
	data := pat(300, 5)
	e.seed(t, "x", StateMigrated, data, 0)

	got, err := e.eng.Read(e.p, "x")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("recall bytes mismatch")
	}
	st := e.eng.Stats()
	if st.Recalls != 1 || st.Misses != 1 || st.RecalledBytes != 300 {
		t.Fatalf("stats after recall = %+v", st)
	}
	if s := e.state(t, "x"); s != StateMigrated {
		t.Fatalf("state after recall = %s, want migrated", s)
	}
	if lat := e.eng.recallLat; len(lat) != 1 || lat[0] <= 0 {
		t.Fatalf("recall latency not recorded: %v", lat)
	}

	// Second read hits the warm recall cache on the pool: no new
	// recall, counted as a pool hit.
	if got := e.read(t, "x"); !bytes.Equal(got, data) {
		t.Fatal("warm recall read mismatch")
	}
	st = e.eng.Stats()
	if st.Recalls != 1 || st.Hits != 1 {
		t.Fatalf("warm read stats = %+v, want 1 recall + 1 hit", st)
	}
	if st.RecallP95 <= 0 {
		t.Fatal("recall p95 not reported")
	}
}

// TestGCAtExactHighWatermark pins the inclusive trigger: occupancy
// exactly at the high watermark starts a GC run that drains dual
// copies to the low watermark, lowest benefit first, and the purged
// data remains recallable byte-for-byte.
func TestGCAtExactHighWatermark(t *testing.T) {
	e := newTestEnv(t, Config{
		PoolCapacity: 1000,
		Policy:       Policy{HighWater: 0.8, LowWater: 0.5, ColdAfter: 100 * time.Hour},
	})
	for i := 0; i < 4; i++ {
		e.seed(t, fmt.Sprintf("d%d", i), StateDual, pat(200, byte(i)), time.Duration(i)*time.Minute)
	}
	// occupancy == 800 == high watermark exactly.
	if err := e.eng.Tick(e.p); err != nil {
		t.Fatal(err)
	}
	st := e.eng.Stats()
	if st.GCRuns != 1 {
		t.Fatalf("GCRuns = %d, want 1 (exactly-at-watermark must trigger)", st.GCRuns)
	}
	if st.PoolUsed > 500 {
		t.Fatalf("occupancy %d above low watermark 500 after GC", st.PoolUsed)
	}
	if st.GCPurged != 2 || st.GCBytes != 400 {
		t.Fatalf("purged %d/%d bytes, want 2/400", st.GCPurged, st.GCBytes)
	}
	// LRU order without a predictor: the oldest duals went first.
	for i, want := range []string{StateMigrated, StateMigrated, StateDual, StateDual} {
		if s := e.state(t, fmt.Sprintf("d%d", i)); s != want {
			t.Fatalf("d%d state = %s, want %s", i, s, want)
		}
	}
	if got := e.read(t, "d0"); !bytes.Equal(got, pat(200, 0)) {
		t.Fatal("purged dataset recall mismatch")
	}
}

// TestGCBelowHighWatermarkIdle is the complement: one byte under the
// watermark must not trigger.
func TestGCBelowHighWatermarkIdle(t *testing.T) {
	e := newTestEnv(t, Config{
		PoolCapacity: 1000,
		Policy:       Policy{HighWater: 0.8, LowWater: 0.5, ColdAfter: 100 * time.Hour},
	})
	e.seed(t, "d", StateDual, pat(799, 9), 0)
	if err := e.eng.Tick(e.p); err != nil {
		t.Fatal(err)
	}
	if st := e.eng.Stats(); st.GCRuns != 0 || st.GCPurged != 0 {
		t.Fatalf("GC ran below the watermark: %+v", st)
	}
}

// TestGCEmptyPool: a tick over an empty pool is a no-op, not a
// divide-by-zero or a phantom GC run.
func TestGCEmptyPool(t *testing.T) {
	e := newTestEnv(t, Config{PoolCapacity: 100})
	if err := e.eng.Tick(e.p); err != nil {
		t.Fatal(err)
	}
	st := e.eng.Stats()
	if st.GCRuns != 0 || st.GCStalls != 0 || st.Tracked != 0 {
		t.Fatalf("empty-pool tick not a no-op: %+v", st)
	}
}

// TestGCAllPinnedStalls: when every dataset above the watermark is
// pinned, GC must stall and report — not purge a pinned or last copy.
func TestGCAllPinnedStalls(t *testing.T) {
	e := newTestEnv(t, Config{
		PoolCapacity: 1000,
		Policy:       Policy{HighWater: 0.8, LowWater: 0.5, ColdAfter: time.Hour},
	})
	for i := 0; i < 3; i++ {
		path := fmt.Sprintf("p%d", i)
		e.seed(t, path, StateResident, pat(300, byte(i)), 0)
		e.eng.pin(path)
	}
	e.p.Advance(2 * time.Hour) // cold, but pinned
	if err := e.eng.Tick(e.p); err != nil {
		t.Fatal(err)
	}
	st := e.eng.Stats()
	if st.GCStalls != 1 {
		t.Fatalf("GCStalls = %d, want 1", st.GCStalls)
	}
	if st.GCPurged != 0 || st.Migrations != 0 {
		t.Fatalf("pinned data moved: %+v", st)
	}
	for i := 0; i < 3; i++ {
		if s := e.state(t, fmt.Sprintf("p%d", i)); s != StateResident {
			t.Fatalf("p%d state = %s, want resident", i, s)
		}
	}
	// Unpinning lets the next sweep make progress again.
	for i := 0; i < 3; i++ {
		e.eng.unpin(fmt.Sprintf("p%d", i))
	}
	if err := e.eng.Tick(e.p); err != nil {
		t.Fatal(err)
	}
	if st := e.eng.Stats(); st.Migrations == 0 {
		t.Fatalf("unpinned sweep made no progress: %+v", st)
	}
}

// TestGCStallsWhenTapeDown: resident data whose migration fails (the
// archive tier is down) must not be purged — migrate-before-purge
// means GC stalls instead of deleting the last copy.
func TestGCStallsWhenTapeDown(t *testing.T) {
	e := newTestEnv(t, Config{
		PoolCapacity: 1000,
		Policy:       Policy{HighWater: 0.8, LowWater: 0.5, ColdAfter: time.Hour},
	})
	for i := 0; i < 3; i++ {
		e.seed(t, fmt.Sprintf("r%d", i), StateResident, pat(300, byte(i)), 0)
	}
	e.p.Advance(2 * time.Hour)
	e.lib.SetDown(true)
	if err := e.eng.Tick(e.p); err != nil {
		t.Fatal(err)
	}
	st := e.eng.Stats()
	if st.GCStalls == 0 {
		t.Fatalf("GC did not stall with tape down: %+v", st)
	}
	if st.GCPurged != 0 {
		t.Fatal("GC purged a last copy")
	}
	if st.MigrateFailures == 0 {
		t.Fatal("migration failures not counted")
	}
	for i := 0; i < 3; i++ {
		path := fmt.Sprintf("r%d", i)
		if s := e.state(t, path); s != StateResident {
			t.Fatalf("%s state = %s, want resident", path, s)
		}
		if got := e.read(t, path); !bytes.Equal(got, pat(300, byte(i))) {
			t.Fatalf("%s unreadable after stalled GC", path)
		}
	}
	// Tape back up: the stalled work completes.
	e.lib.SetDown(false)
	if err := e.eng.Tick(e.p); err != nil {
		t.Fatal(err)
	}
	if st := e.eng.Stats(); st.PoolUsed > 500 {
		t.Fatalf("occupancy %d above low watermark after recovery tick", st.PoolUsed)
	}
}

// TestMigrateBeforePurge: GC against a pool of resident-only datasets
// first copies the victim to tape, then purges — the dataset stays
// readable throughout.
func TestMigrateBeforePurge(t *testing.T) {
	e := newTestEnv(t, Config{
		PoolCapacity: 1000,
		Policy:       Policy{HighWater: 0.8, LowWater: 0.5, ColdAfter: 100 * time.Hour},
	})
	for i := 0; i < 3; i++ {
		e.seed(t, fmt.Sprintf("r%d", i), StateResident, pat(300, byte(i)), time.Duration(i)*time.Minute)
	}
	if err := e.eng.Tick(e.p); err != nil {
		t.Fatal(err)
	}
	st := e.eng.Stats()
	if st.GCRuns != 1 || st.GCPurged == 0 {
		t.Fatalf("gc = %+v", st)
	}
	if st.Migrations != st.GCPurged {
		t.Fatalf("purged %d but migrated %d — a last copy was deleted", st.GCPurged, st.Migrations)
	}
	for i := 0; i < 3; i++ {
		path := fmt.Sprintf("r%d", i)
		if got := e.read(t, path); !bytes.Equal(got, pat(300, byte(i))) {
			t.Fatalf("%s corrupted by migrate-before-purge", path)
		}
	}
}

func TestPutOverCapacityCollects(t *testing.T) {
	e := newTestEnv(t, Config{
		PoolCapacity: 1000,
		Policy:       Policy{HighWater: 0.8, LowWater: 0.5, ColdAfter: 100 * time.Hour},
	})
	for i := 0; i < 6; i++ {
		e.put(t, fmt.Sprintf("f%d", i), pat(250, byte(i)))
	}
	st := e.eng.Stats()
	if st.GCRuns == 0 {
		t.Fatalf("puts past the watermark never collected: %+v", st)
	}
	for i := 0; i < 6; i++ {
		path := fmt.Sprintf("f%d", i)
		if got := e.read(t, path); !bytes.Equal(got, pat(250, byte(i))) {
			t.Fatalf("%s lost across put-triggered GC", path)
		}
	}
}

func TestRemoveDropsAllCopiesAndDrivesRepack(t *testing.T) {
	e := newTestEnv(t, Config{
		PoolCapacity: 10_000,
		Policy:       Policy{ColdAfter: time.Hour, RepackWaste: 0.3},
	})
	keep := pat(200, 7)
	e.put(t, "keep", keep)
	for i := 0; i < 4; i++ {
		e.put(t, fmt.Sprintf("junk%d", i), pat(400, byte(i)))
	}
	e.p.Advance(2 * time.Hour)
	if err := e.eng.Tick(e.p); err != nil { // everything migrates to dual
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := e.eng.Remove(e.p, fmt.Sprintf("junk%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.eng.Read(e.p, "junk0"); !errors.Is(err, metadb.ErrNotFound) {
		t.Fatalf("removed dataset still readable: %v", err)
	}
	// 1600 dead tape bytes vs 200 live: the next sweep repacks.
	if err := e.eng.Tick(e.p); err != nil {
		t.Fatal(err)
	}
	st := e.eng.Stats()
	if st.Repacks != 1 || st.RepackBytes == 0 {
		t.Fatalf("repack = %d/%d bytes, want 1 run", st.Repacks, st.RepackBytes)
	}
	if _, _, wasted := e.lib.Stats(); wasted != 0 {
		t.Fatalf("wasted = %d after repack", wasted)
	}
	// The surviving tape copy moved cartridges but stays correct.
	e.eng.pin("keep") // keep the disk copy out of GC's way
	defer e.eng.unpin("keep")
	if got := e.read(t, "keep"); !bytes.Equal(got, keep) {
		t.Fatal("survivor corrupted by repack")
	}
}

// TestRecoverMapsTransientStates: journal replay can surface the
// in-flight markers; Recover must map them to the state whose copy is
// authoritative.
func TestRecoverMapsTransientStates(t *testing.T) {
	e := newTestEnv(t, Config{})
	e.seed(t, "m", StateResident, pat(100, 1), 0)
	row, _ := e.meta.GetLifecycle(nil, "pool", "m")
	row.State = StateMigrating
	row.TapePath = "hsm/pool/m"
	if err := e.meta.PutLifecycle(nil, row); err != nil {
		t.Fatal(err)
	}
	e.seed(t, "r", StateMigrated, pat(100, 2), 0)
	row, _ = e.meta.GetLifecycle(nil, "pool", "r")
	row.State = StateRecalling
	if err := e.meta.PutLifecycle(nil, row); err != nil {
		t.Fatal(err)
	}
	e.seed(t, "ok", StateDual, pat(100, 3), 0)

	fixed, err := e.eng.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if fixed != 2 {
		t.Fatalf("fixed = %d, want 2", fixed)
	}
	if s := e.state(t, "m"); s != StateResident {
		t.Fatalf("migrating recovered to %s, want resident", s)
	}
	if row, _ := e.meta.GetLifecycle(nil, "pool", "m"); row.TapePath != "" {
		t.Fatal("recovered resident row kept a tape path")
	}
	if s := e.state(t, "r"); s != StateMigrated {
		t.Fatalf("recalling recovered to %s, want migrated", s)
	}
	if s := e.state(t, "ok"); s != StateDual {
		t.Fatalf("dual disturbed by recovery: %s", s)
	}
	// The recovered datasets are readable through their safe copies.
	if got := e.read(t, "m"); !bytes.Equal(got, pat(100, 1)) {
		t.Fatal("recovered resident unreadable")
	}
	if got := e.read(t, "r"); !bytes.Equal(got, pat(100, 2)) {
		t.Fatal("recovered migrated unreadable")
	}
}

// TestRequeueRestoresResident covers the sweep's generation-change
// path: requeued members return to resident with no tape path and are
// retried by the next sweep.
func TestRequeueRestoresResident(t *testing.T) {
	e := newTestEnv(t, Config{Policy: Policy{ColdAfter: time.Hour}})
	e.seed(t, "q", StateResident, pat(100, 1), 0)
	row, _ := e.meta.GetLifecycle(nil, "pool", "q")
	row.State = StateMigrating
	if err := e.meta.PutLifecycle(nil, row); err != nil {
		t.Fatal(err)
	}
	if err := e.eng.requeue([]metadb.Lifecycle{row}); err != nil {
		t.Fatal(err)
	}
	if s := e.state(t, "q"); s != StateResident {
		t.Fatalf("requeued state = %s, want resident", s)
	}
	if st := e.eng.Stats(); st.Requeued != 1 {
		t.Fatalf("Requeued = %d, want 1", st.Requeued)
	}
	e.p.Advance(2 * time.Hour)
	if err := e.eng.Tick(e.p); err != nil {
		t.Fatal(err)
	}
	if s := e.state(t, "q"); s != StateDual {
		t.Fatalf("requeued member not retried: %s", s)
	}
}

// TestMigrationBatchesThroughQoS wires a live scheduler: one sweep's
// tape writes must form a single staging-cartridge batch.
func TestMigrationBatchesThroughQoS(t *testing.T) {
	sim := vtime.NewVirtual()
	meta := metadb.New()
	pool, err := remotedisk.New("pool", memfs.New())
	if err != nil {
		t.Fatal(err)
	}
	lib, err := tape.New(tape.Config{Name: "vault", Store: memfs.New()})
	if err != nil {
		t.Fatal(err)
	}
	sched, err := qos.New(qos.Config{Tape: lib, MaxInFlight: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sched.Close()
	eng, err := New(Config{
		Sim: sim, Meta: meta, Pool: pool, Tape: lib, QoS: sched,
		PoolCapacity: 100_000, Policy: Policy{ColdAfter: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	p := sim.NewProc("rank0")
	for i := 0; i < 4; i++ {
		if err := eng.Put(p, fmt.Sprintf("f%d", i), pat(500, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	p.Advance(2 * time.Hour)
	if err := eng.Tick(p); err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats(); st.Migrations != 4 {
		t.Fatalf("migrations = %d, want 4", st.Migrations)
	}
	qst := sched.Stats()
	if qst.Batches != 1 || qst.Batched != 4 {
		t.Fatalf("qos batches = %d/%d members, want one batch of 4", qst.Batches, qst.Batched)
	}
	if len(qst.Tenants) != 1 || qst.Tenants[0].Tenant != "hsm" ||
		qst.Tenants[0].Granted != 4 || qst.Tenants[0].Done != 4 {
		t.Fatalf("tenant stats = %+v", qst.Tenants)
	}
	for i := 0; i < 4; i++ {
		if data, err := eng.Read(p, fmt.Sprintf("f%d", i)); err != nil || !bytes.Equal(data, pat(500, byte(i))) {
			t.Fatalf("f%d mismatch after batched migration: %v", i, err)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	sim := vtime.NewVirtual()
	pool, _ := remotedisk.New("pool", memfs.New())
	lib, _ := tape.New(tape.Config{Name: "vault", Store: memfs.New()})
	base := Config{Sim: sim, Meta: metadb.New(), Pool: pool, Tape: lib, PoolCapacity: 1000}
	for name, mut := range map[string]func(*Config){
		"nil sim":       func(c *Config) { c.Sim = nil },
		"nil meta":      func(c *Config) { c.Meta = nil },
		"nil pool":      func(c *Config) { c.Pool = nil },
		"nil tape":      func(c *Config) { c.Tape = nil },
		"zero capacity": func(c *Config) { c.PoolCapacity = 0 },
		"bad watermark": func(c *Config) { c.Policy = Policy{HighWater: 0.3, LowWater: 0.6} },
	} {
		c := base
		mut(&c)
		if _, err := New(c); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	eng, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	eng.Close()
	// A zero policy takes the defaults, except RepackWaste where zero
	// means "repacking disabled".
	if eng.Policy() != (Policy{}).withDefaults() {
		t.Fatalf("zero policy not defaulted: %+v", eng.Policy())
	}
}

// TestPercentileRank pins the nearest-rank index math of the shared
// percentile helper (and recallP95, which delegates to it): rank
// ⌈n·95/100⌉, clamped to the last sample, 1-based.
func TestPercentileRank(t *testing.T) {
	cases := []struct {
		n        int
		wantRank int // 0-based index into the sorted samples
	}{
		{1, 0},    // ⌈0.95⌉ = 1 → index 0
		{19, 18},  // ⌈18.05⌉ = 19 → index 18 (the max)
		{20, 18},  // ⌈19.0⌉ = 19 → index 18 (not 19: p95 of 20 excludes the max)
		{100, 94}, // ⌈95.0⌉ = 95 → index 94
	}
	for _, c := range cases {
		// Shuffled-order samples 1ms..n·ms so sortedness is the helper's job:
		// value at sorted index i is (i+1)·ms.
		lat := make([]time.Duration, 0, c.n)
		for v := c.n; v >= 1; v-- {
			lat = append(lat, time.Duration(v)*time.Millisecond)
		}
		want := time.Duration(c.wantRank+1) * time.Millisecond
		if got := Percentile(lat, 95); got != want {
			t.Errorf("Percentile(n=%d, 95) = %v, want sorted index %d = %v", c.n, got, c.wantRank, want)
		}
		e := &Engine{recallLat: append([]time.Duration(nil), lat...)}
		if got := e.recallP95(); got != want {
			t.Errorf("recallP95(n=%d) = %v, want %v", c.n, got, want)
		}
		if lat[0] != time.Duration(c.n)*time.Millisecond {
			t.Fatalf("Percentile mutated its input: %v", lat[0])
		}
	}
	if got := Percentile(nil, 95); got != 0 {
		t.Errorf("Percentile(nil) = %v, want 0", got)
	}
}

// TestNoteRecallHalvesAtCap pins the recall-latency window bound: the
// slice grows to 1<<14 samples, and the append that would exceed the
// cap drops the oldest half.
func TestNoteRecallHalvesAtCap(t *testing.T) {
	const cap = 1 << 14
	e := &Engine{}
	for i := 0; i < cap; i++ {
		e.noteRecall(time.Duration(i) * time.Microsecond)
	}
	if len(e.recallLat) != cap {
		t.Fatalf("window halved early: len = %d at the cap", len(e.recallLat))
	}
	e.noteRecall(time.Duration(cap) * time.Microsecond)
	// len was cap+1 > cap, so the oldest (cap+1)/2 samples are dropped.
	wantLen := (cap + 1) - (cap+1)/2
	if len(e.recallLat) != wantLen {
		t.Fatalf("after cap+1 appends len = %d, want %d", len(e.recallLat), wantLen)
	}
	if got, want := e.recallLat[0], time.Duration((cap+1)/2)*time.Microsecond; got != want {
		t.Fatalf("oldest surviving sample = %v, want %v (newest half kept)", got, want)
	}
	if got, want := e.recallLat[len(e.recallLat)-1], time.Duration(cap)*time.Microsecond; got != want {
		t.Fatalf("newest sample = %v, want %v", got, want)
	}
}
