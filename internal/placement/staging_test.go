package placement

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/localdisk"
	"repro/internal/memfs"
	"repro/internal/metadb"
	"repro/internal/model"
	"repro/internal/predict"
	"repro/internal/ptool"
	"repro/internal/remotedisk"
	"repro/internal/resilient"
	"repro/internal/stage"
	"repro/internal/storage"
	"repro/internal/tape"
	"repro/internal/vtime"
)

// stagingFixture builds the three-resource system with a bounded local
// disk and a staging engine caching on it, then a predictive placer
// composed from the given extra options.
func stagingFixture(t *testing.T, localCap, budget int64, extra func(*predict.DB, *stage.Manager) []Option) (*fixture, *stage.Manager) {
	t.Helper()
	sim := vtime.NewVirtual()
	local, err := localdisk.New("ssa", memfs.New(), func(c *device.Config) { c.Capacity = localCap })
	if err != nil {
		t.Fatal(err)
	}
	rdisk, err := remotedisk.New("sdsc-disk", memfs.New())
	if err != nil {
		t.Fatal(err)
	}
	rtape, err := tape.New(tape.Config{Name: "sdsc-hpss", Params: model.RemoteTape2000(), Store: memfs.New()})
	if err != nil {
		t.Fatal(err)
	}
	meta := metadb.New()
	if _, err := ptool.MeasureAll(vtime.NewVirtual(), meta, ptool.Config{Repeats: 1}, local, rdisk, rtape); err != nil {
		t.Fatal(err)
	}
	pdb := predict.NewDB(meta)
	mgr, err := stage.New(stage.Config{Sim: sim, Cache: local, Budget: budget, PDB: pdb})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mgr.Close)
	options := []Option{WithStaging(mgr)}
	if extra != nil {
		options = append(options, extra(pdb, mgr)...)
	}
	sys, err := core.NewSystem(core.SystemConfig{
		Sim: sim, Meta: metadb.New(),
		LocalDisk: local, RemoteDisk: rdisk, RemoteTape: rtape,
		Placer: Predictive(pdb, 120, 8, options...),
		Stager: mgr,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{sys: sys, pdb: pdb, rtape: rtape}, mgr
}

// TestStagingBudgetExcludesFastTier composes WithRequirement +
// WithHealth + WithStaging: the dataset's 21 dumps fit the raw local
// disk, but the stage cache budget consumes that headroom, so AUTO must
// not pick the local disk even under a requirement only the local disk
// could meet — and with every remote circuit open placement must fail
// over rather than land on the reserved tier.
func TestStagingBudgetExcludesFastTier(t *testing.T) {
	s := spec("a")
	s.AMode = storage.ModeRead
	dumps := int64(120/s.Frequency + 1)
	total := dumps * s.Size()

	// Local disk fits the run alone, but not alongside the cache budget.
	localCap := total + s.Size()
	budget := 2 * s.Size()

	health := resilient.NewHealth(resilient.BreakerConfig{})
	f, _ := stagingFixture(t, localCap, budget, func(pdb *predict.DB, m *stage.Manager) []Option {
		return []Option{WithRequirement(time.Second), WithHealth(health)}
	})
	got := place(t, f, s)
	if got.Kind() == storage.KindLocalDisk {
		t.Fatalf("AUTO picked the local disk whose headroom the stage cache consumes")
	}

	// Control: without the staging reservation the same requirement
	// picks the local disk.
	f2 := newFixture(t, func(pdb *predict.DB) core.Placer {
		return Predictive(pdb, 120, 8, WithRequirement(time.Second), WithHealth(health))
	})
	s2 := s
	s2.Name = "b"
	if got := place(t, f2, s2); got.Kind() != storage.KindLocalDisk {
		t.Fatalf("control placed on %v, want local disk", got.Kind())
	}
}

// TestStagingMakesTapeAttractive gives AUTO a requirement that direct
// tape access cannot meet: with WithStaging the tape's effective time
// is the staged path (stage in once, re-read at local speed), so AUTO
// keeps the archival home instead of falling to a smaller tier.
func TestStagingMakesTapeAttractive(t *testing.T) {
	s := spec("a")
	s.AMode = storage.ModeRead

	// Find a requirement between the staged-tape and direct-tape
	// predictions.
	f, mgr := stagingFixture(t, 0, 4*s.Size(), nil)
	req := predict.DatasetReq{
		Name: s.Name, AMode: "read", Dims: s.Dims, Etype: s.Etype,
		Pattern: "BBB", Location: storage.KindRemoteTape.String(),
		Frequency: s.Frequency, Opt: s.Opt, Procs: 8,
	}
	direct, err := f.pdb.PredictDataset(req, 120)
	if err != nil {
		t.Fatal(err)
	}
	first, hit, err := mgr.PredictStagedRead(req, 120)
	if err != nil {
		t.Fatal(err)
	}
	n := time.Duration(mgr.ExpectedReads())
	staged := (first + (n-1)*hit) / n
	if staged >= direct.VirtualTime {
		t.Fatalf("staged tape path (%v) not predicted faster than direct (%v)", staged, direct.VirtualTime)
	}
	deadline := staged + (direct.VirtualTime-staged)/2

	f2, _ := stagingFixture(t, 0, 4*s.Size(), func(pdb *predict.DB, m *stage.Manager) []Option {
		return []Option{WithRequirement(deadline)}
	})
	if got := place(t, f2, s); got.Kind() != storage.KindRemoteTape {
		t.Fatalf("placed on %v, want tape home with staged reads", got.Kind())
	}

	// Without staging the same deadline abandons the tape.
	f3 := newFixture(t, func(pdb *predict.DB) core.Placer {
		return Predictive(pdb, 120, 8, WithRequirement(deadline))
	})
	s3 := s
	s3.Name = "b"
	if got := place(t, f3, s3); got.Kind() == storage.KindRemoteTape {
		t.Fatal("control placed on tape without the staged path")
	}
}
