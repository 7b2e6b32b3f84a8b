package experiments

import (
	"testing"

	"repro/internal/apps/astro3d"
	"repro/internal/core"
	"repro/internal/flaky"
	"repro/internal/localdisk"
	"repro/internal/memfs"
	"repro/internal/metadb"
	"repro/internal/remotedisk"
	"repro/internal/resilient"
	"repro/internal/vtime"
)

// TestChaosCompletesWithBoundedOverhead is the acceptance scenario:
// at a 1 % injected transient fault rate the Astro3D run completes,
// every fault is retried, and the virtual-time overhead stays bounded.
func TestChaosCompletesWithBoundedOverhead(t *testing.T) {
	rows, err := Chaos(TestScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	base, faulty := rows[0], rows[1]
	if !base.Completed || base.Injected != 0 {
		t.Fatalf("baseline = %+v", base)
	}
	if !faulty.Completed {
		t.Fatalf("1%% fault run failed: %s", faulty.Err)
	}
	if faulty.Injected == 0 {
		t.Fatal("no faults injected at 1%")
	}
	if faulty.Retries != faulty.Injected {
		t.Fatalf("retries = %d, injected = %d: some faults not recovered in one attempt", faulty.Retries, faulty.Injected)
	}
	if faulty.IOTime <= base.IOTime {
		t.Fatal("recovery charged no virtual time")
	}
	// Bounded: recovery must not blow the run up (the schedule charges
	// well under one retry-backoff per operation at 1 %).
	if faulty.Overhead > 0.5 {
		t.Fatalf("overhead %.0f%% at a 1%% fault rate", faulty.Overhead*100)
	}
}

// TestAstro3DCheckpointRecovery drives the checkpoint loop over a
// flaky remote disk wrapped by the resilience layer: the run must
// complete and the wrapper's retry count must equal the injected fault
// count (every 20th remote operation fails, each recovered on the
// first retry).
func TestAstro3DCheckpointRecovery(t *testing.T) {
	local, err := localdisk.New("l", memfs.New())
	if err != nil {
		t.Fatal(err)
	}
	rdisk, err := remotedisk.New("r", memfs.New())
	if err != nil {
		t.Fatal(err)
	}
	fb := flaky.Wrap(rdisk, flaky.Policy{FailEvery: 20})
	rb := resilient.Wrap(fb)
	sys, err := core.NewSystem(core.SystemConfig{
		Sim: vtime.NewVirtual(), Meta: metadb.New(),
		LocalDisk: local, RemoteDisk: rb,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := TestScale()
	prm := s.params()
	prm.AnalysisFreq, prm.VizFreq = 0, 0 // checkpoint datasets only
	prm.DefaultLocation = core.LocRemoteDisk
	if _, err := astro3d.Run(sys, "ckpt", prm); err != nil {
		t.Fatalf("checkpoint loop did not survive the fault schedule: %v", err)
	}
	st := rb.Stats()
	if fb.Injected() == 0 {
		t.Fatal("fault schedule never fired")
	}
	if st.Retries != fb.Injected() {
		t.Fatalf("retries = %d, injected = %d", st.Retries, fb.Injected())
	}
	if st.FastFails != 0 {
		t.Fatalf("breaker shed %d calls during a recoverable schedule", st.FastFails)
	}
}
