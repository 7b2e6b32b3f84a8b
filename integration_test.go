package msra_test

import (
	"testing"
	"time"

	"repro/internal/apps/astro3d"
	"repro/internal/apps/mse"
	"repro/internal/apps/volren"
	"repro/internal/core"
	"repro/internal/localdisk"
	"repro/internal/memfs"
	"repro/internal/metadb"
	"repro/internal/model"
	"repro/internal/remotedisk"
	"repro/internal/srb"
	"repro/internal/srbnet"
	"repro/internal/storage"
	"repro/internal/tape"
	"repro/internal/vtime"
)

// TestPipelineOverTCP runs the whole simulation environment with every
// remote resource reached across real TCP through the SRB protocol:
// the strongest end-to-end statement that the layers compose — virtual
// time, device contention, collective I/O and the applications all
// survive the wire.
func TestPipelineOverTCP(t *testing.T) {
	sim := vtime.NewVirtual()

	// Server side: remote disk and tape behind a broker.
	broker := srb.NewBroker()
	rdisk, err := remotedisk.New("sdsc-disk", memfs.New())
	if err != nil {
		t.Fatal(err)
	}
	rtape, err := tape.New(tape.Config{Name: "sdsc-hpss", Params: model.RemoteTape2000(), Store: memfs.New()})
	if err != nil {
		t.Fatal(err)
	}
	if err := broker.Register(rdisk); err != nil {
		t.Fatal(err)
	}
	if err := broker.Register(rtape); err != nil {
		t.Fatal(err)
	}
	broker.AddUser("shen", "nwu")
	srv, err := srbnet.Serve("127.0.0.1:0", broker, sim)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.SetLogf(func(string, ...any) {})

	// Client side: local disk in-process, remote resources over TCP.
	local, err := localdisk.New("argonne-ssa", memfs.New())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(core.SystemConfig{
		Sim:        sim,
		Meta:       metadb.New(),
		LocalDisk:  local,
		RemoteDisk: srbnet.NewClient(srv.Addr(), "shen", "nwu", "sdsc-disk", storage.KindRemoteDisk),
		RemoteTape: srbnet.NewClient(srv.Addr(), "shen", "nwu", "sdsc-hpss", storage.KindRemoteTape),
	})
	if err != nil {
		t.Fatal(err)
	}

	rep, err := astro3d.Run(sys, "sim", astro3d.Params{
		Nx: 8, Ny: 8, Nz: 8, MaxIter: 6,
		AnalysisFreq: 3, VizFreq: 3, Procs: 2,
		Locations: map[string]core.Location{
			"temp":    core.LocRemoteDisk,
			"vr_temp": core.LocLocalDisk,
			"press":   core.LocRemoteTape,
		},
		DefaultLocation: core.LocDisable,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Dumps != 3*3 {
		t.Fatalf("dumps = %d, want 9", rep.Dumps)
	}
	if rep.IOTime <= 0 {
		t.Fatal("no I/O time over TCP")
	}

	// Analysis reads temp back across the wire.
	res, err := mse.Run(sys, "mse", mse.Params{
		ProducerRun: "sim", Dataset: "temp", Iterations: 6, Procs: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) != 3 || res.MSE[1] <= 0 {
		t.Fatalf("MSE over TCP = %v / %v", res.Steps, res.MSE)
	}

	// Volren reads the local volume and writes images to the remote disk
	// over TCP.
	vres, err := volren.Run(sys, "volren", volren.Params{
		ProducerRun: "sim", Dataset: "vr_temp", Iterations: 6, Procs: 2,
		ImageLocation: core.LocRemoteDisk,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(vres.Images) != 3 {
		t.Fatalf("images over TCP = %d", len(vres.Images))
	}
}

// TestScaledTimeSmoke exercises the wall-clock-sleeping mode end to end
// at a very small scale factor.
func TestScaledTimeSmoke(t *testing.T) {
	sim := vtime.NewScaled(1e-7) // 10 s simulated = 1 µs wall
	local, err := localdisk.New("l", memfs.New())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(core.SystemConfig{Sim: sim, Meta: metadb.New(), LocalDisk: local})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := astro3d.Run(sys, "sim", astro3d.Params{
		Nx: 8, Ny: 8, Nz: 8, MaxIter: 3, AnalysisFreq: 3, Procs: 2,
		DefaultLocation: core.LocLocalDisk,
	}); err != nil {
		t.Fatal(err)
	}
	if wall := time.Since(start); wall > 30*time.Second {
		t.Fatalf("scaled run took %v of wall time", wall)
	}
}
