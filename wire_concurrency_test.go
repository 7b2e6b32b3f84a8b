package msra_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/ioopt"
	"repro/internal/memfs"
	"repro/internal/metadb"
	"repro/internal/pattern"
	"repro/internal/remotedisk"
	"repro/internal/srb"
	"repro/internal/srbnet"
	"repro/internal/storage"
	"repro/internal/vtime"
)

// TestConcurrentRanksOverWire drives 8-rank WriteIter/ReadIter through
// an srbnet backend for every run-time optimization: all ranks issue
// wire RPCs concurrently through the one shared session, multiplexed
// over the pooled connections.  Run under -race (the CI workflow does),
// this is the concurrency statement for the wire layer; the byte checks
// are the correctness statement.
func TestConcurrentRanksOverWire(t *testing.T) {
	sim := vtime.NewVirtual()
	broker := srb.NewBroker()
	rdisk, err := remotedisk.New("sdsc-disk", memfs.New())
	if err != nil {
		t.Fatal(err)
	}
	if err := broker.Register(rdisk); err != nil {
		t.Fatal(err)
	}
	broker.AddUser("shen", "nwu")
	srv, err := srbnet.Serve("127.0.0.1:0", broker, sim)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.SetLogf(func(string, ...any) {})

	client := srbnet.NewClient(srv.Addr(), "shen", "nwu", "sdsc-disk", storage.KindRemoteDisk)
	defer client.Close()
	sys, err := core.NewSystem(core.SystemConfig{
		Sim: sim, Meta: metadb.New(), RemoteDisk: client,
	})
	if err != nil {
		t.Fatal(err)
	}
	run, err := sys.Initialize(core.RunConfig{ID: "wire", Iterations: 6, Procs: 8})
	if err != nil {
		t.Fatal(err)
	}
	pat, err := pattern.Parse("B**")
	if err != nil {
		t.Fatal(err)
	}

	opts := []ioopt.Kind{
		ioopt.Collective, ioopt.Naive, ioopt.DataSieving, ioopt.Subfile, ioopt.Superfile,
	}
	for _, opt := range opts {
		ds, err := run.OpenDataset(core.DatasetSpec{
			Name: fmt.Sprintf("wire-%s", opt), AMode: storage.ModeCreate,
			Dims: []int{16, 16, 16}, Etype: 4,
			Pattern: pat, Location: core.LocRemoteDisk, Frequency: 6, Opt: opt,
		})
		if err != nil {
			t.Fatalf("%v: %v", opt, err)
		}
		bufs := make([][]byte, 8)
		for r := range bufs {
			n, err := ds.LocalSize(r)
			if err != nil {
				t.Fatalf("%v: %v", opt, err)
			}
			bufs[r] = bytes.Repeat([]byte{byte(r + 1)}, int(n))
		}
		for iter := 0; iter <= 6; iter += 6 {
			if err := ds.WriteIter(iter, bufs); err != nil {
				t.Fatalf("%v write iter %d: %v", opt, iter, err)
			}
		}
		got := make([][]byte, 8)
		for r := range got {
			got[r] = make([]byte, len(bufs[r]))
		}
		if err := ds.ReadIter(6, got); err != nil {
			t.Fatalf("%v read: %v", opt, err)
		}
		for r := range got {
			if !bytes.Equal(got[r], bufs[r]) {
				t.Fatalf("%v rank %d bytes corrupted over the wire", opt, r)
			}
		}
		viewer := sim.NewProc(fmt.Sprintf("viewer-%s", opt))
		global, err := ds.ReadGlobal(viewer, 6)
		if err != nil {
			t.Fatalf("%v global: %v", opt, err)
		}
		if len(global) != 16*16*16*4 {
			t.Fatalf("%v global = %d bytes", opt, len(global))
		}
	}
	if run.IOTime() <= 0 {
		t.Fatal("no I/O time accrued over the wire")
	}
	if err := run.Finalize(); err != nil {
		t.Fatal(err)
	}
}
