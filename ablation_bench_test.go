// Ablation benchmarks for the design choices behind the reproduction:
// the run-time optimization strategies against each storage class, the
// SSA channel count of the local-disk model, the tape library's drive
// count, and the superfile's sensitivity to the number of small
// files.  Each reports the simulated cost as virt-s, so the trade-offs
// read directly off `go test -bench Ablation`.
package msra_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/collective"
	"repro/internal/device"
	"repro/internal/ioopt"
	"repro/internal/localdisk"
	"repro/internal/memfs"
	"repro/internal/model"
	"repro/internal/pattern"
	"repro/internal/remotedisk"
	"repro/internal/sieve"
	"repro/internal/srb"
	"repro/internal/srbnet"
	"repro/internal/storage"
	"repro/internal/subfile"
	"repro/internal/superfile"
	"repro/internal/tape"
	"repro/internal/vtime"
)

// writeOnce performs one parallel dataset write with the given
// optimization against the backend and returns the simulated cost.
func writeOnce(b *testing.B, be storage.Backend, opt ioopt.Kind) time.Duration {
	b.Helper()
	dims := []int{32, 32, 32}
	etype := 4
	pat, err := pattern.Parse("**B")
	if err != nil {
		b.Fatal(err)
	}
	grid := pattern.Grid{1, 1, 8}
	sim := vtime.NewVirtual()
	procs := sim.NewProcs("r", 8)
	sess, err := be.Connect(procs[0])
	if err != nil {
		b.Fatal(err)
	}
	vtime.Barrier(procs...)
	bufs := make([][]byte, 8)
	runs := make([][]pattern.Run, 8)
	for r := range bufs {
		sets, err := pattern.IndexSets(dims, pat, grid, r)
		if err != nil {
			b.Fatal(err)
		}
		runs[r] = pattern.FileRuns(dims, etype, sets)
		var n int64
		for _, run := range runs[r] {
			n += run.Len
		}
		bufs[r] = make([]byte, n)
	}
	op := collective.Op{Dims: dims, Etype: etype, Pat: pat, Grid: grid}
	switch opt {
	case ioopt.Collective, ioopt.Naive, ioopt.DataSieving:
		h, err := sess.Open(procs[0], "ds", storage.ModeCreate)
		if err != nil {
			b.Fatal(err)
		}
		vtime.Barrier(procs...)
		hs := make([]storage.Handle, 8)
		for i := range hs {
			hs[i] = h
		}
		switch opt {
		case ioopt.Collective:
			err = collective.Write(op, procs, hs, bufs)
		case ioopt.Naive:
			err = collective.WriteNaive(op, procs, hs, bufs)
		case ioopt.DataSieving:
			for r := range procs {
				if err = sieve.Write(procs[r], h, runs[r], bufs[r]); err != nil {
					break
				}
			}
			vtime.Barrier(procs...)
		}
		if err != nil {
			b.Fatal(err)
		}
		if err := h.Close(procs[0]); err != nil {
			b.Fatal(err)
		}
	case ioopt.Subfile:
		if err := subfile.Write(sess, "ds", dims, etype, pat, grid, procs, bufs); err != nil {
			b.Fatal(err)
		}
	}
	vtime.Barrier(procs...)
	return vtime.MaxNow(procs...)
}

// BenchmarkAblationOptimizations compares the run-time library
// strategies on the local-disk and remote-disk models.
func BenchmarkAblationOptimizations(b *testing.B) {
	for _, backend := range []string{"localdisk", "remotedisk"} {
		for _, opt := range []ioopt.Kind{ioopt.Collective, ioopt.Naive, ioopt.DataSieving, ioopt.Subfile} {
			b.Run(fmt.Sprintf("%s/%s", backend, opt), func(b *testing.B) {
				var cost time.Duration
				for i := 0; i < b.N; i++ {
					var be storage.Backend
					var err error
					if backend == "localdisk" {
						be, err = localdisk.New("l", memfs.New())
					} else {
						be, err = remotedisk.New("r", memfs.New())
					}
					if err != nil {
						b.Fatal(err)
					}
					cost = writeOnce(b, be, opt)
				}
				b.ReportMetric(cost.Seconds(), "virt-s")
			})
		}
	}
}

// BenchmarkAblationLocalDiskChannels varies the SSA channel count: the
// SP2 node's four disks overlap file transfers; one channel serializes.
func BenchmarkAblationLocalDiskChannels(b *testing.B) {
	for _, channels := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("channels%d", channels), func(b *testing.B) {
			var cost time.Duration
			for i := 0; i < b.N; i++ {
				be, err := localdisk.New("l", memfs.New(), func(c *device.Config) { c.Channels = channels })
				if err != nil {
					b.Fatal(err)
				}
				sim := vtime.NewVirtual()
				procs := sim.NewProcs("r", 8)
				sess, err := be.Connect(procs[0])
				if err != nil {
					b.Fatal(err)
				}
				done := make(chan struct{})
				for r := 0; r < 8; r++ {
					go func(r int) {
						defer func() { done <- struct{}{} }()
						h, err := sess.Open(procs[r], fmt.Sprintf("f%d", r), storage.ModeCreate)
						if err != nil {
							b.Error(err)
							return
						}
						h.WriteAt(procs[r], make([]byte, 4<<20), 0)
						h.Close(procs[r])
					}(r)
				}
				for r := 0; r < 8; r++ {
					<-done
				}
				cost = vtime.MaxNow(procs...)
			}
			b.ReportMetric(cost.Seconds(), "virt-s")
		})
	}
}

// BenchmarkAblationTapeDrives varies the tape library's drive count for
// a workload alternating between two cartridges.
func BenchmarkAblationTapeDrives(b *testing.B) {
	for _, drives := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("drives%d", drives), func(b *testing.B) {
			var cost time.Duration
			for i := 0; i < b.N; i++ {
				lib, err := tape.New(tape.Config{
					Name: "t", Params: model.RemoteTape2000(), Store: memfs.New(),
					Drives: drives, CartridgeCapacity: 2 << 20,
				})
				if err != nil {
					b.Fatal(err)
				}
				sim := vtime.NewVirtual()
				w := sim.NewProc("w")
				sess, _ := lib.Connect(w)
				// Two files forced onto two cartridges.
				for f := 0; f < 2; f++ {
					h, err := sess.Open(w, fmt.Sprintf("f%d", f), storage.ModeCreate)
					if err != nil {
						b.Fatal(err)
					}
					h.WriteAt(w, make([]byte, 2<<20), 0)
					h.Close(w)
				}
				lib.ResetClocks()
				// Two readers each hammer one cartridge.
				ps := sim.NewProcs("r", 2)
				done := make(chan struct{})
				for r := 0; r < 2; r++ {
					go func(r int) {
						defer func() { done <- struct{}{} }()
						s2, _ := lib.Connect(ps[r])
						h, err := s2.Open(ps[r], fmt.Sprintf("f%d", r), storage.ModeRead)
						if err != nil {
							b.Error(err)
							return
						}
						buf := make([]byte, 1<<20)
						h.ReadAt(ps[r], buf, 0)
						h.ReadAt(ps[r], buf, 1<<20)
						h.Close(ps[r])
					}(r)
				}
				<-done
				<-done
				cost = vtime.MaxNow(ps...)
			}
			b.ReportMetric(cost.Seconds(), "virt-s")
		})
	}
}

// BenchmarkAblationSuperfileFiles sweeps the number of small files:
// the superfile advantage grows linearly with the file count.
func BenchmarkAblationSuperfileFiles(b *testing.B) {
	for _, files := range []int{8, 32, 128} {
		for _, packed := range []bool{false, true} {
			name := fmt.Sprintf("files%d/perfile", files)
			if packed {
				name = fmt.Sprintf("files%d/superfile", files)
			}
			b.Run(name, func(b *testing.B) {
				var cost time.Duration
				for i := 0; i < b.N; i++ {
					be, err := remotedisk.New("r", memfs.New())
					if err != nil {
						b.Fatal(err)
					}
					sim := vtime.NewVirtual()
					w := sim.NewProc("w")
					sess, _ := be.Connect(w)
					payload := make([]byte, 16<<10)
					if packed {
						c, err := superfile.Create(w, sess, "images.sf")
						if err != nil {
							b.Fatal(err)
						}
						for f := 0; f < files; f++ {
							if err := c.Put(w, fmt.Sprintf("im%04d", f), payload); err != nil {
								b.Fatal(err)
							}
						}
						c.Close(w)
						be.ResetClocks()
						p := sim.NewProc("reader")
						sess2, _ := be.Connect(p)
						rc, err := superfile.Open(p, sess2, "images.sf")
						if err != nil {
							b.Fatal(err)
						}
						for f := 0; f < files; f++ {
							if _, err := rc.Get(p, fmt.Sprintf("im%04d", f)); err != nil {
								b.Fatal(err)
							}
						}
						rc.Close(p)
						cost = p.Now()
					} else {
						for f := 0; f < files; f++ {
							h, _ := sess.Open(w, fmt.Sprintf("im%04d", f), storage.ModeCreate)
							h.WriteAt(w, payload, 0)
							h.Close(w)
						}
						be.ResetClocks()
						p := sim.NewProc("reader")
						sess2, _ := be.Connect(p)
						buf := make([]byte, len(payload))
						for f := 0; f < files; f++ {
							h, err := sess2.Open(p, fmt.Sprintf("im%04d", f), storage.ModeRead)
							if err != nil {
								b.Fatal(err)
							}
							h.ReadAt(p, buf, 0)
							h.Close(p)
						}
						cost = p.Now()
					}
				}
				b.ReportMetric(cost.Seconds(), "virt-s")
			})
		}
	}
}

// BenchmarkSRBNetPipelined measures the WALL-clock cost of 8 ranks
// doing chunked writes and reads through one shared wire session — the
// core.Run arrangement over TCP: tagged frames from all 8 ranks
// multiplexed over the pooled connections simultaneously, encoded with
// the zero-copy binary codec (pooled frame buffers, writev-coalesced
// small frames).  CI gates allocs/op on this benchmark — see
// .github/workflows/ci.yml.
//
// The sim runs in scaled mode, so the eq. (1) costs of the served disk
// array become real wall-clock waits — the regime the wire layer
// actually operates in.  The array has many independent channels, and
// the multiplexed protocol lets the ranks' operations overlap across
// them.
func BenchmarkSRBNetPipelined(b *testing.B) {
	// 1 virtual second = 1 wall millisecond: a 4 KiB remote call
	// (~45 ms virtual) waits ~45 µs of real time.
	sim := vtime.NewScaled(1e-3)
	broker := srb.NewBroker()
	be, err := device.New(device.Config{
		Name: "sdsc-array", Kind: storage.KindRemoteDisk,
		Params: model.RemoteDisk2000(), Store: memfs.New(), Channels: 64,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := broker.Register(be); err != nil {
		b.Fatal(err)
	}
	broker.AddUser("shen", "nwu")
	srv, err := srbnet.Serve("127.0.0.1:0", broker, sim)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	srv.SetLogf(func(string, ...any) {})
	client := srbnet.NewClient(srv.Addr(), "shen", "nwu", "sdsc-array", storage.KindRemoteDisk)
	defer client.Close()

	const ranks = 8
	const chunk = 4096
	const chunksPerRank = 8
	p0 := sim.NewProc("rank0")
	sess, err := client.Connect(p0)
	if err != nil {
		b.Fatal(err)
	}
	procs := make([]*vtime.Proc, ranks)
	handles := make([]storage.Handle, ranks)
	payloads := make([][]byte, ranks)
	for r := 0; r < ranks; r++ {
		procs[r] = sim.NewProc(fmt.Sprintf("rank%d-io", r))
		h, err := sess.Open(procs[r], fmt.Sprintf("bench/rank%d", r), storage.ModeCreate)
		if err != nil {
			b.Fatal(err)
		}
		handles[r] = h
		payloads[r] = make([]byte, chunk)
		for i := range payloads[r] {
			payloads[r][i] = byte(r + i)
		}
	}
	b.SetBytes(2 * ranks * chunksPerRank * chunk) // written + read back
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		errs := make([]error, ranks)
		for r := 0; r < ranks; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				got := make([]byte, chunk)
				for k := 0; k < chunksPerRank; k++ {
					off := int64(k * chunk)
					if _, err := handles[r].WriteAt(procs[r], payloads[r], off); err != nil {
						errs[r] = err
						return
					}
					if _, err := handles[r].ReadAt(procs[r], got, off); err != nil {
						errs[r] = err
						return
					}
				}
			}(r)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	for r := 0; r < ranks; r++ {
		if err := handles[r].Close(procs[r]); err != nil {
			b.Fatal(err)
		}
	}
	if err := sess.Close(p0); err != nil {
		b.Fatal(err)
	}
}
