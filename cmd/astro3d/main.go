// Command astro3d runs the Astro3D proxy simulation against a freshly
// assembled multi-storage environment, mirroring the paper's command
// line: problem size, iteration count and per-group dump frequencies,
// plus placement hints.
//
// Usage:
//
//	astro3d [-n 128] [-iter 120] [-freq 6] [-procs 8]
//	        [-place temp=REMOTEDISK,vr_temp=LOCALDISK] [-default SDSCHPSS]
//	        [-opt collective]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"

	"repro/internal/apps/astro3d"
	"repro/internal/core"
	"repro/internal/hints"
	"repro/internal/ioopt"
	"repro/internal/metadb"
	"repro/internal/testbed"
	"repro/internal/trace"
	"repro/internal/vtime"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("astro3d: ")
	n := flag.Int("n", 128, "problem size edge")
	iter := flag.Int("iter", 120, "maximum iterations")
	freq := flag.Int("freq", 6, "dump frequency for all three groups")
	procs := flag.Int("procs", 8, "parallel processes")
	place := flag.String("place", "", "comma-separated dataset=HINT placement overrides")
	def := flag.String("default", "SDSCHPSS", "location hint for unlisted datasets")
	optName := flag.String("opt", "collective", "run-time optimization (collective, naive, sieving, subfile)")
	traceCSV := flag.String("trace", "", "write the native I/O call trace to this CSV file")
	hintFile := flag.String("hints", "", "dataset hint table overriding -place/-default for listed datasets")
	metaOut := flag.String("meta", "", "save the run's meta-data database to this JSON file")
	flag.Parse()

	locations := make(map[string]core.Location)
	if *hintFile != "" {
		hs, err := hints.ParseFile(*hintFile)
		if err != nil {
			log.Fatal(err)
		}
		for _, h := range hs {
			locations[h.Name] = h.Location
		}
	}
	if *place != "" {
		for _, kv := range strings.Split(*place, ",") {
			name, hint, ok := strings.Cut(kv, "=")
			if !ok {
				log.Fatalf("bad -place entry %q (want dataset=HINT)", kv)
			}
			loc, err := core.ParseLocation(hint)
			if err != nil {
				log.Fatal(err)
			}
			locations[name] = loc
		}
	}
	defLoc, err := core.ParseLocation(*def)
	if err != nil {
		log.Fatal(err)
	}
	opt, err := ioopt.Parse(*optName)
	if err != nil {
		log.Fatal(err)
	}

	sys, rec, err := buildSystem(*traceCSV != "")
	if err != nil {
		log.Fatal(err)
	}
	rep, err := astro3d.Run(sys, "astro3d", astro3d.Params{
		Nx: *n, Ny: *n, Nz: *n, MaxIter: *iter,
		AnalysisFreq: *freq, VizFreq: *freq, CheckpointFreq: *freq,
		Procs: *procs, Locations: locations, DefaultLocation: defLoc, Opt: opt,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("run %s: %d dumps, %.1f MiB written\n", rep.RunID, rep.Dumps, float64(rep.BytesOut)/(1<<20))
	fmt.Printf("I/O time    %12.2f s (simulated)\n", rep.IOTime.Seconds())
	fmt.Printf("total time  %12.2f s (simulated, incl. compute)\n", rep.TotalTime.Seconds())
	fmt.Printf("state hash  %016x\n\n", rep.Checksum)
	names := make([]string, 0, len(rep.DatasetIOTime))
	for name := range rep.DatasetIOTime {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Println("per-dataset I/O time:")
	for _, name := range names {
		fmt.Printf("  %-14s %12.2f s\n", name, rep.DatasetIOTime[name].Seconds())
	}
	if *metaOut != "" {
		if err := sys.Meta().Save(*metaOut); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("meta-data database saved to %s\n", *metaOut)
	}
	if *traceCSV != "" {
		f, err := os.Create(*traceCSV)
		if err != nil {
			log.Fatal(err)
		}
		if err := rec.WriteCSV(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nnative-call trace (%d events) written to %s\n", rec.Len(), *traceCSV)
		fmt.Print(rec.SummaryString())
	}
}

// buildSystem assembles the three-resource environment, attaching a
// trace recorder to every backend when traced is set.
func buildSystem(traced bool) (*core.System, *trace.Recorder, error) {
	var rec *trace.Recorder
	if traced {
		rec = trace.New(0)
	}
	res, err := testbed.New(testbed.Dir(""), rec)
	if err != nil {
		return nil, nil, err
	}
	sys, err := core.NewSystem(core.SystemConfig{
		Sim: vtime.NewVirtual(), Meta: metadb.New(),
		LocalDisk: res.Local, RemoteDisk: res.RDisk, RemoteTape: res.Tape,
	})
	if err != nil {
		return nil, nil, err
	}
	return sys, rec, nil
}
