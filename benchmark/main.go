// Command msrabench is the repository's wall-clock stack benchmark: it
// assembles the srbd compositions in-process over loopback TCP with a
// zero-cost device model, drives them closed-loop, verifies every
// result and prints every metric by name.  See README.md.
//
//	bash benchmark/run.sh [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
//	                      [--dir DIR] [--repeat K --out DIR]
//
// The last line of standard output of a single-workload run is one JSON
// object {correct, attempted, failed, metrics}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
)

var workloads = map[string]func(runConfig) (*result, error){
	"wire-small":       runWireSmall,
	"wire-bulk":        runWireBulk,
	"meta-journal":     runMetaJournal,
	"cluster-meta":     runClusterMeta,
	"pipeline-astro3d": runPipeline,
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "msrabench:", err)
		os.Exit(1)
	}
}

func run() error {
	workload := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Int64("seed", 1, "seed of the input generator")
	seconds := flag.Float64("seconds", runSeconds, "timed length per workload")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics, span CSV")
	dir := flag.String("dir", filepath.Join(".bench_build", "tmp"), "scratch directory for journals and osfs roots (a real filesystem)")
	repeat := flag.Int("repeat", 0, "grid mode: run each selected workload this many times")
	out := flag.String("out", "", "grid mode: directory for runs.csv and summary.csv")
	printManifest := flag.Bool("manifest", false, "print BENCHMARK.json as the registry defines it and exit")
	flag.Parse()

	if *printManifest {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(buildManifest())
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %v", *seconds)
	}
	names := []string{*workload}
	if *workload == "all" {
		names = names[:0]
		for _, w := range workloadDefs {
			names = append(names, w.Name)
		}
	}
	for _, name := range names {
		if workloads[name] == nil {
			return fmt.Errorf("unknown workload %q", name)
		}
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		return err
	}
	clients := runtime.NumCPU()
	if clients > 4 {
		clients = 4
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, traced: *trace != 0, clients: clients, csvDir: filepath.Join(*dir, "..", "trace")}
	fmt.Printf("msrabench: seed=%d seconds=%g trace=%v clients=%d GOMAXPROCS=%d scratch=%s (%s); loopback TCP, zero-cost device model, fsync-before-ack as the code does it\n",
		cfg.seed, cfg.seconds, cfg.traced, cfg.clients, runtime.GOMAXPROCS(0), *dir, fsType(*dir))

	if *repeat > 0 {
		return grid(cfg, *dir, names, *repeat, *out)
	}
	allCorrect := true
	for _, name := range names {
		r, err := runOne(cfg, *dir, name, cfg.traced)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		r.report(os.Stdout)
		defs := endToEnd
		if cfg.traced {
			defs = perLayer
		}
		line, err := r.jsonLine(defs)
		if err != nil {
			return err
		}
		fmt.Println(line)
		allCorrect = allCorrect && r.correct()
	}
	if !allCorrect {
		return fmt.Errorf("a workload failed its verification")
	}
	return nil
}

// runOne runs a workload — and, when probe is set, the layer probes —
// in a scratch directory of its own and removes it afterwards.
func runOne(cfg runConfig, base, name string, probe bool) (*result, error) {
	dir, err := os.MkdirTemp(base, name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cfg.dir = dir
	r, err := workloads[name](cfg)
	if err != nil {
		return nil, err
	}
	if probe {
		if err := probes(cfg, r); err != nil {
			return nil, fmt.Errorf("probes: %w", err)
		}
	}
	return r, nil
}

// fsType names the filesystem under dir: fsync and page-cache speeds
// are this filesystem's, in this sandbox.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "fs unknown: " + err.Error()
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794C7630: "overlayfs",
		0x58465342: "xfs", 0x9123683E: "btrfs", 0x6969: "nfs", 0x2FC12FC1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("fs type %#x", st.Type)
}
