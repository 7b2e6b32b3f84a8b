// Command benchreport regenerates every table and figure of the
// paper's evaluation and prints a paper-vs-measured report — the data
// behind EXPERIMENTS.md.
//
// Usage:
//
//	benchreport [-scale test|bench|paper] [-exp all|NAME] [-json dir]
//
// The experiments are the rows of internal/experiments' table, run in
// table order; -h lists their names.  A row whose acceptance gate
// fails makes the command exit non-zero.
//
// With -json, the rows that publish machine-readable results
// additionally write BENCH_<exp>.json into dir: the full result struct
// plus the flat "headline" map of scalars the gate reads.
//
// The paper scale (128³, N=120) runs the real solver and moves ≈2.2 GB
// per figure-9 scenario; expect minutes.  The bench scale keeps the
// paper's frequencies and rank count at 32³ so everything finishes in
// seconds with identical shape.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"repro/internal/experiments"
)

// table is what run iterates; a test appends a stub row.
var table = experiments.All()

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchreport: ")
	names := experiments.Names()
	scaleName := flag.String("scale", "bench", "problem scale: test, bench or paper")
	exp := flag.String("exp", "all",
		"experiment to run (all, "+strings.Join(names, ", ")+")")
	jsonDir := flag.String("json", "", "directory to write BENCH_<exp>.json machine-readable results into")
	flag.Parse()
	if *exp != "all" && !slices.Contains(names, *exp) {
		log.Fatalf("unknown experiment %q; choose all or one of %s", *exp, strings.Join(names, ", "))
	}

	var scale experiments.Scale
	switch *scaleName {
	case "test":
		scale = experiments.TestScale()
	case "bench":
		scale = experiments.Scale{N: 32, MaxIter: 24, Freq: 6, Procs: 8}
	case "paper":
		scale = experiments.PaperScale()
	default:
		log.Fatalf("unknown scale %q", *scaleName)
	}
	if err := run(scale, *exp, *jsonDir); err != nil {
		log.Fatal(err)
	}
}

// run executes the selected rows in table order: run, print the
// section, publish, then gate — so a failed gate still leaves its
// report and its JSON behind for whoever reads the CI log.
func run(scale experiments.Scale, exp, jsonDir string) error {
	for _, e := range table {
		if e.Run == nil || (exp != "all" && exp != e.Name) {
			continue
		}
		rep, err := e.Run(scale)
		if err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
		fmt.Printf("== %s ==\n%s\n", e.Title, rep.Text)
		if e.Publish && jsonDir != "" {
			if err := writeJSON(jsonDir, e.Name, scale, rep); err != nil {
				return err
			}
		}
		if e.Check == nil {
			continue
		}
		if err := e.Check(rep.Headline); err != nil {
			return fmt.Errorf("%s: acceptance gate failed: %w", e.Name, err)
		}
	}
	return nil
}

// benchJSON is the envelope -json writes per experiment: the scale it
// ran at, a flat map of the scalar metrics CI gates on, and the full
// result struct for anything else a consumer wants.
type benchJSON struct {
	Experiment string             `json:"experiment"`
	Scale      experiments.Scale  `json:"scale"`
	Headline   map[string]float64 `json:"headline"`
	Result     any                `json:"result"`
}

func writeJSON(dir, exp string, scale experiments.Scale, rep experiments.Report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(benchJSON{Experiment: exp, Scale: scale, Headline: rep.Headline, Result: rep.Result}, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "BENCH_"+exp+".json")
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n\n", path)
	return nil
}
