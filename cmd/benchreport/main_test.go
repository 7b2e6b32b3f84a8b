package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/experiments"
)

// TestCommittedBenchHeadlines is the regression gate over the
// machine-readable results committed at the repo root: every table row
// that publishes (or is frozen, so its file is all that is left) must
// have a BENCH_<exp>.json whose headline passes the row's own Check —
// the same gate a live run is held to.  Regenerate a file with
//
//	go run ./cmd/benchreport -scale bench -exp <exp> -json .
//
// after a deliberate change; a silent regression fails here.
func TestCommittedBenchHeadlines(t *testing.T) {
	committed, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	gated := 0
	for _, e := range experiments.All() {
		if !e.Publish && e.Run != nil {
			continue
		}
		gated++
		t.Run(e.Name, func(t *testing.T) {
			raw, err := os.ReadFile(filepath.Join("..", "..", "BENCH_"+e.Name+".json"))
			if err != nil {
				t.Fatalf("committed bench result missing: %v", err)
			}
			var doc struct {
				Experiment string             `json:"experiment"`
				Headline   map[string]float64 `json:"headline"`
			}
			if err := json.Unmarshal(raw, &doc); err != nil {
				t.Fatalf("BENCH_%s.json: %v", e.Name, err)
			}
			if doc.Experiment != e.Name {
				t.Fatalf("BENCH_%s.json claims experiment %q", e.Name, doc.Experiment)
			}
			if e.Check == nil {
				t.Fatalf("row %q publishes a file but has no Check", e.Name)
			}
			if err := e.Check(doc.Headline); err != nil {
				t.Error(err)
			}
		})
	}
	if len(committed) != gated {
		t.Errorf("%d committed BENCH files for %d publishing or frozen rows: %v", len(committed), gated, committed)
	}
}

// TestRunFailsWhenGateFails pins the exit status: a row whose Check
// rejects its headline makes run return an error (main turns that into
// a non-zero exit), where a printed "NO" used to exit 0.
func TestRunFailsWhenGateFails(t *testing.T) {
	ran := false
	stub := experiments.Experiment{
		Name: "stub", Title: "stub row",
		Run: func(experiments.Scale) (experiments.Report, error) {
			ran = true
			return experiments.Report{Text: "completed NO\n", Headline: map[string]float64{"completed": 0}}, nil
		},
		Check: func(h map[string]float64) error {
			if h["completed"] != 1 {
				return errors.New("row did not complete")
			}
			return nil
		},
	}
	saved := table
	defer func() { table = saved }()
	table = append(append([]experiments.Experiment(nil), saved...), stub)
	if err := run(experiments.TestScale(), "stub", ""); err == nil {
		t.Fatal("run returned nil for a row whose gate failed")
	}
	if !ran {
		t.Fatal("stub row was never run")
	}
}
