package main

import (
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
)

// Grid mode (--repeat K --out DIR) is the tool behind the agreement
// criterion: it runs every selected workload K times in this process,
// writes one CSV row per (run, metric), summarizes each (workload,
// metric) pair as median, quartiles and relative spread, and fails
// when an end-to-end spread exceeds that metric's bound.

type gridRow struct {
	workload string
	rep      int
	metric   metricDef
	value    float64
}

// quartiles returns Q1 and Q3 as Python's statistics.quantiles(v, n=4)
// does (the default, exclusive method), so a spread computed here is
// the spread the driver computes.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) < 2 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := i*m - j*4 // beyond 0..4 once j was clamped: Python extrapolates
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

func grid(cfg runConfig, dir string, names []string, k int, out string) error {
	if out == "" {
		return fmt.Errorf("--repeat needs --out DIR")
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	defs := endToEnd
	if cfg.traced {
		defs = perLayer
	}
	var rows []gridRow
	incorrect := 0
	for rep := 0; rep < k; rep++ {
		for _, name := range names {
			r, err := runOne(cfg, dir, name, cfg.traced)
			if err != nil {
				return fmt.Errorf("%s, repeat %d: %w", name, rep, err)
			}
			fmt.Printf("repeat %d/%d %s: attempted=%d failed=%d correct=%v\n", rep+1, k, name, r.attempted, r.failed, r.correct())
			for _, p := range r.problems {
				fmt.Printf("   PROBLEM: %s\n", p)
			}
			if !r.correct() {
				incorrect++
			}
			for _, d := range defs {
				rows = append(rows, gridRow{name, rep, d, r.values[d.Name]})
			}
		}
	}
	if err := writeCSV(filepath.Join(out, "runs.csv"), []string{"workload", "seed", "repeat", "metric", "value", "unit"}, len(rows), func(i int) []string {
		r := rows[i]
		return []string{r.workload, fmt.Sprint(cfg.seed), fmt.Sprint(r.rep), r.metric.Name, strconv.FormatFloat(r.value, 'g', -1, 64), r.metric.Unit}
	}); err != nil {
		return err
	}

	type key struct{ workload, metric string }
	groups := map[key][]float64{}
	for _, r := range rows {
		k := key{r.workload, r.metric.Name}
		groups[k] = append(groups[k], r.value)
	}
	var summary [][]string
	exceeded := 0
	fmt.Printf("%-18s %-28s %14s %14s %14s %8s %6s\n", "workload", "metric", "median", "q1", "q3", "spread", "bound")
	for _, name := range names {
		for _, d := range defs {
			v := groups[key{name, d.Name}]
			med := median(v)
			q1, q3 := quartiles(v)
			spread := 0.0
			if med != 0 {
				spread = (q3 - q1) / med
			}
			verdict := ""
			// setup_s is gated on its median only; its spread is shown.
			if d.Bound > 0 && d.Name != "setup_s" && spread > d.Bound {
				verdict = "EXCEEDS"
				exceeded++
			}
			fmt.Printf("%-18s %-28s %14.4f %14.4f %14.4f %7.1f%% %5.0f%% %s\n", name, d.Name, med, q1, q3, 100*spread, 100*d.Bound, verdict)
			summary = append(summary, []string{name, d.Name, d.Unit, fmt.Sprint(len(v)),
				strconv.FormatFloat(med, 'g', -1, 64), strconv.FormatFloat(q1, 'g', -1, 64), strconv.FormatFloat(q3, 'g', -1, 64),
				strconv.FormatFloat(spread, 'g', 6, 64), strconv.FormatFloat(d.Bound, 'g', -1, 64), verdict})
		}
	}
	if err := writeCSV(filepath.Join(out, "summary.csv"), []string{"workload", "metric", "unit", "n", "median", "q1", "q3", "rel_spread", "bound", "verdict"}, len(summary),
		func(i int) []string { return summary[i] }); err != nil {
		return err
	}
	if incorrect > 0 || exceeded > 0 {
		return fmt.Errorf("%d runs failed verification, %d (workload, metric) spreads exceed their bound", incorrect, exceeded)
	}
	return nil
}

func writeCSV(path string, header []string, n int, row func(i int) []string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := csv.NewWriter(f)
	_ = w.Write(header) // csv.Writer keeps the first error for Flush
	for i := 0; i < n; i++ {
		_ = w.Write(row(i))
	}
	w.Flush()
	if err := w.Error(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
