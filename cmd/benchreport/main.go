// Command benchreport regenerates every table and figure of the
// paper's evaluation and prints a paper-vs-measured report — the data
// behind EXPERIMENTS.md.
//
// Usage:
//
//	benchreport [-scale test|bench|paper]
//	            [-exp all|table1|table2|fig6|fig7|fig8|fig9|fig10a|fig10b|fig10c|fig11|worked|naive|chaos|staging|calib|qos|failover|crash|hsm|workflow|cluster]
//	            [-json dir]
//
// The -exp list in this comment and in the flag help both come from
// experiments.Names(); a test keeps this comment honest.
//
// With -json, experiments that publish machine-readable results (qos,
// crash, hsm, workflow, cluster) additionally write BENCH_<exp>.json
// into dir: the full result struct plus a flat "headline" map of the
// scalar metrics CI gates on.
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

func run(scale experiments.Scale, exp, jsonDir string) error {
	all := exp == "all"
	out := os.Stdout

	if all || exp == "table2" {
		fmt.Fprintf(out, "== Table 2: Astro3D run-time parameter set ==\n%s\n", experiments.Table2String(scale))
	}
	if all || exp == "table1" || exp == "fig6" || exp == "fig7" || exp == "fig8" {
		env, err := experiments.NewEnv()
		if err != nil {
			return err
		}
		if all || exp == "table1" {
			fmt.Fprintf(out, "== Table 1: timings for file open, close, etc. (PTool) ==\n%s\n", env.Meta.Table1String())
		}
		figs := map[string]int{"fig6": 0, "fig7": 1, "fig8": 2}
		for _, name := range []string{"fig6", "fig7", "fig8"} {
			if all || exp == name {
				fmt.Fprintf(out, "== %s: read/write time vs size ==\n%s\n", name, env.Reports[figs[name]].CurveString())
			}
		}
	}
	if all || exp == "fig9" {
		fmt.Fprintln(out, "== Figure 9: Astro3D I/O time under five placement scenarios ==")
		rows, err := experiments.Fig9(scale)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%-3s %-62s %12s %12s %10s\n", "#", "scenario", "measured(s)", "predicted(s)", "MiB")
		for _, r := range rows {
			fmt.Fprintf(out, "%-3d %-62s %12.2f %12.2f %10.1f\n",
				r.Scenario, r.Desc, r.Measured.Seconds(), r.Predicted.Seconds(), float64(r.Bytes)/(1<<20))
		}
		fmt.Fprintln(out)
	}
	fig10 := map[string]func(experiments.Scale) ([]experiments.Fig10Row, error){
		"fig10a": experiments.Fig10a,
		"fig10b": experiments.Fig10b,
		"fig10c": experiments.Fig10c,
	}
	for _, name := range []string{"fig10a", "fig10b", "fig10c"} {
		if all || exp == name {
			fmt.Fprintf(out, "== Figure 10(%c) ==\n", name[5])
			rows, err := fig10[name](scale)
			if err != nil {
				return err
			}
			for _, r := range rows {
				fmt.Fprintf(out, "%-44s measured %10.2f s   predicted %10.2f s\n",
					r.Config, r.Measured.Seconds(), r.Predicted.Seconds())
			}
			fmt.Fprintln(out)
		}
	}
	if all || exp == "fig11" {
		env, err := experiments.NewEnv()
		if err != nil {
			return err
		}
		rp, err := experiments.Fig11(env, scale)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "== Figure 11: prediction table (temp → remote disks, rest → tapes) ==\n%s\n", rp.TableString())
	}
	if all || exp == "worked" {
		pred, meas, err := experiments.WorkedExample(scale)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "== §4.2 worked example ==\npredicted %.2f s   measured %.2f s   (paper at full scale: 180.57 vs ≈197.4)\n\n",
			pred.Seconds(), meas.Seconds())
	}
	if all || exp == "naive" {
		coll, naive, err := experiments.CollectiveAblation(scale)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "== Collective I/O ablation (strided temp dataset on remote disks) ==\ncollective %.2f s   naive %.2f s   (%.0f× slower without collective I/O)\n\n",
			coll.Seconds(), naive.Seconds(), naive.Seconds()/coll.Seconds())
	}
	if all || exp == "chaos" {
		rows, err := experiments.Chaos(scale)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "== Chaos: Astro3D writes over a flaky remote disk, resilient recovery ==\n%s\n",
			experiments.ChaosString(rows))
		srows, err := experiments.ChaosStage(scale)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "== Chaos × staging: stage-in from a flaky remote disk, cache integrity ==\n%s\n",
			experiments.ChaosStageString(srows))
	}
	if all || exp == "staging" {
		rows, err := experiments.Staging(scale)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "== Staging: tape-homed re-reads, direct vs prediction-driven cache ==\n%s\n",
			experiments.StagingString(rows))
	}
	if all || exp == "calib" {
		res, err := experiments.Calib(scale)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "== Calibration: skewed curves, traced run, refreshed predictions ==\n%s\n",
			experiments.CalibString(res))
	}
	if all || exp == "qos" {
		res, err := experiments.QoS(scale)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "== QoS: multi-tenant scheduler vs FIFO ablation ==\n%s\n",
			experiments.QoSString(res))
		err = writeJSON(jsonDir, "qos", scale, map[string]float64{
			"isolation_x":  res.Isolation(),
			"fifo_p95_s":   res.FIFOP95.Seconds(),
			"qos_p95_s":    res.QoSP95.Seconds(),
			"fifo_mounts":  float64(res.FIFOMounts),
			"batch_mounts": float64(res.BatchMounts),
			"mount_win_x":  res.MountWin(),
			"batches":      float64(res.Batches),
		}, res)
		if err != nil {
			return err
		}
	}
	if all || exp == "crash" {
		rows, err := experiments.Crash(scale, 0, 1)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "== Crash: journaled broker state under a randomized crash-point matrix ==\n%s\n",
			experiments.CrashString(rows))
		var points, fired, torn, adopted, violations float64
		for _, r := range rows {
			points += float64(r.Points)
			fired += float64(r.Fired)
			torn += float64(r.TornTails)
			adopted += float64(r.Adopted)
			violations += float64(r.Violations())
		}
		err = writeJSON(jsonDir, "crash", scale, map[string]float64{
			"points":     points,
			"fired":      fired,
			"torn_tails": torn,
			"adopted":    adopted,
			"violations": violations,
		}, rows)
		if err != nil {
			return err
		}
		if !experiments.CrashOK(rows) {
			return fmt.Errorf("crash: recovery invariants violated")
		}
	}
	if all || exp == "hsm" {
		res, err := experiments.HSM(scale, 1)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "== HSM: lifecycle engine vs static placement over an archive-churn horizon ==\n%s\n",
			experiments.HSMString(res))
		err = writeJSON(jsonDir, "hsm", scale, map[string]float64{
			"mount_win_x":             res.MountWin(),
			"mounts_per_day_baseline": res.BaseMountsPerDay,
			"mounts_per_day_hsm":      res.HSMMountsPerDay,
			"hit_rate_baseline":       res.BaseHitRate,
			"hit_rate_hsm":            res.HSMHitRate,
			"recall_p95_s":            res.RecallP95.Seconds(),
			"recall_bound_s":          res.RecallBound.Seconds(),
			"migrations":              float64(res.Migrations),
			"recalls":                 float64(res.Recalls),
			"gc_purged":               float64(res.GCPurged),
			"repacks":                 float64(res.Repacks),
			"mismatches":              float64(res.Mismatches),
			"crash_points":            float64(res.CrashPoints()),
			"crash_violations":        float64(res.CrashViolations()),
		}, res)
		if err != nil {
			return err
		}
		if !experiments.HSMOK(res) {
			return fmt.Errorf("hsm: acceptance gate failed")
		}
	}
	if all || exp == "workflow" {
		res, err := experiments.Workflow(scale)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "== Workflow: DAG makespan prediction and provisioning (astro3d -> mse/volren -> viewer) ==\n%s\n",
			experiments.WorkflowString(res))
		headlines := map[string]float64{
			"overlap_levels": float64(len(res.Overlaps)),
			"max_err":        res.MaxErr(),
			"min_speedup":    res.MinSpeedup(),
			"prefetch_items": float64(res.PrefetchItems),
			"placements":     float64(len(res.Placements)),
			"cache_hit_rate": res.Stats.HitRate(),
			"prefetch_p95_s": res.PrefetchP95.Seconds(),
		}
		for _, row := range res.Overlaps {
			k := fmt.Sprintf("o%02.0f", 100*row.Overlap)
			headlines["makespan_"+k+"_s"] = row.Measured.Seconds()
			headlines["makespan_prov_"+k+"_s"] = row.ProvMeasured.Seconds()
		}
		if err := writeJSON(jsonDir, "workflow", scale, headlines, res); err != nil {
			return err
		}
		if !experiments.WorkflowOK(res) {
			return fmt.Errorf("workflow: acceptance gate failed")
		}
	}
	if all || exp == "cluster" {
		res, err := experiments.Cluster(scale)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "== Cluster: sharded brokers with leader-leased replicated meta-data ==\n%s\n",
			experiments.ClusterString(res))
		err = writeJSON(jsonDir, "cluster", scale, map[string]float64{
			"acked_mutations":       float64(res.AckedMutations),
			"lost_acked":            float64(res.LostAcked),
			"dump_mismatches":       float64(res.DumpMismatches),
			"failover_retries":      float64(res.FailoverRetries),
			"survivor_budget_bytes": float64(res.SurvivorBudget),
			"queue_budget_bytes":    float64(res.QueueBudget),
			"single_over_direct_x":  res.SingleOverDirect(),
			"sharded_speedup_x":     res.ShardedSpeedup(),
		}, res)
		if err != nil {
			return err
		}
		if !experiments.ClusterOK(res) {
			return fmt.Errorf("cluster: acceptance gate failed")
		}
	}
	if all || exp == "failover" {
		res, err := experiments.Failover(scale)
		if err != nil {
			return err
		}
		if res.WriteError != nil {
			fmt.Fprintf(out, "== Failover ==\nrun FAILED during tape outage: %v\n\n", res.WriteError)
		} else {
			fmt.Fprintf(out, "== Failover (tape system down) ==\nAUTO dataset placed on %s; run completed, I/O time %.2f s\n\n",
				res.PlacedOn, res.IOTime.Seconds())
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

func writeJSON(dir, exp string, scale experiments.Scale, headline map[string]float64, result any) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(benchJSON{Experiment: exp, Scale: scale, Headline: headline, Result: result}, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "BENCH_"+exp+".json")
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stdout, "wrote %s\n\n", path)
	return nil
}
