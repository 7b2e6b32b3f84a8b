package experiments

import (
	"errors"
	"fmt"
	"strings"
)

// Experiment is one row of the evaluation table: how the experiment
// runs, the report section it prints, whether it publishes a
// BENCH_<Name>.json, and the acceptance gate over its headline scalars.
type Experiment struct {
	Name    string
	Title   string // report section heading
	Publish bool   // benchreport -json writes BENCH_<Name>.json

	// Run executes the experiment.  It is nil for a frozen row: the
	// code it measured is gone and the committed BENCH file is what is
	// left to gate.
	Run func(Scale) (Report, error)

	// Check is the acceptance gate over Report.Headline, evaluated on
	// the live run and on the committed BENCH file alike.  nil leaves
	// the row ungated (the paper's tables and figures, whose shape the
	// package tests assert).
	Check func(headline map[string]float64) error
}

// Report is what one run produced.
type Report struct {
	Text     string             // the section body, newline-terminated
	Headline map[string]float64 // the flat scalars Check reads
	Result   any                // the full result, for the JSON envelope
}

// All returns the evaluation table in report order.  Adding an
// experiment is appending a row here: benchreport's -exp list, its
// loop, the committed-file gate and CI all iterate this slice.
func All() []Experiment { return table }

// Names lists the runnable experiments, in report order.
func Names() []string {
	var names []string
	for _, e := range table {
		if e.Run != nil {
			names = append(names, e.Name)
		}
	}
	return names
}

// gates joins conditions into one Check that reports every failure.
func gates(conds ...func(map[string]float64) error) func(map[string]float64) error {
	return func(h map[string]float64) error {
		var errs []error
		for _, c := range conds {
			errs = append(errs, c(h))
		}
		return errors.Join(errs...)
	}
}

// want is the condition "headline[key] op bound"; bound is a number or
// the name of another headline key.  A missing key fails.
func want(key, op string, bound any) func(map[string]float64) error {
	return func(h map[string]float64) error {
		got, ok := h[key]
		if !ok {
			return fmt.Errorf("headline key %q missing", key)
		}
		var lim float64
		switch b := bound.(type) {
		case int:
			lim = float64(b)
		case float64:
			lim = b
		case string:
			if lim, ok = h[b]; !ok {
				return fmt.Errorf("headline key %q missing", b)
			}
		}
		var pass bool
		switch op {
		case ">":
			pass = got > lim
		case ">=":
			pass = got >= lim
		case "<":
			pass = got < lim
		case "<=":
			pass = got <= lim
		case "==":
			pass = got == lim
		}
		if !pass {
			return fmt.Errorf("%s = %g, want %s %v", key, got, op, bound)
		}
		return nil
	}
}

// paper wraps an ungated, headline-free section body.
func paper(text string, err error) (Report, error) { return Report{Text: text}, err }

// report wraps a gated experiment's (result, error) into its Report.
func report[T any](text func(T) string, headline func(T) map[string]float64) func(T, error) (Report, error) {
	return func(res T, err error) (Report, error) {
		if err != nil {
			return Report{}, err
		}
		return Report{Text: text(res), Headline: headline(res), Result: res}, nil
	}
}

func fig10Text(rows []Fig10Row, err error) (Report, error) {
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "%-44s measured %10.2f s   predicted %10.2f s\n",
			r.Config, r.Measured.Seconds(), r.Predicted.Seconds())
	}
	return paper(b.String(), err)
}

// curve renders figure 6, 7 or 8: the PTool sweep of resource i.
func curve(i int) func(Scale) (Report, error) {
	return func(Scale) (Report, error) {
		env, err := NewEnv()
		if err != nil {
			return Report{}, err
		}
		return paper(env.Reports[i].CurveString(), nil)
	}
}

var table = []Experiment{
	{Name: "table1", Title: "Table 1: timings for file open, close, etc. (PTool)",
		Run: func(Scale) (Report, error) {
			env, err := NewEnv()
			if err != nil {
				return Report{}, err
			}
			return paper(env.Meta.Table1String(), nil)
		}},
	{Name: "table2", Title: "Table 2: Astro3D run-time parameter set",
		Run: func(s Scale) (Report, error) { return paper(Table2String(s), nil) }},
	{Name: "fig6", Title: "fig6: read/write time vs size", Run: curve(0)},
	{Name: "fig7", Title: "fig7: read/write time vs size", Run: curve(1)},
	{Name: "fig8", Title: "fig8: read/write time vs size", Run: curve(2)},
	{Name: "fig9", Title: "Figure 9: Astro3D I/O time under five placement scenarios",
		Run: func(s Scale) (Report, error) {
			rows, err := Fig9(s)
			var b strings.Builder
			fmt.Fprintf(&b, "%-3s %-62s %12s %12s %10s\n", "#", "scenario", "measured(s)", "predicted(s)", "MiB")
			for _, r := range rows {
				fmt.Fprintf(&b, "%-3d %-62s %12.2f %12.2f %10.1f\n",
					r.Scenario, r.Desc, r.Measured.Seconds(), r.Predicted.Seconds(), float64(r.Bytes)/(1<<20))
			}
			return paper(b.String(), err)
		}},
	{Name: "fig10a", Title: "Figure 10(a)", Run: func(s Scale) (Report, error) { return fig10Text(Fig10a(s)) }},
	{Name: "fig10b", Title: "Figure 10(b)", Run: func(s Scale) (Report, error) { return fig10Text(Fig10b(s)) }},
	{Name: "fig10c", Title: "Figure 10(c)", Run: func(s Scale) (Report, error) { return fig10Text(Fig10c(s)) }},
	{Name: "fig11", Title: "Figure 11: prediction table (temp → remote disks, rest → tapes)",
		Run: func(s Scale) (Report, error) {
			env, err := NewEnv()
			if err != nil {
				return Report{}, err
			}
			rp, err := Fig11(env, s)
			return paper(rp.TableString(), err)
		}},
	{Name: "worked", Title: "§4.2 worked example",
		Run: func(s Scale) (Report, error) {
			pred, meas, err := WorkedExample(s)
			return paper(fmt.Sprintf("predicted %.2f s   measured %.2f s   (paper at full scale: 180.57 vs ≈197.4)\n",
				pred.Seconds(), meas.Seconds()), err)
		}},
	{Name: "naive", Title: "Collective I/O ablation (strided temp dataset on remote disks)",
		Run: func(s Scale) (Report, error) {
			coll, naive, err := CollectiveAblation(s)
			return paper(fmt.Sprintf("collective %.2f s   naive %.2f s   (%.0f× slower without collective I/O)\n",
				coll.Seconds(), naive.Seconds(), naive.Seconds()/coll.Seconds()), err)
		}},
	{Name: "chaos", Title: "Chaos: Astro3D writes over a flaky remote disk, resilient recovery",
		Run: func(s Scale) (Report, error) {
			rows, err := Chaos(s)
			if err != nil {
				return Report{}, err
			}
			srows, err := ChaosStage(s)
			if err != nil {
				return Report{}, err
			}
			return Report{
				Text: ChaosString(rows) +
					"\n== Chaos × staging: stage-in from a flaky remote disk, cache integrity ==\n" +
					ChaosStageString(srows),
				Headline: chaosHeadline(rows, srows),
				Result:   map[string]any{"write": rows, "stage": srows},
			}, nil
		},
		Check: gates(
			want("completed", "==", "rows"), want("injected", ">", 0),
			want("stage_completed", "==", "stage_rows"), want("corrupt", "==", 0))},
	{Name: "staging", Title: "Staging: tape-homed re-reads, direct vs prediction-driven cache",
		Run: func(s Scale) (Report, error) { return report(StagingString, stagingHeadline)(Staging(s)) },
		Check: gates(
			want("staged_pass2_s", "<", "direct_pass2_s"),
			want("hit_rate", ">", 0), want("staged_in", ">", 0))},
	{Name: "calib", Title: "Calibration: skewed curves, traced run, refreshed predictions",
		Run: func(s Scale) (Report, error) {
			return report(CalibString, func(r CalibResult) map[string]float64 {
				return map[string]float64{
					"err_before": r.MeanAbsErrBefore, "err_after": r.MeanAbsErrAfter, "drifted": float64(r.Drifted),
				}
			})(Calib(s))
		},
		Check: gates(want("err_after", "<", "err_before"), want("drifted", ">", 0))},
	{Name: "qos", Title: "QoS: multi-tenant scheduler vs FIFO ablation", Publish: true,
		Run:   func(s Scale) (Report, error) { return report(QoSString, QoSResult.Headline)(QoS(s)) },
		Check: gates(want("isolation_x", ">", 1), want("mount_win_x", ">", 1), want("batches", ">", 0))},
	{Name: "failover", Title: "Failover (tape system down)",
		Run: func(s Scale) (Report, error) {
			res, err := Failover(s)
			if err != nil {
				return Report{}, err
			}
			rep := Report{Headline: map[string]float64{"write_error": 0, "io_time_s": res.IOTime.Seconds()}, Result: res}
			if res.WriteError != nil {
				rep.Headline["write_error"] = 1
				rep.Text = fmt.Sprintf("run FAILED during tape outage: %v\n", res.WriteError)
			} else {
				rep.Text = fmt.Sprintf("AUTO dataset placed on %s; run completed, I/O time %.2f s\n",
					res.PlacedOn, res.IOTime.Seconds())
			}
			return rep, nil
		},
		Check: gates(want("write_error", "==", 0), want("io_time_s", ">", 0))},
	{Name: "crash", Title: "Crash: journaled broker state under a randomized crash-point matrix", Publish: true,
		Run:   func(s Scale) (Report, error) { return report(CrashString, crashHeadline)(Crash(s, 0, 1)) },
		Check: crashGate},
	{Name: "hsm", Title: "HSM: lifecycle engine vs static placement over an archive-churn horizon", Publish: true,
		Run:   func(s Scale) (Report, error) { return report(HSMString, HSMResult.Headline)(HSM(s, 1)) },
		Check: hsmGate},
	{Name: "workflow", Title: "Workflow: DAG makespan prediction and provisioning (astro3d -> mse/volren -> viewer)", Publish: true,
		Run:   func(s Scale) (Report, error) { return report(WorkflowString, WorkflowResult.Headline)(Workflow(s)) },
		Check: workflowGate},
	{Name: "cluster", Title: "Cluster: sharded brokers with leader-leased replicated meta-data", Publish: true,
		Run:   func(s Scale) (Report, error) { return report(ClusterString, ClusterResult.Headline)(Cluster(s)) },
		Check: clusterGate},
	// Frozen: the v1/v2 wire paths this compared against were retired
	// (EXPERIMENTS.md "Retired ablations"); BENCH_srbnet.json is the record.
	{Name: "srbnet", Title: "Wire protocol: pipelined v3 vs the retired serialized and gob paths",
		Check: gates(want("speedup_x", ">", 1), want("v3_over_v2_x", ">", 1))},
}
