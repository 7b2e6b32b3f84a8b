package experiments

import (
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/apps/astro3d"
	"repro/internal/apps/mse"
	"repro/internal/apps/volren"
	"repro/internal/core"
	"repro/internal/stage"
	"repro/internal/workflow"
)

// ------------------------------------------------------------------
// Workflow: the full astro3d → MSE → volren → viewer chain, predicted
// and measured end to end.  Each stage runs in its own clock epoch (the
// paper's post-processing model); per-stage times then compose into a
// makespan under the overlap recurrence
//
//	start(c) = max over edges (p, c) of start(p) + (1−α)·dur(p)
//
// at several overlap levels α — the same composition for predictions
// and measurements, so the two are directly comparable (Costa et al.).
// The experiment runs the chain twice: unprovisioned (archive defaults,
// direct reads) and provisioned by the workflow plan (lifetime-placed
// intermediates, DAG-edge prefetch into a budgeted stage cache).

// WorkflowStageRow is one stage's predicted and measured durations in
// both legs.
type WorkflowStageRow struct {
	Stage                       string
	Predicted, Measured         time.Duration
	ProvPredicted, ProvMeasured time.Duration
}

// WorkflowOverlapRow is one overlap level's composed makespans.
type WorkflowOverlapRow struct {
	Overlap                     float64
	Predicted, Measured         time.Duration
	ProvPredicted, ProvMeasured time.Duration
	Critical                    []string // measured critical path, unprovisioned
}

// Err is the unprovisioned relative prediction error.
func (r WorkflowOverlapRow) Err() float64 { return relErr(r.Predicted, r.Measured) }

// ProvErr is the provisioned relative prediction error.
func (r WorkflowOverlapRow) ProvErr() float64 { return relErr(r.ProvPredicted, r.ProvMeasured) }

// Speedup is unprovisioned / provisioned measured makespan.
func (r WorkflowOverlapRow) Speedup() float64 {
	if r.ProvMeasured <= 0 {
		return 0
	}
	return float64(r.Measured) / float64(r.ProvMeasured)
}

func relErr(pred, meas time.Duration) float64 {
	if meas <= 0 {
		return math.Inf(1)
	}
	return math.Abs(float64(pred-meas)) / float64(meas)
}

// WorkflowResult is the whole experiment.
type WorkflowResult struct {
	Scale    Scale
	Stages   []WorkflowStageRow
	Overlaps []WorkflowOverlapRow

	// Plan summary (provisioned leg).
	CacheBudget   int64
	ExpectedReads int
	PrefetchItems int
	PrefetchP95   time.Duration
	Placements    []string // "producer/dataset: from -> to"
	Stats         stage.Stats
}

// MaxErr is the worst relative prediction error across overlap levels
// and legs.
func (r WorkflowResult) MaxErr() float64 {
	worst := 0.0
	for _, row := range r.Overlaps {
		if e := row.Err(); e > worst {
			worst = e
		}
		if e := row.ProvErr(); e > worst {
			worst = e
		}
	}
	return worst
}

// MinSpeedup is the smallest provisioning win across overlap levels.
func (r WorkflowResult) MinSpeedup() float64 {
	min := math.Inf(1)
	for _, row := range r.Overlaps {
		if s := row.Speedup(); s < min {
			min = s
		}
	}
	return min
}

// Headline flattens the result into the scalars workflowGate reads,
// with the composed makespans of both legs at every overlap level.
func (r WorkflowResult) Headline() map[string]float64 {
	h := map[string]float64{
		"overlap_levels": float64(len(r.Overlaps)),
		"max_err":        r.MaxErr(),
		"min_speedup":    r.MinSpeedup(),
		"prefetch_items": float64(r.PrefetchItems),
		"placements":     float64(len(r.Placements)),
		"cache_hit_rate": r.Stats.HitRate(),
		"prefetch_p95_s": r.PrefetchP95.Seconds(),
	}
	for _, row := range r.Overlaps {
		k := fmt.Sprintf("o%02.0f", 100*row.Overlap)
		h["makespan_"+k+"_s"] = row.Measured.Seconds()
		h["makespan_prov_"+k+"_s"] = row.ProvMeasured.Seconds()
	}
	return h
}

// workflowGate is the acceptance gate: predictions within ±15% of the
// composed measurement at ≥3 overlap levels in both legs, a plan that
// placed, prefetched and hit, and the provisioned run strictly faster
// than the unprovisioned baseline at every level.
var workflowGate = gates(
	want("overlap_levels", ">=", 3), want("max_err", "<=", 0.15), want("min_speedup", ">", 1),
	want("prefetch_items", ">", 0), want("placements", ">", 0), want("cache_hit_rate", ">", 0.9),
	func(h map[string]float64) error {
		for k, v := range h {
			if !strings.HasPrefix(k, "makespan_o") {
				continue
			}
			if prov := h["makespan_prov_"+strings.TrimPrefix(k, "makespan_")]; !(prov > 0 && prov < v) {
				return fmt.Errorf("provisioned makespan %g s not under unprovisioned %g s (%s)", prov, v, k)
			}
		}
		return nil
	})

// workflowLoc maps a provisioning class to a placement hint.
func workflowLoc(class string, def core.Location) core.Location {
	if class == "" {
		return def
	}
	loc, err := core.ParseLocation(class)
	if err != nil {
		return def
	}
	return loc
}

// runWorkflowStages measures the chain once, stage by stage, each in a
// fresh clock epoch.  A nil plan is the unprovisioned baseline; with a
// plan, intermediates move to their placed tiers, stage-cache budgets
// come from the predicted working sets, and DAG-edge prefetch is issued
// before the first consumer starts.
func runWorkflowStages(env *Env, scale Scale, plan *workflow.Plan) (map[string]time.Duration, stage.Stats, error) {
	dur := make(map[string]time.Duration, 4)
	consumerSys := env.Sys
	var mgr *stage.Manager
	if plan != nil {
		var err error
		mgr, err = stage.New(stage.Config{
			Sim:           env.Sim,
			Cache:         env.Local,
			Budget:        plan.CacheBudget,
			PDB:           env.PDB,
			ExpectedReads: plan.ExpectedReads,
			// The plan prices DAG-edge staging as one parallel copy
			// wave; enough workers that no hint in the wave is
			// dropped or queued behind another.
			PrefetchDepth: len(plan.Prefetch) + 1,
		})
		if err != nil {
			return nil, stage.Stats{}, err
		}
		defer mgr.Close()
		consumerSys, err = core.NewSystem(core.SystemConfig{
			Sim: env.Sim, Meta: env.Meta,
			LocalDisk: env.Local, RemoteDisk: env.RDisk, RemoteTape: env.RTape,
			Stager: mgr,
		})
		if err != nil {
			return nil, stage.Stats{}, err
		}
	}
	placed := func(producer, dataset string, def core.Location) core.Location {
		if plan == nil {
			return def
		}
		if ip, ok := plan.Placed(producer, dataset); ok {
			return workflowLoc(ip.To, def)
		}
		return def
	}

	// Stage 1: astro3d archives temp (analysis) and vr_temp (viz); the
	// other datasets are disabled so the chain's data flow is exact.
	prm := scale.params()
	prm.CheckpointFreq = 0
	prm.Locations = map[string]core.Location{
		"temp":    placed("astro3d", "temp", core.LocRemoteTape),
		"vr_temp": placed("astro3d", "vr_temp", core.LocRemoteTape),
	}
	prm.DefaultLocation = core.LocDisable
	rep, err := astro3d.Run(env.Sys, "prod", prm)
	if err != nil {
		return nil, stage.Stats{}, fmt.Errorf("workflow astro3d: %w", err)
	}
	dur["astro3d"] = rep.IOTime

	// DAG-edge prefetch: stage the plan's instances in before their
	// first consumer starts.  The copies run on prefetch processes in
	// the consumer's epoch, so their completion times are charged to
	// the consumer's first hits — not dropped.
	env.ResetClocks()
	if mgr != nil {
		pre, err := consumerSys.Initialize(core.RunConfig{ID: "wf-prefetch", App: "provision", Iterations: 1, Procs: 1})
		if err != nil {
			return nil, stage.Stats{}, err
		}
		attached := make(map[string]*core.Dataset)
		for _, it := range plan.ItemsFor("mse") {
			d, ok := attached[it.Dataset]
			if !ok {
				var err error
				d, err = pre.AttachDataset("prod", it.Dataset)
				if err != nil {
					return nil, stage.Stats{}, err
				}
				attached[it.Dataset] = d
			}
			mgr.Prefetch(d.Backend(), d.InstancePath(it.Iter), it.Bytes, 0)
		}
		mgr.WaitPrefetch()
		if err := pre.Finalize(); err != nil {
			return nil, stage.Stats{}, err
		}
	}

	// Stage 2: MSE analyzes temp.
	res, err := mse.Run(consumerSys, "wf-mse", mse.Params{
		ProducerRun: "prod", Dataset: "temp",
		Iterations: scale.MaxIter, Procs: scale.Procs,
	})
	if err != nil {
		return nil, stage.Stats{}, fmt.Errorf("workflow mse: %w", err)
	}
	dur["mse"] = res.IOTime

	// Stage 3: volren renders vr_temp into the per-dump image dataset —
	// the stage-private intermediate the plan may relocate.
	env.ResetClocks()
	vres, err := volren.Run(env.Sys, "wf-volren", volren.Params{
		ProducerRun: "prod", Dataset: "vr_temp",
		Iterations: scale.MaxIter, Procs: scale.Procs,
		ImageLocation: placed("volren", "image", core.LocRemoteTape),
	})
	if err != nil {
		return nil, stage.Stats{}, fmt.Errorf("workflow volren: %w", err)
	}
	dur["volren"] = vres.IOTime

	// Stage 4: an interactive viewer replays every image next to the
	// temp field, whole instances at a time (the paper's vizserver
	// access shape).
	env.ResetClocks()
	view, err := consumerSys.Initialize(core.RunConfig{ID: "wf-view", App: "imgview", Iterations: 1, Procs: 1})
	if err != nil {
		return nil, stage.Stats{}, err
	}
	img, err := view.AttachDataset("wf-volren", "image")
	if err != nil {
		return nil, stage.Stats{}, err
	}
	temp, err := view.AttachDataset("prod", "temp")
	if err != nil {
		return nil, stage.Stats{}, err
	}
	p := env.Sim.NewProc("viewer0")
	before := p.Now()
	for iter := 0; iter <= scale.MaxIter; iter += scale.Freq {
		if _, err := img.ReadGlobal(p, iter); err != nil {
			return nil, stage.Stats{}, fmt.Errorf("workflow viewer image: %w", err)
		}
		if _, err := temp.ReadGlobal(p, iter); err != nil {
			return nil, stage.Stats{}, fmt.Errorf("workflow viewer temp: %w", err)
		}
	}
	dur["viewer"] = p.Now() - before
	if err := view.Finalize(); err != nil {
		return nil, stage.Stats{}, err
	}

	var st stage.Stats
	if mgr != nil {
		st = mgr.Stats()
	}
	return dur, st, nil
}

// Workflow runs the chain unprovisioned and provisioned in fresh
// environments and composes predicted and measured makespans at each
// overlap level.
func Workflow(scale Scale) (WorkflowResult, error) {
	g := workflow.Pipeline(scale.N, scale.MaxIter, scale.Freq, scale.Procs)
	out := WorkflowResult{Scale: scale}

	// Unprovisioned baseline.
	baseEnv, err := NewEnv()
	if err != nil {
		return out, err
	}
	baseDur, _, err := runWorkflowStages(baseEnv, scale, nil)
	if err != nil {
		return out, err
	}
	basePred, err := g.PredictMakespan(baseEnv.PDB, 0)
	if err != nil {
		return out, err
	}

	// Provisioned leg: plan from the calibrated predictor, fast tiers
	// offered for intermediates, the local disks as the stage cache.
	provEnv, err := NewEnv()
	if err != nil {
		return out, err
	}
	cacheClass := provEnv.Local.Kind().String()
	tiers := []workflow.Tier{
		{Class: provEnv.Local.Kind().String(), Free: 1 << 31},
		{Class: provEnv.RDisk.Kind().String(), Free: 1 << 31},
	}
	plan, err := g.Provision(provEnv.PDB, cacheClass, tiers)
	if err != nil {
		return out, err
	}
	provDur, stats, err := runWorkflowStages(provEnv, scale, plan)
	if err != nil {
		return out, err
	}
	provPred, err := g.PredictMakespanProvisioned(provEnv.PDB, plan, 0)
	if err != nil {
		return out, err
	}

	for _, s := range basePred.Stages {
		row := WorkflowStageRow{Stage: s.Name, Predicted: s.Duration, Measured: baseDur[s.Name]}
		for _, ps := range provPred.Stages {
			if ps.Name == s.Name {
				row.ProvPredicted = ps.Duration
			}
		}
		row.ProvMeasured = provDur[s.Name]
		out.Stages = append(out.Stages, row)
	}
	for _, overlap := range []float64{0, 0.5, 1} {
		mb, err := g.Compose(baseDur, overlap)
		if err != nil {
			return out, err
		}
		pb, err := g.Compose(basePred.Durations(), overlap)
		if err != nil {
			return out, err
		}
		mp, err := g.Compose(provDur, overlap)
		if err != nil {
			return out, err
		}
		pp, err := g.Compose(provPred.Durations(), overlap)
		if err != nil {
			return out, err
		}
		out.Overlaps = append(out.Overlaps, WorkflowOverlapRow{
			Overlap:   overlap,
			Predicted: pb.Makespan, Measured: mb.Makespan,
			ProvPredicted: pp.Makespan, ProvMeasured: mp.Makespan,
			Critical: mb.CriticalPath,
		})
	}
	out.CacheBudget = plan.CacheBudget
	out.ExpectedReads = plan.ExpectedReads
	out.PrefetchItems = len(plan.Prefetch)
	out.PrefetchP95 = plan.PrefetchP95
	for _, ip := range plan.Intermediates {
		out.Placements = append(out.Placements, fmt.Sprintf("%s/%s: %s -> %s", ip.Producer, ip.Dataset, ip.From, ip.To))
	}
	out.Stats = stats
	return out, nil
}

// WorkflowString renders the experiment.
func WorkflowString(r WorkflowResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "per-stage I/O time (s):\n")
	fmt.Fprintf(&b, "%-10s %10s %10s %12s %12s\n", "STAGE", "PRED", "MEAS", "PRED(prov)", "MEAS(prov)")
	for _, s := range r.Stages {
		fmt.Fprintf(&b, "%-10s %10.3f %10.3f %12.3f %12.3f\n",
			s.Stage, s.Predicted.Seconds(), s.Measured.Seconds(),
			s.ProvPredicted.Seconds(), s.ProvMeasured.Seconds())
	}
	fmt.Fprintf(&b, "\ncomposed makespan (s):\n")
	fmt.Fprintf(&b, "%-8s %10s %10s %6s %12s %12s %8s %8s\n",
		"OVERLAP", "PRED", "MEAS", "ERR", "PRED(prov)", "MEAS(prov)", "ERRprov", "SPEEDUP")
	for _, row := range r.Overlaps {
		fmt.Fprintf(&b, "%-8.2f %10.3f %10.3f %5.1f%% %12.3f %12.3f %7.1f%% %7.2fx\n",
			row.Overlap, row.Predicted.Seconds(), row.Measured.Seconds(), 100*row.Err(),
			row.ProvPredicted.Seconds(), row.ProvMeasured.Seconds(), 100*row.ProvErr(),
			row.Speedup())
	}
	fmt.Fprintf(&b, "\nplan: cache budget %d B, expected reads %d, %d prefetch items (p95 copy %.3f s)\n",
		r.CacheBudget, r.ExpectedReads, r.PrefetchItems, r.PrefetchP95.Seconds())
	for _, pl := range r.Placements {
		fmt.Fprintf(&b, "  placed %s\n", pl)
	}
	fmt.Fprintf(&b, "cache: %d hits / %d misses (%.0f%%), %d staged in, %d B moved\n",
		r.Stats.Hits, r.Stats.Misses, 100*r.Stats.HitRate(), r.Stats.StagedIn, r.Stats.BytesMoved())
	fmt.Fprintf(&b, "worst prediction error %.1f%%, min provisioning speedup %.2fx, gate %v\n",
		100*r.MaxErr(), r.MinSpeedup(), workflowGate(r.Headline()) == nil)
	return b.String()
}
