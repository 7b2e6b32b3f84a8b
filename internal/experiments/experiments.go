// Package experiments regenerates every table and figure of the
// paper's evaluation (§4–§5) against the reproduced system:
//
//	Table 1    — eq. (1) constants per resource (PTool)
//	Table 2    — the Astro3D run-time parameter set
//	Fig 6/7/8  — read/write time vs size on local disk / remote disk / tape
//	Fig 9      — Astro3D total I/O time under five placement scenarios,
//	             measured vs predicted
//	Fig 10(a)  — data-analysis read time, tape vs remote disk
//	Fig 10(b)  — visualization read time, tape vs local disk
//	Fig 10(c)  — superfile vs per-file image access
//	Fig 11     — the per-dataset prediction table
//	§4.2       — the worked example (predicted vs measured)
//	§5 (last)  — failover when the tape system is down
//
// Each experiment builds a fresh environment so device queues, tape
// mounts and capacity usage never leak between scenarios.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/apps/astro3d"
	"repro/internal/apps/mse"
	"repro/internal/apps/volren"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/ioopt"
	"repro/internal/metadb"
	"repro/internal/pattern"
	"repro/internal/predict"
	"repro/internal/ptool"
	"repro/internal/storage"
	"repro/internal/tape"
	"repro/internal/testbed"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// Env is one fresh experimental environment: the three storage
// resources of the paper's testbed over in-memory stores, a meta-data
// database populated by a PTool sweep, and the predictor on top.
type Env struct {
	Sim     *vtime.Sim
	Sys     *core.System
	Meta    *metadb.DB
	PDB     *predict.DB
	Local   *device.Backend
	RDisk   *device.Backend
	RTape   *tape.Library
	Reports []ptool.Report

	// Rec/Metrics are set by NewTracedEnv: one shared recorder and
	// metrics aggregation wired into all three backends, reset after
	// the PTool sweep so only application traffic is folded.
	Rec     *trace.Recorder
	Metrics *trace.Metrics
}

// Classes maps the environment's backend instance names to the
// resource classes the performance database is keyed by — the join key
// the calibration engine needs.
func (e *Env) Classes() map[string]string {
	return map[string]string{
		e.Local.Name(): e.Local.Kind().String(),
		e.RDisk.Name(): e.RDisk.Kind().String(),
		e.RTape.Name(): e.RTape.Kind().String(),
	}
}

// ResetClocks returns every storage device to idle.  Experiments call
// it between pipeline stages: the paper's post-processing runs after
// the simulation has completed, so the consumer must not queue behind
// the producer's device occupancy.
func (e *Env) ResetClocks() {
	e.Local.ResetClocks()
	e.RDisk.ResetClocks()
	e.RTape.ResetClocks()
}

// NewEnv builds an environment and runs the PTool sweep.
func NewEnv() (*Env, error) { return newEnv(false) }

// NewTracedEnv is NewEnv with one shared trace recorder and metrics
// aggregation wired into every backend.  The recorder and metrics are
// reset after the PTool sweep, so what they hold afterwards is purely
// the application's native calls — the measured side of the
// calibration join.
func NewTracedEnv() (*Env, error) { return newEnv(true) }

func newEnv(traced bool) (*Env, error) {
	sim := vtime.NewVirtual()
	var rec *trace.Recorder
	var met *trace.Metrics
	if traced {
		// The metrics fold covers the whole run regardless of the raw
		// retention window, so a bounded window keeps memory flat.
		rec = trace.New(1 << 16)
		met = trace.NewMetrics()
		rec.SetMetrics(met)
	}
	res, err := testbed.New(testbed.Dir(""), rec)
	if err != nil {
		return nil, err
	}
	meta := metadb.New()
	// PTool runs on its own clock domain so the sweep does not preload
	// the experiment devices.
	reports, err := res.Sweep(meta, 1)
	if err != nil {
		return nil, err
	}
	// Drop the sweep's own traffic: calibration must see only what the
	// application charges.
	rec.Reset()
	met.Reset()
	sys, err := core.NewSystem(core.SystemConfig{
		Sim: sim, Meta: meta,
		LocalDisk: res.Local, RemoteDisk: res.RDisk, RemoteTape: res.Tape,
	})
	if err != nil {
		return nil, err
	}
	return &Env{
		Sim: sim, Sys: sys, Meta: meta, PDB: predict.NewDB(meta),
		Local: res.Local, RDisk: res.RDisk, RTape: res.Tape, Reports: reports,
		Rec: rec, Metrics: met,
	}, nil
}

// Scale selects the problem size of an experiment run.
type Scale struct {
	N       int // grid edge (the paper: 128)
	MaxIter int // iterations (the paper: 120)
	Freq    int // dump frequency (the paper: 6)
	Procs   int // parallel ranks (the paper's runs use 8)
}

// PaperScale is the paper's Table 2 parameter set.
func PaperScale() Scale { return Scale{N: 128, MaxIter: 120, Freq: 6, Procs: 8} }

// TestScale is a fast scaled-down variant with the same shape.
func TestScale() Scale { return Scale{N: 16, MaxIter: 12, Freq: 6, Procs: 4} }

func (s Scale) params() astro3d.Params {
	return astro3d.Params{
		Nx: s.N, Ny: s.N, Nz: s.N, MaxIter: s.MaxIter,
		AnalysisFreq: s.Freq, VizFreq: s.Freq, CheckpointFreq: s.Freq,
		Procs: s.Procs,
	}
}

// Dumps returns the paper's instance count N/freq + 1.
func (s Scale) Dumps() int { return s.MaxIter/s.Freq + 1 }

// Table2String renders Table 2 for a scale.
func Table2String(s Scale) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-26s %-22s %s\n", "Item", "Size", "Data type")
	fmt.Fprintf(&b, "%-26s %dx%dx%d\n", "Problem size", s.N, s.N, s.N)
	fmt.Fprintf(&b, "%-26s %d\n", "Max num of iterations", s.MaxIter)
	fmt.Fprintf(&b, "%-26s %-22d %s\n", "Data analysis freq", s.Freq, "Float")
	fmt.Fprintf(&b, "%-26s %-22d %s\n", "Data visualization freq", s.Freq, "Unsigned Char")
	fmt.Fprintf(&b, "%-26s %-22d %s\n", "Checkpointing freq", s.Freq, "Float")
	return b.String()
}

// ------------------------------------------------------------------
// Figure 9: Astro3D write I/O under the five placement scenarios.

// Fig9Row is one bar of figure 9.
type Fig9Row struct {
	Scenario  int
	Desc      string
	Measured  time.Duration
	Predicted time.Duration
	Bytes     int64
}

// fig9Scenario builds the location map of one scenario.
func fig9Scenario(n int) (map[string]core.Location, core.Location, string, error) {
	switch n {
	case 1:
		return nil, core.LocRemoteTape, "all datasets to remote tapes", nil
	case 2:
		return map[string]core.Location{"temp": core.LocRemoteDisk},
			core.LocRemoteTape, "temp to remote disks, others to tapes", nil
	case 3:
		return map[string]core.Location{"temp": core.LocRemoteDisk, "press": core.LocRemoteDisk},
			core.LocDisable, "only temp and press, to remote disks", nil
	case 4:
		return map[string]core.Location{"vr_temp": core.LocLocalDisk},
			core.LocRemoteTape, "vr_temp to local disks, others to tapes", nil
	case 5:
		return map[string]core.Location{"vr_temp": core.LocLocalDisk, "vr_press": core.LocRemoteDisk},
			core.LocDisable, "only vr_temp to local disks and vr_press to remote disks", nil
	default:
		return nil, 0, "", fmt.Errorf("experiments: figure 9 has scenarios 1–5, not %d", n)
	}
}

// Fig9One measures and predicts one scenario in a fresh environment.
func Fig9One(scale Scale, scenario int) (Fig9Row, error) {
	locs, def, desc, err := fig9Scenario(scenario)
	if err != nil {
		return Fig9Row{}, err
	}
	env, err := NewEnv()
	if err != nil {
		return Fig9Row{}, err
	}
	prm := scale.params()
	prm.Locations = locs
	prm.DefaultLocation = def
	rep, err := astro3d.Run(env.Sys, fmt.Sprintf("fig9-%d", scenario), prm)
	if err != nil {
		return Fig9Row{}, err
	}
	pred, err := PredictAstro3D(env.PDB, scale, locs, def)
	if err != nil {
		return Fig9Row{}, err
	}
	return Fig9Row{
		Scenario: scenario, Desc: desc,
		Measured: rep.IOTime, Predicted: pred.Total, Bytes: rep.BytesOut,
	}, nil
}

// Fig9 runs all five scenarios.
func Fig9(scale Scale) ([]Fig9Row, error) {
	rows := make([]Fig9Row, 0, 5)
	for s := 1; s <= 5; s++ {
		row, err := Fig9One(scale, s)
		if err != nil {
			return rows, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// PredictAstro3D evaluates eq. (2) for an Astro3D run with the given
// placement, producing the figure 11 table for it.
func PredictAstro3D(pdb *predict.DB, scale Scale, locs map[string]core.Location, def core.Location) (predict.RunPrediction, error) {
	var reqs []predict.DatasetReq
	add := func(names []string, etype int, amode string) {
		for _, name := range names {
			loc, ok := locs[name]
			if !ok {
				loc = def
			}
			resource := "DISABLE"
			switch loc {
			case core.LocLocalDisk:
				resource = "localdisk"
			case core.LocRemoteDisk:
				resource = "remotedisk"
			case core.LocRemoteTape, core.LocAuto:
				resource = "remotetape"
			}
			reqs = append(reqs, predict.DatasetReq{
				Name: name, AMode: amode,
				Dims: []int{scale.N, scale.N, scale.N}, Etype: etype,
				Pattern: "B**", Location: resource,
				Frequency: scale.Freq, Procs: scale.Procs,
			})
		}
	}
	add(astro3d.AnalysisNames(), 4, "create")
	add(astro3d.VizNames(), 1, "create")
	add(astro3d.CheckpointNames(), 4, "over_write")
	return pdb.Predict(predict.RunReq{Iterations: scale.MaxIter, Op: "write", Datasets: reqs})
}

// ------------------------------------------------------------------
// Figure 10(a): data-analysis (MSE) read time, tape vs remote disk.

// Fig10Row is one bar of figure 10.
type Fig10Row struct {
	Config    string
	Measured  time.Duration
	Predicted time.Duration
}

// fig10Produce runs Astro3D in a fresh environment with one dataset
// placed at loc and everything else disabled, then idles the devices.
func fig10Produce(scale Scale, dataset string, loc core.Location) (*Env, error) {
	env, err := NewEnv()
	if err != nil {
		return nil, err
	}
	prm := scale.params()
	prm.CheckpointFreq = 0
	if dataset == "temp" {
		prm.VizFreq = 0
	} else {
		prm.AnalysisFreq = 0
	}
	prm.Locations = map[string]core.Location{dataset: loc}
	prm.DefaultLocation = core.LocDisable
	if _, err := astro3d.Run(env.Sys, "prod", prm); err != nil {
		return nil, err
	}
	env.ResetClocks()
	return env, nil
}

// fig10Read produces dataset at slow then at fast and, for each, has
// consume read every dump back and eq. (2) predict that read.
func fig10Read(scale Scale, dataset string, etype int, slow, fast core.Location, fastName string,
	consume func(*Env) (time.Duration, error)) ([]Fig10Row, error) {
	var rows []Fig10Row
	for _, cfg := range []struct {
		name string
		loc  core.Location
	}{
		{"read " + dataset + " from remote tapes", slow},
		{"read " + dataset + " from " + fastName, fast},
	} {
		env, err := fig10Produce(scale, dataset, cfg.loc)
		if err != nil {
			return rows, err
		}
		ioTime, err := consume(env)
		if err != nil {
			return rows, err
		}
		pred, err := env.PDB.Predict(predict.RunReq{
			Iterations: scale.MaxIter, Op: "read",
			Datasets: []predict.DatasetReq{{
				Name: dataset, AMode: "read",
				Dims: []int{scale.N, scale.N, scale.N}, Etype: etype,
				Pattern: "B**", Location: locResource(cfg.loc),
				Frequency: scale.Freq, Procs: scale.Procs,
			}},
		})
		if err != nil {
			return rows, err
		}
		rows = append(rows, Fig10Row{Config: cfg.name, Measured: ioTime, Predicted: pred.Total})
	}
	return rows, nil
}

// Fig10a produces temp on each resource and measures the analysis.
func Fig10a(scale Scale) ([]Fig10Row, error) {
	return fig10Read(scale, "temp", 4, core.LocRemoteTape, core.LocRemoteDisk, "remote disks",
		func(env *Env) (time.Duration, error) {
			res, err := mse.Run(env.Sys, "mse", mse.Params{
				ProducerRun: "prod", Dataset: "temp",
				Iterations: scale.MaxIter, Procs: scale.Procs,
			})
			return res.IOTime, err
		})
}

// Fig10b measures the visualization read path (Volren over vr_temp),
// tape vs local disk — the paper's "10 times faster than from tapes".
func Fig10b(scale Scale) ([]Fig10Row, error) {
	return fig10Read(scale, "vr_temp", 1, core.LocRemoteTape, core.LocLocalDisk, "local disks",
		func(env *Env) (time.Duration, error) {
			res, err := volren.Run(env.Sys, "volren", volren.Params{
				ProducerRun: "prod", Dataset: "vr_temp",
				Iterations: scale.MaxIter, Procs: scale.Procs,
				ImageLocation: core.LocDisable,
			})
			return res.IOTime, err
		})
}

// Fig10c measures superfile vs per-file access for the Volren images on
// remote disks: the renderer writes one small image per timestep and
// the viewer then reads them all back.
func Fig10c(scale Scale) ([]Fig10Row, error) {
	var rows []Fig10Row
	for _, cfg := range []struct {
		name string
		opt  ioopt.Kind
	}{
		{"image files accessed one by one", ioopt.Collective},
		{"image files packed in a superfile", ioopt.Superfile},
	} {
		env, err := fig10Produce(scale, "vr_temp", core.LocLocalDisk)
		if err != nil {
			return rows, err
		}
		if _, err := volren.Run(env.Sys, "volren", volren.Params{
			ProducerRun: "prod", Dataset: "vr_temp",
			Iterations: scale.MaxIter, Procs: scale.Procs,
			ImageLocation: core.LocRemoteDisk, ImageOpt: cfg.opt,
		}); err != nil {
			return rows, err
		}
		// The viewer reads every image back from the remote disk.
		env.ResetClocks()
		viewer, err := env.Sys.Initialize(core.RunConfig{ID: "viewer", App: "imgview", Iterations: 1, Procs: 1})
		if err != nil {
			return rows, err
		}
		d, err := viewer.AttachDataset("volren", "image")
		if err != nil {
			return rows, err
		}
		p := env.Sim.NewProc("viewer0")
		before := p.Now()
		for iter := 0; iter <= scale.MaxIter; iter += scale.Freq {
			if _, err := d.ReadGlobal(p, iter); err != nil {
				return rows, err
			}
		}
		measured := p.Now() - before
		opt := cfg.opt
		pred, err := env.PDB.PredictDataset(predict.DatasetReq{
			Name: "image", AMode: "read", Dims: []int{scale.N, scale.N}, Etype: 1,
			Pattern: "B*", Location: "remotedisk", Frequency: scale.Freq,
			Procs: 1, Opt: opt,
		}, scale.MaxIter)
		if err != nil {
			return rows, err
		}
		predicted := pred.VirtualTime
		if opt == ioopt.Superfile {
			// One container read serves every image: a single dump's
			// prediction with the whole container as the unit.
			row, err := env.PDB.PredictDataset(predict.DatasetReq{
				Name: "image", AMode: "read",
				Dims: []int{scale.N, scale.N * scale.Dumps()}, Etype: 1,
				Pattern: "B*", Location: "remotedisk", Frequency: 1, Procs: 1,
			}, 0)
			if err != nil {
				return rows, err
			}
			predicted = row.VirtualTime
		}
		rows = append(rows, Fig10Row{Config: cfg.name, Measured: measured, Predicted: predicted})
	}
	return rows, nil
}

func locResource(l core.Location) string {
	if kind, ok := l.Kind(); ok {
		return kind.String()
	}
	return "remotetape"
}

// ------------------------------------------------------------------
// Figure 11: the per-dataset prediction table for scenario 2.

// Fig11 returns the prediction table for the paper's figure 11 setup
// (temp to remote disks, every other dataset to tapes).
func Fig11(env *Env, scale Scale) (predict.RunPrediction, error) {
	return PredictAstro3D(env.PDB, scale,
		map[string]core.Location{"temp": core.LocRemoteDisk}, core.LocRemoteTape)
}

// ------------------------------------------------------------------
// §4.2 worked example: predicted vs measured.

// WorkedExample returns (predicted, measured) for the paper's example:
// vr-temp to local disks, vr-press to remote disks, N=120, freq 6.
func WorkedExample(scale Scale) (predicted, measured time.Duration, err error) {
	env, err := NewEnv()
	if err != nil {
		return 0, 0, err
	}
	locs := map[string]core.Location{
		"vr_temp":  core.LocLocalDisk,
		"vr_press": core.LocRemoteDisk,
	}
	prm := scale.params()
	prm.AnalysisFreq, prm.CheckpointFreq = 0, 0
	prm.Locations = locs
	prm.DefaultLocation = core.LocDisable
	rep, err := astro3d.Run(env.Sys, "worked", prm)
	if err != nil {
		return 0, 0, err
	}
	pred, err := env.PDB.Predict(predict.RunReq{
		Iterations: scale.MaxIter, Op: "write",
		Datasets: []predict.DatasetReq{
			{Name: "vr_temp", AMode: "create", Dims: []int{scale.N, scale.N, scale.N}, Etype: 1,
				Pattern: "B**", Location: "localdisk", Frequency: scale.Freq, Procs: scale.Procs},
			{Name: "vr_press", AMode: "create", Dims: []int{scale.N, scale.N, scale.N}, Etype: 1,
				Pattern: "B**", Location: "remotedisk", Frequency: scale.Freq, Procs: scale.Procs},
		},
	})
	if err != nil {
		return 0, 0, err
	}
	return pred.Total, rep.IOTime, nil
}

// ------------------------------------------------------------------
// §5 failover: the tape system goes down mid-experiment.

// FailoverResult describes the failover experiment.
type FailoverResult struct {
	PlacedOn   string // resource class the AUTO dataset landed on
	IOTime     time.Duration
	WriteError error // nil: the run survived the outage
}

// Failover takes the tape system down and shows the run proceeding on
// the aggregated remaining resources.
func Failover(scale Scale) (FailoverResult, error) {
	env, err := NewEnv()
	if err != nil {
		return FailoverResult{}, err
	}
	env.RTape.SetDown(true)
	prm := scale.params()
	prm.VizFreq, prm.CheckpointFreq = 0, 0
	prm.Locations = map[string]core.Location{"temp": core.LocAuto}
	prm.DefaultLocation = core.LocDisable
	rep, err := astro3d.Run(env.Sys, "failover", prm)
	if err != nil {
		return FailoverResult{WriteError: err}, nil
	}
	row, err := env.Meta.GetDataset(nil, "failover", "temp")
	if err != nil {
		return FailoverResult{}, err
	}
	var placed string
	for _, be := range []storage.Backend{env.Local, env.RDisk, env.RTape} {
		if be.Name() == row.Resource {
			placed = be.Kind().String()
		}
	}
	return FailoverResult{PlacedOn: placed, IOTime: rep.IOTime}, nil
}

// ------------------------------------------------------------------
// §5 aside: "Note that this time has already been optimized by
// collective I/O.  Without collective I/O, it would be many times
// slower."

// CollectiveAblation writes the temp dataset's dumps to remote disks
// with an inner-dimension distribution (every rank's data strided in
// the file) under collective and under naive I/O, through the user API.
func CollectiveAblation(scale Scale) (collectiveT, naiveT time.Duration, err error) {
	pat, err := pattern.Parse("**B")
	if err != nil {
		return 0, 0, err
	}
	runOne := func(opt ioopt.Kind) (time.Duration, error) {
		env, err := NewEnv()
		if err != nil {
			return 0, err
		}
		run, err := env.Sys.Initialize(core.RunConfig{
			ID: "ablation-" + opt.String(), App: "ablation",
			Iterations: scale.MaxIter, Procs: scale.Procs,
		})
		if err != nil {
			return 0, err
		}
		d, err := run.OpenDataset(core.DatasetSpec{
			Name: "temp", AMode: storage.ModeCreate,
			Dims: []int{scale.N, scale.N, scale.N}, Etype: 4,
			Pattern: pat, Location: core.LocRemoteDisk,
			Frequency: scale.Freq, Opt: opt,
		})
		if err != nil {
			return 0, err
		}
		bufs := make([][]byte, scale.Procs)
		for r := range bufs {
			n, err := d.LocalSize(r)
			if err != nil {
				return 0, err
			}
			bufs[r] = make([]byte, n)
		}
		for iter := 0; iter <= scale.MaxIter; iter += scale.Freq {
			if err := d.WriteIter(iter, bufs); err != nil {
				return 0, err
			}
		}
		io := run.IOTime()
		if err := run.Finalize(); err != nil {
			return 0, err
		}
		return io, nil
	}
	if collectiveT, err = runOne(ioopt.Collective); err != nil {
		return 0, 0, err
	}
	if naiveT, err = runOne(ioopt.Naive); err != nil {
		return 0, 0, err
	}
	return collectiveT, naiveT, nil
}
