package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/apps/astro3d"
	"repro/internal/apps/mse"
	"repro/internal/core"
	"repro/internal/predict"
	"repro/internal/sched"
	"repro/internal/stage"
)

// ------------------------------------------------------------------
// Staging: the prediction-driven staging engine against direct tape
// access.  Astro3D archives temp on the remote tapes; the MSE analysis
// then reads every dump back twice (the paper's pipeline visits each
// dump from both the analysis and the visualization side).  Without
// staging both passes pay tape latency; with the engine the first pass
// stages each instance onto the local disks and the second is served
// from the cache, so archival capacity costs near-local access time.

// StagingRow is one configuration of the staging experiment.
type StagingRow struct {
	Config string
	Staged bool

	// Pass1/Pass2 are the two read passes' measured I/O times;
	// Pred1/Pred2 the eq. (2) predictions for the same passes.
	Pass1, Pass2 time.Duration
	Pred1, Pred2 time.Duration

	// SuggestedMaxRunTime is what the batch-queue helper would request
	// for the two passes given the prediction.
	SuggestedMaxRunTime time.Duration

	// Cache-traffic counters (zero for the direct configuration).
	Hits, Misses, StagedIn, Evictions int64
	HitRate                           float64
	BytesStagedIn, BytesWrittenBack   int64
	PeakUsed, Budget                  int64
}

// Staging runs the pipeline once directly and once through the staging
// engine, in fresh environments.
func Staging(scale Scale) ([]StagingRow, error) {
	rows := make([]StagingRow, 0, 2)
	for _, staged := range []bool{false, true} {
		row, err := stagingOne(scale, staged)
		if err != nil {
			return rows, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func stagingOne(scale Scale, staged bool) (StagingRow, error) {
	env, err := NewEnv()
	if err != nil {
		return StagingRow{}, err
	}
	// The producer archives temp on the tapes, writing directly: the
	// experiment isolates the consumer-side staging benefit.
	prm := scale.params()
	prm.VizFreq, prm.CheckpointFreq = 0, 0
	prm.Locations = map[string]core.Location{"temp": core.LocRemoteTape}
	prm.DefaultLocation = core.LocDisable
	if _, err := astro3d.Run(env.Sys, "prod", prm); err != nil {
		return StagingRow{}, err
	}

	size := int64(scale.N) * int64(scale.N) * int64(scale.N) * 4
	row := StagingRow{Config: "direct tape reads", Staged: staged}
	consumerSys := env.Sys
	var mgr *stage.Manager
	if staged {
		row.Config = "staged via local disks"
		mgr, err = stage.New(stage.Config{
			Sim:   env.Sim,
			Cache: env.Local,
			// The budget holds the whole working set, so the acceptance
			// question is hit rate, not thrash.
			Budget:        int64(scale.Dumps()) * size,
			PDB:           env.PDB,
			ExpectedReads: 2,
			PrefetchDepth: 4,
		})
		if err != nil {
			return StagingRow{}, err
		}
		defer mgr.Close()
		// A second System over the same resources, meta-data and time
		// domain, with dataset I/O redirected through the engine.
		consumerSys, err = core.NewSystem(core.SystemConfig{
			Sim: env.Sim, Meta: env.Meta,
			LocalDisk: env.Local, RemoteDisk: env.RDisk, RemoteTape: env.RTape,
			Stager: mgr,
		})
		if err != nil {
			return StagingRow{}, err
		}
	}

	for pass, id := range []string{"mse-a", "mse-b"} {
		env.ResetClocks()
		if mgr != nil {
			mgr.WaitPrefetch()
			mgr.ResetClocks()
		}
		res, err := mse.Run(consumerSys, id, mse.Params{
			ProducerRun: "prod", Dataset: "temp",
			Iterations: scale.MaxIter, Procs: scale.Procs,
		})
		if err != nil {
			return StagingRow{}, fmt.Errorf("staging %s: %w", id, err)
		}
		if pass == 0 {
			row.Pass1 = res.IOTime
		} else {
			row.Pass2 = res.IOTime
		}
	}

	// Predictions for the same two passes.
	req := predict.DatasetReq{
		Name: "temp", AMode: "read",
		Dims: []int{scale.N, scale.N, scale.N}, Etype: 4,
		Pattern: "B**", Location: "remotetape",
		Frequency: scale.Freq, Procs: scale.Procs,
	}
	direct, err := env.PDB.Predict(predict.RunReq{
		Iterations: scale.MaxIter, Op: "read", Datasets: []predict.DatasetReq{req},
	})
	if err != nil {
		return StagingRow{}, err
	}
	row.Pred1, row.Pred2 = direct.Total, direct.Total
	if mgr != nil {
		first, hit, err := mgr.PredictStagedRead(req, scale.MaxIter)
		if err != nil {
			return StagingRow{}, err
		}
		row.Pred1, row.Pred2 = first, hit
		st := mgr.Stats()
		row.Hits, row.Misses, row.StagedIn, row.Evictions = st.Hits, st.Misses, st.StagedIn, st.Evictions
		row.HitRate = st.HitRate()
		row.BytesStagedIn, row.BytesWrittenBack = st.BytesStagedIn, st.BytesWrittenBack
		row.PeakUsed, row.Budget = st.PeakUsed, st.Budget
	}
	row.SuggestedMaxRunTime, err = sched.SuggestMaxRunTime(row.Pred1+row.Pred2, 0, 0.15)
	if err != nil {
		return StagingRow{}, err
	}
	return row, nil
}

// stagingHeadline flattens the direct and staged rows into the scalars
// the gate reads.
func stagingHeadline(rows []StagingRow) map[string]float64 {
	h := map[string]float64{}
	for _, r := range rows {
		if r.Staged {
			h["staged_pass2_s"] = r.Pass2.Seconds()
			h["hit_rate"] = r.HitRate
			h["staged_in"] = float64(r.StagedIn)
		} else {
			h["direct_pass2_s"] = r.Pass2.Seconds()
		}
	}
	return h
}

// StagingString renders the staging experiment.
func StagingString(rows []StagingRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %10s %10s %10s %10s %7s %10s %12s %10s\n",
		"CONFIG", "PASS1(s)", "PASS2(s)", "PRED1(s)", "PRED2(s)", "HITRATE", "STAGED-IN", "BYTES-MOVED", "MAXRUN(s)")
	for _, r := range rows {
		bytesMoved := r.BytesStagedIn + r.BytesWrittenBack
		fmt.Fprintf(&b, "%-24s %10.3f %10.3f %10.3f %10.3f %6.0f%% %10d %12d %10.0f\n",
			r.Config, r.Pass1.Seconds(), r.Pass2.Seconds(),
			r.Pred1.Seconds(), r.Pred2.Seconds(),
			100*r.HitRate, r.StagedIn, bytesMoved,
			r.SuggestedMaxRunTime.Seconds())
	}
	return b.String()
}
