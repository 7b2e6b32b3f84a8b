// Package calib closes the paper's measured-vs-predicted loop at run
// time.  The paper validates eq. (2) offline (figures 9–10: predictions
// within ~10–15% of measured run I/O times); calib makes that
// comparison a first-class operation: it joins the trace metrics
// aggregation (what each resource actually charged per native call, per
// size regime) against the predictor's interpolated unit times, emits
// per-(resource, op) residual ratios, flags resources that have drifted
// outside the paper's error band, and — acting as an online PTool —
// writes refreshed transfer-time curves back into the meta-data
// database so the next prediction, AUTO placement, and staging decision
// interpolate calibrated curves instead of stale one-shot sweeps.
package calib

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/metadb"
	"repro/internal/predict"
	"repro/internal/ptool"
	"repro/internal/trace"
)

// DefaultBand is the drift threshold: the paper reports eq. (2)
// predictions staying within roughly 15% of measured times, so a
// resource whose measured/predicted ratio leaves [1−0.15, 1+0.15] has
// drifted beyond what the model is known to absorb.
const DefaultBand = 0.15

// Config parameterizes an Engine.
type Config struct {
	// Meta is the performance database to read priors from and write
	// calibrated curves into.
	Meta *metadb.DB
	// Classes maps backend instance names (as they appear in trace
	// events, e.g. "sdsc-disk") to the resource classes the performance
	// database is keyed by (e.g. "remotedisk").  Instances missing from
	// the map fall back to their own name as the class.
	Classes map[string]string
}

// Engine computes residuals and applies calibration.
type Engine struct {
	cfg Config
	pdb *predict.DB
	// minCalls skips cells with fewer observed calls: a single native
	// call is a legitimate sample in virtual time.
	minCalls int64
}

// New returns an engine over the given configuration.
func New(cfg Config) *Engine {
	return &Engine{cfg: cfg, pdb: predict.NewDB(cfg.Meta), minCalls: 1}
}

// Residual is one measured-vs-predicted comparison for a (resource
// class, op) pair, aggregated over every backend instance of that class
// and every size bucket the run touched.
type Residual struct {
	// Resource is the performance-database class ("remotedisk", …).
	Resource string
	// Backends lists the instance names folded into this row.
	Backends []string
	// Op is "read" or "write".
	Op string
	// Calls and MeanBytes summarize the observed traffic.
	Calls     int64
	MeanBytes int64
	// MeasuredSec is the summed observed cost; PredictedSec is what
	// eq. (2)'s unit term t_j(s) × n predicts for the same calls.
	MeasuredSec  float64
	PredictedSec float64
	// Ratio is measured/predicted — the calibration factor.  1 means
	// the curve is exact; 2 means the resource is twice as slow as the
	// database believes.
	Ratio float64
	// Drift is set when |Ratio − 1| exceeds the configured band.
	Drift bool
}

// ErrPct returns the signed prediction error percentage
// ((predicted − measured)/measured × 100).
func (r Residual) ErrPct() float64 {
	if r.MeasuredSec == 0 {
		return 0
	}
	return (r.PredictedSec - r.MeasuredSec) / r.MeasuredSec * 100
}

// class resolves a backend instance name to its resource class.
func (e *Engine) class(backend string) string {
	if c, ok := e.cfg.Classes[backend]; ok {
		return c
	}
	return backend
}

// bucketObs is one observed (size, unit cost) point with its weight.
type bucketObs struct {
	size     int64
	unitSec  float64
	calls    int64
	predSec  float64 // predicted unit at size
	measSec  float64 // total measured cost
	totalPre float64 // total predicted cost
}

// join collects, per (class, op), the observed size-bucket points that
// have a usable prior curve, restricted to data-moving native ops.
func (e *Engine) join(snap []trace.OpStats) map[[2]string][]bucketObs {
	cells := make(map[[2]string][]bucketObs)
	for _, s := range snap {
		op := string(s.Op)
		if op != "read" && op != "write" {
			// Connection/open/close traffic is priced by the eq. (1)
			// constants, and staging spans are composites of native
			// calls already counted — neither belongs on a transfer
			// curve.
			continue
		}
		if s.Calls < e.minCalls {
			continue
		}
		class := e.class(s.Backend)
		for _, b := range s.Sizes {
			if b.Calls == 0 || b.MeanBytes() <= 0 {
				continue
			}
			pred, err := e.pdb.Unit(class, op, b.MeanBytes())
			if err != nil || pred <= 0 {
				// No prior curve to calibrate against.
				continue
			}
			meas := b.Cost.Seconds()
			cells[[2]string{class, op}] = append(cells[[2]string{class, op}], bucketObs{
				size:     b.MeanBytes(),
				unitSec:  meas / float64(b.Calls),
				calls:    b.Calls,
				predSec:  pred,
				measSec:  meas,
				totalPre: pred * float64(b.Calls),
			})
		}
	}
	return cells
}

// residualFor folds one cell's buckets into a Residual; backends lists
// the instances that contributed.
func (e *Engine) residualFor(class, op string, obs []bucketObs, backends []string) Residual {
	r := Residual{Resource: class, Op: op, Backends: backends}
	var bytes int64
	for _, b := range obs {
		r.Calls += b.calls
		bytes += b.size * b.calls
		r.MeasuredSec += b.measSec
		r.PredictedSec += b.totalPre
	}
	if r.Calls > 0 {
		r.MeanBytes = bytes / r.Calls
	}
	if r.PredictedSec > 0 {
		r.Ratio = r.MeasuredSec / r.PredictedSec
	}
	r.Drift = math.Abs(r.Ratio-1) > DefaultBand
	return r
}

// backendsFor lists the distinct instance names in snap mapping to the
// class with the given op.
func (e *Engine) backendsFor(snap []trace.OpStats, class, op string) []string {
	seen := make(map[string]bool)
	var out []string
	for _, s := range snap {
		if string(s.Op) == op && e.class(s.Backend) == class && !seen[s.Backend] {
			seen[s.Backend] = true
			out = append(out, s.Backend)
		}
	}
	sort.Strings(out)
	return out
}

// Residuals joins the metrics snapshot against the current performance
// database and returns one row per observed (resource class, op),
// sorted.  It does not modify the database.
func (e *Engine) Residuals(snap []trace.OpStats) []Residual {
	cells := e.join(snap)
	out := make([]Residual, 0, len(cells))
	for key, obs := range cells {
		out = append(out, e.residualFor(key[0], key[1], obs, e.backendsFor(snap, key[0], key[1])))
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Resource != out[j].Resource {
			return out[i].Resource < out[j].Resource
		}
		return out[i].Op < out[j].Op
	})
	return out
}

// Drifted filters residuals to those outside the band.
func Drifted(rs []Residual) []Residual {
	var out []Residual
	for _, r := range rs {
		if r.Drift {
			out = append(out, r)
		}
	}
	return out
}

// ratioAt interpolates the per-bucket ratio curve at the given size,
// clamping to the nearest observed bucket beyond the ends.
func ratioAt(obs []bucketObs, size int64) float64 {
	if size <= obs[0].size {
		return obs[0].unitSec / obs[0].predSec
	}
	last := obs[len(obs)-1]
	if size >= last.size {
		return last.unitSec / last.predSec
	}
	for i := 0; i < len(obs)-1; i++ {
		a, b := obs[i], obs[i+1]
		if size >= a.size && size <= b.size {
			ra, rb := a.unitSec/a.predSec, b.unitSec/b.predSec
			frac := float64(size-a.size) / float64(b.size-a.size)
			return ra + frac*(rb-ra)
		}
	}
	return last.unitSec / last.predSec
}

// Calibrate computes residuals and writes refreshed transfer-time
// curves back into the performance database for every observed
// (resource class, op): each prior PTool sample is rescaled by the
// ratio curve interpolated at its size, and the observed bucket points
// themselves are added as direct samples.  The result is the online
// PTool: predict.DB.Unit now interpolates curves that agree with what
// the run measured, so placement AUTO and staging inequalities price
// resources at their observed speed.  Returns the pre-calibration
// residuals.
func (e *Engine) Calibrate(snap []trace.OpStats) []Residual {
	res := e.Residuals(snap)
	for key, obs := range e.join(snap) {
		class, op := key[0], key[1]
		sort.Slice(obs, func(i, j int) bool { return obs[i].size < obs[j].size })
		var pts []ptool.Point
		prior := e.cfg.Meta.Samples(nil, class, op)
		seen := make(map[int64]bool)
		for _, b := range obs {
			pts = append(pts, ptool.Point{Size: b.size, Seconds: b.unitSec})
			seen[b.size] = true
		}
		for _, s := range prior {
			if seen[s.Size] {
				continue
			}
			pts = append(pts, ptool.Point{Size: s.Size, Seconds: s.Seconds * ratioAt(obs, s.Size)})
		}
		ptool.StoreCurve(e.cfg.Meta, class, op, pts)
	}
	return res
}

// String renders residuals as a drift report table.
func String(rs []Residual, band float64) string {
	if band <= 0 {
		band = DefaultBand
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-6s %8s %12s %12s %12s %8s %7s\n",
		"resource", "op", "calls", "mean(bytes)", "measured(s)", "predicted(s)", "ratio", "drift")
	for _, r := range rs {
		drift := ""
		if r.Drift {
			drift = fmt.Sprintf("±%.0f%%!", band*100)
		}
		fmt.Fprintf(&b, "%-12s %-6s %8d %12d %12.3f %12.3f %8.3f %7s\n",
			r.Resource, r.Op, r.Calls, r.MeanBytes, r.MeasuredSec, r.PredictedSec, r.Ratio, drift)
	}
	return b.String()
}
