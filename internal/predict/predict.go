// Package predict implements the paper's I/O performance predictor.
//
// The predictor consults the performance database (transfer-time curves
// and eq. (1) constants measured by PTool, stored in the meta-data
// database) and evaluates equation (2):
//
//	T_prediction = Σ_j (N/freq(j) + 1) · n(j) · t_j(s)
//
// where n(j) and the native unit size s are derived from dataset j's
// access pattern and I/O optimization (package ioopt), and t_j(s) is
// interpolated from the measured curve.  Per-dump file-open/close
// constants and per-run connection constants are added exactly as the
// run-time system charges them, so predictions can be compared directly
// with measured run I/O times (figures 9 and 10) and rendered as the
// figure 11 per-dataset table.
package predict

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/ioopt"
	"repro/internal/metadb"
	"repro/internal/pattern"
)

// DB wraps the meta-data database's performance tables with
// interpolation.
type DB struct {
	meta *metadb.DB
}

// NewDB returns a predictor over the given meta-data database.
func NewDB(meta *metadb.DB) *DB { return &DB{meta: meta} }

// Unit returns t(s): the interpolated time in seconds of one native
// call of size s on the resource class, from PTool's samples.
// Piecewise-linear between sample sizes; linear extrapolation beyond
// the ends using the nearest segment's slope.
func (db *DB) Unit(resource, op string, size int64) (float64, error) {
	t, ok := db.Lookup(resource, op, size)
	if !ok {
		return 0, fmt.Errorf("predict: no samples for %s/%s — run PTool first", resource, op)
	}
	return t, nil
}

// Lookup is Unit for a caller that evaluates it per request (the qos
// pricer): ok is false where Unit would fail, and neither outcome
// allocates or takes a lock — the curve is metadb's compiled one.
func (db *DB) Lookup(resource, op string, size int64) (sec float64, ok bool) {
	samples := db.meta.Curve(resource, op)
	switch len(samples) {
	case 0:
		return 0, false
	case 1:
		// Scale by size assuming pure bandwidth behaviour.
		if samples[0].Size <= 0 {
			return samples[0].Seconds, true
		}
		return samples[0].Seconds * float64(size) / float64(samples[0].Size), true
	}
	// Find the bracketing segment (clamping to the first/last segment
	// for extrapolation).
	i := 0
	for i < len(samples)-2 && samples[i+1].Size < size {
		i++
	}
	a, b := samples[i], samples[i+1]
	if b.Size == a.Size {
		return a.Seconds, true
	}
	frac := float64(size-a.Size) / float64(b.Size-a.Size)
	t := a.Seconds + frac*(b.Seconds-a.Seconds)
	if size < samples[0].Size && samples[0].Size > 0 {
		// Extrapolating below the smallest PTool sample: a steep first
		// segment can drive the linear extension negative, which the old
		// code clamped to exactly 0 — "free" small native calls that made
		// the staging inequality and AUTO placement favor absurd plans.
		// Floor at the smallest sample pro-rata (pure-bandwidth scaling),
		// which stays positive and monotone in size.
		if floor := samples[0].Seconds * float64(size) / float64(samples[0].Size); t < floor {
			t = floor
		}
	}
	if t < 0 {
		t = 0
	}
	return t, true
}

// WholeFile returns the predicted seconds for transferring an entire
// file of the given size on the resource class with one native call,
// including the eq. (1) file-open and file-close constants.  This is
// the cost model of the whole-file fast path (storage.PutFile /
// storage.GetFile) that the staging engine uses for tier-to-tier
// copies.
func (db *DB) WholeFile(resource, op string, size int64) (float64, error) {
	t, err := db.Unit(resource, op, size)
	if err != nil {
		return 0, err
	}
	t += db.meta.Constant(nil, resource, op, metadb.CompOpen)
	t += db.meta.Constant(nil, resource, op, metadb.CompClose)
	return t, nil
}

// ConnCost returns the predicted seconds of connection setup for one
// (resource, op) session — the per-run constant eq. (2) charges before
// any transfer.  Tier-to-tier copy pipelines (staging, workflow
// prefetch) add it once per session they open.
func (db *DB) ConnCost(resource, op string) float64 {
	return db.meta.Constant(nil, resource, op, metadb.CompConn)
}

// DatasetReq describes one dataset for prediction, mirroring the
// columns of the figure 11 screen.
type DatasetReq struct {
	Name      string
	AMode     string // create / over_write / read
	Dims      []int
	Etype     int
	Pattern   string
	Location  string     // resource class: localdisk / remotedisk / remotetape
	Frequency int        // dump every Frequency iterations
	Opt       ioopt.Kind // I/O optimization (Collective by default)
	Procs     int        // parallel processes (for the grid)
}

// RunReq is a whole application run to predict.
type RunReq struct {
	Iterations int
	Op         string // "write" for producers, "read" for consumers
	Datasets   []DatasetReq
}

// DatasetPrediction is one row of the figure 11 table.
type DatasetPrediction struct {
	Name        string
	Resource    string
	Dumps       int // N/freq + 1
	NativeCalls int // n(j)
	UnitBytes   int64
	UnitSeconds float64
	// VirtualTime is the dataset's total predicted I/O time over the run
	// (the VIRTUALTIME column of figure 11).
	VirtualTime time.Duration
}

// RunPrediction is the full eq. (2) evaluation.
type RunPrediction struct {
	Datasets []DatasetPrediction
	// Total is the sum over datasets plus per-run connection costs.
	Total time.Duration
}

// PredictDataset evaluates one dataset's term of eq. (2).
func (db *DB) PredictDataset(d DatasetReq, iterations int) (DatasetPrediction, error) {
	if d.Frequency <= 0 {
		d.Frequency = 1
	}
	if d.Procs <= 0 {
		d.Procs = 1
	}
	if d.Location == "" || strings.EqualFold(d.Location, "DISABLE") {
		return DatasetPrediction{Name: d.Name, Resource: "-"}, nil
	}
	op, err := NormalizeAMode(d.AMode)
	if err != nil {
		return DatasetPrediction{}, fmt.Errorf("predict %q: %w", d.Name, err)
	}
	pat, err := pattern.Parse(d.Pattern)
	if err != nil {
		return DatasetPrediction{}, fmt.Errorf("predict %q: %w", d.Name, err)
	}
	grid, err := gridFor(pat, d.Dims, d.Procs)
	if err != nil {
		return DatasetPrediction{}, fmt.Errorf("predict %q: %w", d.Name, err)
	}
	n, unit, err := d.Opt.Calls(d.Dims, d.Etype, pat, grid)
	if err != nil {
		return DatasetPrediction{}, fmt.Errorf("predict %q: %w", d.Name, err)
	}
	t, err := db.Unit(d.Location, op, unit)
	if err != nil {
		return DatasetPrediction{}, fmt.Errorf("predict %q: %w", d.Name, err)
	}
	dumps := iterations/d.Frequency + 1
	open := db.meta.Constant(nil, d.Location, op, metadb.CompOpen)
	cls := db.meta.Constant(nil, d.Location, op, metadb.CompClose)
	perDump := float64(n)*t + open + cls
	if d.Opt == ioopt.Naive && op == "read" {
		// Every strided native call repositions: charge the Table 1 seek
		// constant per call.  The optimized strategies position once as
		// part of the open, which Table 1 prices into that constant.
		perDump += float64(n) * db.meta.Constant(nil, d.Location, op, metadb.CompSeek)
	}
	total := float64(dumps) * perDump
	return DatasetPrediction{
		Name:        d.Name,
		Resource:    d.Location,
		Dumps:       dumps,
		NativeCalls: n,
		UnitBytes:   unit,
		UnitSeconds: t,
		VirtualTime: secs(total),
	}, nil
}

// NormalizeAMode maps an access-mode string (any case) to the
// performance-table op it is priced with: "read" for reads, "write" for
// the writable modes (create / over_write / write).  Unknown modes are
// an error rather than silently priced as writes.
func NormalizeAMode(amode string) (string, error) {
	switch strings.ToLower(strings.TrimSpace(amode)) {
	case "read":
		return "read", nil
	case "create", "over_write", "write":
		return "write", nil
	default:
		return "", fmt.Errorf("predict: unknown access mode %q (want read/create/over_write/write)", amode)
	}
}

// connKey is one (resource, op) connection charge.
type connKey struct{ resource, op string }

// Predict evaluates eq. (2) for a whole run, adding one
// connection-setup/teardown charge per (resource, op) pair the run's
// datasets actually use — a resource that is only ever read from is
// charged the read connection constants, matching how the run-time
// system opens its sessions.  RunReq.Op is kept for callers that label
// a run, but it no longer decides connection pricing.
func (db *DB) Predict(r RunReq) (RunPrediction, error) {
	var out RunPrediction
	conns := make(map[connKey]bool)
	for _, d := range r.Datasets {
		dp, err := db.PredictDataset(d, r.Iterations)
		if err != nil {
			return RunPrediction{}, err
		}
		out.Datasets = append(out.Datasets, dp)
		out.Total += dp.VirtualTime
		if dp.Resource != "-" {
			op, err := NormalizeAMode(d.AMode)
			if err != nil {
				return RunPrediction{}, fmt.Errorf("predict %q: %w", d.Name, err)
			}
			conns[connKey{dp.Resource, op}] = true
		}
	}
	for k := range conns {
		conn := db.meta.Constant(nil, k.resource, k.op, metadb.CompConn)
		connClose := db.meta.Constant(nil, k.resource, k.op, metadb.CompConnClose)
		out.Total += secs(conn + connClose)
	}
	return out, nil
}

// gridFor reproduces the core package's grid derivation so predictions
// and measurements agree on the decomposition.
func gridFor(pat pattern.Pattern, dims []int, procs int) (pattern.Grid, error) {
	distributed := 0
	for _, p := range pat {
		if p != pattern.All {
			distributed++
		}
	}
	if distributed == 0 {
		g := make(pattern.Grid, len(dims))
		for i := range g {
			g[i] = 1
		}
		return g, nil
	}
	sub, err := pattern.DefaultGrid(distributed, procs)
	if err != nil {
		return nil, err
	}
	g := make(pattern.Grid, len(dims))
	j := 0
	for i, p := range pat {
		if p == pattern.All {
			g[i] = 1
		} else {
			g[i] = sub[j]
			j++
		}
	}
	return g, nil
}

func secs(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}

// TableString renders a RunPrediction as the figure 11 screen: one row
// per dataset with its expected location and predicted virtual time.
func (rp RunPrediction) TableString() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %-12s %6s %6s %12s %14s\n",
		"NAME", "EXPECTEDLOC", "DUMPS", "n(j)", "UNIT(bytes)", "VIRTUALTIME(s)")
	for _, d := range rp.Datasets {
		fmt.Fprintf(&b, "%-14s %-12s %6d %6d %12d %14.4f\n",
			d.Name, d.Resource, d.Dumps, d.NativeCalls, d.UnitBytes, d.VirtualTime.Seconds())
	}
	fmt.Fprintf(&b, "%-14s %-12s %6s %6s %12s %14.4f\n", "TOTAL", "", "", "", "", rp.Total.Seconds())
	return b.String()
}
