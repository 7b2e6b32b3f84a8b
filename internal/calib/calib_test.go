package calib

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/metadb"
	"repro/internal/predict"
	"repro/internal/trace"
)

// trueUnit is the "real" per-call time the fake resource charges:
// 50 MB/s of bandwidth.
func trueUnit(size int64) float64 { return float64(size) / (50 << 20) }

// skewedDB seeds a performance database whose remotedisk/write curve is
// 3× too optimistic — the scenario calibration must correct.
func skewedDB() *metadb.DB {
	meta := metadb.New()
	for s := int64(64 << 10); s <= 16<<20; s <<= 1 {
		meta.AddSample(nil, metadb.PerfSample{Resource: "remotedisk", Op: "write", Size: s, Seconds: trueUnit(s) / 3})
	}
	return meta
}

// observe synthesizes the metrics a run against the true resource
// would fold: calls per size with the true cost, issued by instance
// "sdsc-disk" of class remotedisk.
func observe(m *trace.Metrics, calls int, sizes ...int64) {
	for _, size := range sizes {
		for i := 0; i < calls; i++ {
			m.Observe(trace.Event{
				Backend: "sdsc-disk", Op: trace.OpWrite, Path: "d",
				Bytes: size, Cost: time.Duration(trueUnit(size) * float64(time.Second)),
			})
		}
	}
}

func TestResidualsDetectDrift(t *testing.T) {
	meta := skewedDB()
	m := trace.NewMetrics()
	observe(m, 4, 128<<10, 1<<20, 8<<20)
	e := New(Config{Meta: meta, Classes: map[string]string{"sdsc-disk": "remotedisk"}})
	rs := e.Residuals(m.Snapshot())
	if len(rs) != 1 {
		t.Fatalf("residuals = %+v", rs)
	}
	r := rs[0]
	if r.Resource != "remotedisk" || r.Op != "write" || r.Calls != 12 {
		t.Fatalf("residual = %+v", r)
	}
	if math.Abs(r.Ratio-3) > 0.2 {
		t.Fatalf("ratio = %v, want ≈3 (db curve is 3× optimistic)", r.Ratio)
	}
	if !r.Drift {
		t.Fatal("3× error not flagged as drift with a 15% band")
	}
	if len(Drifted(rs)) != 1 {
		t.Fatal("Drifted filter")
	}
	if len(r.Backends) != 1 || r.Backends[0] != "sdsc-disk" {
		t.Fatalf("backends = %v", r.Backends)
	}
	s := String(rs, 0)
	if !strings.Contains(s, "remotedisk") || !strings.Contains(s, "±15%!") {
		t.Fatalf("report:\n%s", s)
	}
}

// TestCalibrateRoundTrip is the calibration round-trip: a skewed curve
// goes in, a run's measurements are folded, and afterwards the
// predictor's unit times must sit close to the true resource speed —
// including at sizes the run never touched (rescaled prior samples) and
// in the small-size extrapolation regime.
func TestCalibrateRoundTrip(t *testing.T) {
	meta := skewedDB()
	pdb := predict.NewDB(meta)
	m := trace.NewMetrics()
	observe(m, 4, 128<<10, 1<<20, 8<<20)

	errAt := func(size int64) float64 {
		u, err := pdb.Unit("remotedisk", "write", size)
		if err != nil {
			t.Fatal(err)
		}
		return math.Abs(u-trueUnit(size)) / trueUnit(size)
	}

	before := errAt(1 << 20)
	if before < 0.5 {
		t.Fatalf("scenario not skewed enough: before-error = %v", before)
	}

	e := New(Config{Meta: meta, Classes: map[string]string{"sdsc-disk": "remotedisk"}})
	rs := e.Calibrate(m.Snapshot())
	if len(rs) != 1 || !rs[0].Drift {
		t.Fatalf("pre-calibration residuals = %+v", rs)
	}

	for _, size := range []int64{128 << 10, 1 << 20, 8 << 20} { // observed sizes
		if e := errAt(size); e > 0.05 {
			t.Fatalf("post-calibration error at observed size %d = %v", size, e)
		}
	}
	for _, size := range []int64{256 << 10, 4 << 20, 16 << 20} { // rescaled priors
		if e := errAt(size); e > 0.15 {
			t.Fatalf("post-calibration error at unobserved size %d = %v", size, e)
		}
	}
	// Second pass: residuals now sit inside the band.
	rs2 := e.Residuals(m.Snapshot())
	if len(rs2) != 1 || rs2[0].Drift {
		t.Fatalf("post-calibration residuals still drifting: %+v", rs2)
	}
	if math.Abs(rs2[0].Ratio-1) > 0.1 {
		t.Fatalf("post-calibration ratio = %v, want ≈1", rs2[0].Ratio)
	}
}

func TestNonDataOpsAndUnknownCurvesSkipped(t *testing.T) {
	meta := skewedDB()
	m := trace.NewMetrics()
	// Span + constant-priced ops must not produce residual rows.
	m.Observe(trace.Event{Backend: "sdsc-disk", Op: trace.OpStageIn, Bytes: 1 << 20, Cost: time.Second})
	m.Observe(trace.Event{Backend: "sdsc-disk", Op: trace.OpOpen, Cost: time.Millisecond})
	// Reads have no prior curve in skewedDB: no residual either.
	m.Observe(trace.Event{Backend: "sdsc-disk", Op: trace.OpRead, Bytes: 1 << 20, Cost: time.Second})
	e := New(Config{Meta: meta, Classes: map[string]string{"sdsc-disk": "remotedisk"}})
	if rs := e.Residuals(m.Snapshot()); len(rs) != 0 {
		t.Fatalf("unexpected residuals: %+v", rs)
	}
}

func TestMinCallsSkipsThinCells(t *testing.T) {
	meta := skewedDB()
	m := trace.NewMetrics()
	observe(m, 2, 1<<20)
	e := New(Config{Meta: meta, Classes: map[string]string{"sdsc-disk": "remotedisk"}})
	e.minCalls = 5
	if rs := e.Residuals(m.Snapshot()); len(rs) != 0 {
		t.Fatalf("thin cell calibrated: %+v", rs)
	}
}

func TestClassFallbackIsInstanceName(t *testing.T) {
	meta := metadb.New()
	meta.AddSample(nil, metadb.PerfSample{Resource: "solo", Op: "write", Size: 1 << 20, Seconds: 1})
	m := trace.NewMetrics()
	m.Observe(trace.Event{Backend: "solo", Op: trace.OpWrite, Bytes: 1 << 20, Cost: 2 * time.Second})
	e := New(Config{Meta: meta})
	rs := e.Residuals(m.Snapshot())
	if len(rs) != 1 || rs[0].Resource != "solo" || math.Abs(rs[0].Ratio-2) > 0.01 {
		t.Fatalf("fallback residuals = %+v", rs)
	}
}
