// Package astro3d is the reproduction's stand-in for the paper's main
// application: "a code for scalably parallel architectures to solve the
// equations of compressible hydrodynamics for a gas in which the
// thermal conductivity changes as a function of temperature".
//
// The numerical scheme is a deliberately simplified explicit
// finite-difference proxy (central-difference mass transport, pressure
// acceleration, and nonlinear temperature-dependent thermal diffusion)
// rather than the original's higher-order Godunov + Crank–Nicholson
// multigrid: the I/O
// architecture under study only observes dataset names, sizes, element
// types, dump frequencies and access patterns, all of which match the
// paper exactly (Table 2 and figure 2).  The solver still genuinely
// computes — ranks exchange ghost planes every step and the consumers
// (MSE analysis, Volren) read back evolving data.
//
// Per the paper, each iteration may dump three dataset groups:
//
//	analysis (float32):  press, temp, rho, ux, uy, uz
//	visualization (u8):  vr_scalar, vr_press, vr_rho, vr_temp, vr_mach, vr_ek, vr_logrho
//	checkpoint (float32, over_write): restart_press, restart_temp,
//	                     restart_rho, restart_ux, restart_uy, restart_uz
package astro3d

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/ioopt"
	"repro/internal/pattern"
	"repro/internal/storage"
	"repro/internal/vtime"
)

// Dataset name groups (figure 2 of the paper).
var (
	analysisNames   = []string{"press", "temp", "rho", "ux", "uy", "uz"}
	vizNames        = []string{"vr_scalar", "vr_press", "vr_rho", "vr_temp", "vr_mach", "vr_ek", "vr_logrho"}
	checkpointNames = []string{"restart_press", "restart_temp", "restart_rho", "restart_ux", "restart_uy", "restart_uz"}
)

// AnalysisNames returns the float32 data-analysis dataset names.
func AnalysisNames() []string { return append([]string(nil), analysisNames...) }

// VizNames returns the unsigned-char visualization dataset names.
func VizNames() []string { return append([]string(nil), vizNames...) }

// CheckpointNames returns the checkpoint/restart dataset names.
func CheckpointNames() []string { return append([]string(nil), checkpointNames...) }

// AllNames returns all 19 dataset names.
func AllNames() []string {
	all := AnalysisNames()
	all = append(all, VizNames()...)
	all = append(all, CheckpointNames()...)
	return all
}

// Params configures a run; the zero value of the frequencies disables
// the corresponding group.
type Params struct {
	// Problem size (Table 2 default: 128×128×128; tests use smaller).
	Nx, Ny, Nz int
	// MaxIter is the maximum number of iterations N.
	MaxIter int
	// Dump frequencies for the three groups (Table 2 default: 6 each).
	AnalysisFreq, VizFreq, CheckpointFreq int
	// Procs is the number of parallel ranks.
	Procs int
	// Locations carries the user's per-dataset 'location' hints; unnamed
	// datasets default to DefaultLocation.
	Locations map[string]core.Location
	// DefaultLocation applies to datasets absent from Locations
	// (LocAuto — i.e. remote tape — if unset, as in the paper).
	DefaultLocation core.Location
	// Opt is the run-time optimization for all datasets (Collective by
	// default).
	Opt ioopt.Kind
}

// flopRate models the per-rank compute speed in cell-updates/second of
// virtual time (a year-2000 RS/6000-390-ish rate for this kernel).
// Compute time is charged between dumps but reported separately from
// I/O time.
const flopRate = 2e6

func (p *Params) setDefaults() {
	if p.Nx == 0 {
		p.Nx, p.Ny, p.Nz = 128, 128, 128
	}
	if p.MaxIter == 0 {
		p.MaxIter = 120
	}
	if p.Procs == 0 {
		p.Procs = 8
	}
}

// Report summarizes a completed run.
type Report struct {
	RunID     string
	Dumps     int
	BytesOut  int64
	IOTime    time.Duration
	TotalTime time.Duration
	// DatasetIOTime maps each dataset to its accumulated I/O time.
	DatasetIOTime map[string]time.Duration
	// Checksum fingerprints the final field state (determinism checks).
	Checksum uint64
}

// Run executes the simulation against the multi-storage system.
func Run(sys *core.System, runID string, prm Params) (Report, error) {
	prm.setDefaults()
	if prm.Nx < prm.Procs {
		return Report{}, fmt.Errorf("astro3d: %d ranks need Nx >= Procs (got %d)", prm.Procs, prm.Nx)
	}
	return runFromState(sys, runID, prm, newState(prm))
}

// runFromState executes the main loop from an existing field state
// (fresh for Run, checkpoint-restored for ContinueRun).
func runFromState(sys *core.System, runID string, prm Params, st *state) (Report, error) {
	if prm.Nx < prm.Procs {
		return Report{}, fmt.Errorf("astro3d: %d ranks need Nx >= Procs (got %d)", prm.Procs, prm.Nx)
	}
	run, err := sys.Initialize(core.RunConfig{
		ID: runID, App: "astro3d", User: "shen",
		Iterations: prm.MaxIter, Procs: prm.Procs,
	})
	if err != nil {
		return Report{}, err
	}

	loc := func(name string) core.Location {
		if l, ok := prm.Locations[name]; ok {
			return l
		}
		return prm.DefaultLocation
	}
	pat := pattern.Pattern{pattern.Block, pattern.All, pattern.All}
	dims := []int{prm.Nx, prm.Ny, prm.Nz}
	open := func(names []string, etype int, freq int, amode storage.AMode) (map[string]*core.Dataset, error) {
		out := make(map[string]*core.Dataset, len(names))
		if freq <= 0 {
			return out, nil
		}
		for _, name := range names {
			d, err := run.OpenDataset(core.DatasetSpec{
				Name: name, AMode: amode, Dims: dims, Etype: etype,
				Pattern: pat, Location: loc(name), Frequency: freq, Opt: prm.Opt,
			})
			if err != nil {
				return nil, err
			}
			out[name] = d
		}
		return out, nil
	}
	analysis, err := open(analysisNames, 4, prm.AnalysisFreq, storage.ModeCreate)
	if err != nil {
		return Report{}, err
	}
	viz, err := open(vizNames, 1, prm.VizFreq, storage.ModeCreate)
	if err != nil {
		return Report{}, err
	}
	checkpoint, err := open(checkpointNames, 4, prm.CheckpointFreq, storage.ModeOverWrite)
	if err != nil {
		return Report{}, err
	}

	rep := Report{RunID: runID, DatasetIOTime: make(map[string]time.Duration)}
	procs := run.Procs()

	dump := func(group map[string]*core.Dataset, iter int) error {
		for _, name := range orderedNames(group) {
			d := group[name]
			if !d.Due(iter) {
				continue
			}
			bufs := st.datasetBufs(name)
			if err := d.WriteIter(iter, bufs); err != nil {
				return err
			}
			if !d.Disabled() {
				rep.Dumps++
				rep.BytesOut += d.Spec().Size()
			}
		}
		return nil
	}

	// The paper's main loop (figure 2), with a final dump of the state at
	// i == N so each dataset sees N/freq + 1 instances — the count the
	// predictor's eq. (2) uses.
	for i := 0; i <= prm.MaxIter; i++ {
		if err := dump(analysis, i); err != nil {
			return rep, err
		}
		if err := dump(viz, i); err != nil {
			return rep, err
		}
		if err := dump(checkpoint, i); err != nil {
			return rep, err
		}
		if i < prm.MaxIter {
			st.step(procs, flopRate)
		}
	}
	rep.IOTime = run.IOTime()
	rep.TotalTime = vtime.MaxNow(procs...)
	for name, d := range merged(analysis, viz, checkpoint) {
		rep.DatasetIOTime[name] = d.Stats().IOTime
	}
	rep.Checksum = st.checksum()
	if err := run.Finalize(); err != nil {
		return rep, err
	}
	return rep, nil
}

func orderedNames(m map[string]*core.Dataset) []string {
	var names []string
	for _, group := range [][]string{analysisNames, vizNames, checkpointNames} {
		for _, n := range group {
			if _, ok := m[n]; ok {
				names = append(names, n)
			}
		}
	}
	return names
}

func merged(ms ...map[string]*core.Dataset) map[string]*core.Dataset {
	out := make(map[string]*core.Dataset)
	for _, m := range ms {
		for k, v := range m {
			out[k] = v
		}
	}
	return out
}

// state is the distributed field state: x-slab decomposition with one
// ghost plane on each side of every rank.
type state struct {
	nx, ny, nz int
	procs      int
	ranks      []*rank
}

type rank struct {
	id      int
	lo, hi  int // global interior x range [lo, hi)
	ny, nz  int
	rho     []float32 // (hi-lo+2) × ny × nz including ghost planes
	temp    []float32
	ux      []float32
	uy      []float32
	uz      []float32
	scratch []float32
	toRight chan []float32
	toLeft  chan []float32
}

func newState(prm Params) *state {
	st := &state{nx: prm.Nx, ny: prm.Ny, nz: prm.Nz, procs: prm.Procs}
	toRight := make([]chan []float32, prm.Procs)
	toLeft := make([]chan []float32, prm.Procs)
	for i := range toRight {
		toRight[i] = make(chan []float32, 1)
		toLeft[i] = make(chan []float32, 1)
	}
	for r := 0; r < prm.Procs; r++ {
		lo := prm.Nx * r / prm.Procs
		hi := prm.Nx * (r + 1) / prm.Procs
		n := (hi - lo + 2) * prm.Ny * prm.Nz
		rk := &rank{
			id: r, lo: lo, hi: hi, ny: prm.Ny, nz: prm.Nz,
			rho: make([]float32, n), temp: make([]float32, n),
			ux: make([]float32, n), uy: make([]float32, n), uz: make([]float32, n),
			scratch: make([]float32, n),
			toRight: toRight[r], toLeft: toLeft[r],
		}
		rk.init(st.nx)
		st.ranks = append(st.ranks, rk)
	}
	return st
}

// idx addresses (x, y, z) with x in ghost coordinates (0 = left ghost).
func (rk *rank) idx(x, y, z int) int { return (x*rk.ny+y)*rk.nz + z }

// init sets the initial condition: a hot dense blob in the domain
// centre with a small deterministic perturbation field.
func (rk *rank) init(nx int) {
	cx, cy, cz := float64(nx)/2, float64(rk.ny)/2, float64(rk.nz)/2
	scale := float64(nx) / 4
	for x := rk.lo; x < rk.hi; x++ {
		for y := 0; y < rk.ny; y++ {
			for z := 0; z < rk.nz; z++ {
				i := rk.idx(x-rk.lo+1, y, z)
				dx, dy, dz := (float64(x)-cx)/scale, (float64(y)-cy)/scale, (float64(z)-cz)/scale
				r2 := dx*dx + dy*dy + dz*dz
				noise := float32(hash3(x, y, z)%1000)/1e5 - 0.005
				rk.temp[i] = float32(1.0+2.0*math.Exp(-r2)) + noise
				rk.rho[i] = float32(1.0+0.5*math.Exp(-r2)) + noise
				rk.ux[i], rk.uy[i], rk.uz[i] = 0, 0, noise
			}
		}
	}
}

func hash3(x, y, z int) uint32 {
	h := uint32(2166136261)
	for _, v := range [3]int{x, y, z} {
		h ^= uint32(v)
		h *= 16777619
	}
	return h
}

// step advances the whole field one iteration: ghost exchange, then the
// explicit update, charging each rank's virtual clock for the compute.
func (st *state) step(procs []*vtime.Proc, flopRate float64) {
	var wg sync.WaitGroup
	for r, rk := range st.ranks {
		wg.Add(1)
		go func(r int, rk *rank) {
			defer wg.Done()
			st.exchange(rk)
			rk.update()
			cells := float64((rk.hi - rk.lo) * rk.ny * rk.nz)
			procs[r].Advance(time.Duration(cells / flopRate * float64(time.Second)))
		}(r, rk)
	}
	wg.Wait()
	vtime.Barrier(procs...)
}

// exchange swaps boundary planes with the x-neighbours (periodic ring).
// Each plane carries the five fields back to back.
func (st *state) exchange(rk *rank) {
	n := rk.ny * rk.nz
	pack := func(x int) []float32 {
		out := make([]float32, 5*n)
		base := rk.idx(x, 0, 0)
		copy(out[0*n:], rk.rho[base:base+n])
		copy(out[1*n:], rk.temp[base:base+n])
		copy(out[2*n:], rk.ux[base:base+n])
		copy(out[3*n:], rk.uy[base:base+n])
		copy(out[4*n:], rk.uz[base:base+n])
		return out
	}
	unpack := func(x int, in []float32) {
		base := rk.idx(x, 0, 0)
		copy(rk.rho[base:base+n], in[0*n:1*n])
		copy(rk.temp[base:base+n], in[1*n:2*n])
		copy(rk.ux[base:base+n], in[2*n:3*n])
		copy(rk.uy[base:base+n], in[3*n:4*n])
		copy(rk.uz[base:base+n], in[4*n:5*n])
	}
	lnx := rk.hi - rk.lo
	rk.toRight <- pack(lnx) // last interior plane → right neighbour
	rk.toLeft <- pack(1)    // first interior plane → left neighbour
	left := st.ranks[(rk.id+st.procs-1)%st.procs]
	right := st.ranks[(rk.id+1)%st.procs]
	unpack(0, <-left.toRight)     // left ghost
	unpack(lnx+1, <-right.toLeft) // right ghost
}

// update applies the explicit proxy scheme on the interior cells.
func (rk *rank) update() {
	const (
		dtDiff = 0.05  // diffusion number (stable: k·dtDiff ≤ 1/6 with k ≤ 3)
		dtAdv  = 0.05  // advection/acceleration step
		damp   = 0.995 // velocity damping
	)
	lnx := rk.hi - rk.lo
	newTemp := rk.scratch
	for x := 1; x <= lnx; x++ {
		for y := 0; y < rk.ny; y++ {
			ym, yp := (y+rk.ny-1)%rk.ny, (y+1)%rk.ny
			for z := 0; z < rk.nz; z++ {
				zm, zp := (z+rk.nz-1)%rk.nz, (z+1)%rk.nz
				i := rk.idx(x, y, z)
				t := rk.temp[i]
				// Temperature-dependent conductivity k(T) ∝ T^(5/2),
				// normalized to stay inside the stability bound.
				k := float32(math.Sqrt(float64(t))) * t * t / 8
				if k > 3 {
					k = 3
				}
				lap := rk.temp[rk.idx(x-1, y, z)] + rk.temp[rk.idx(x+1, y, z)] +
					rk.temp[rk.idx(x, ym, z)] + rk.temp[rk.idx(x, yp, z)] +
					rk.temp[rk.idx(x, y, zm)] + rk.temp[rk.idx(x, y, zp)] - 6*t
				newTemp[i] = clamp(t+dtDiff*k*lap, 0.1, 10)
			}
		}
	}
	for x := 1; x <= lnx; x++ {
		for y := 0; y < rk.ny; y++ {
			ym, yp := (y+rk.ny-1)%rk.ny, (y+1)%rk.ny
			for z := 0; z < rk.nz; z++ {
				zm, zp := (z+rk.nz-1)%rk.nz, (z+1)%rk.nz
				i := rk.idx(x, y, z)
				// Pressure gradient acceleration with p = ρT.
				px0 := rk.rho[rk.idx(x-1, y, z)] * rk.temp[rk.idx(x-1, y, z)]
				px1 := rk.rho[rk.idx(x+1, y, z)] * rk.temp[rk.idx(x+1, y, z)]
				py0 := rk.rho[rk.idx(x, ym, z)] * rk.temp[rk.idx(x, ym, z)]
				py1 := rk.rho[rk.idx(x, yp, z)] * rk.temp[rk.idx(x, yp, z)]
				pz0 := rk.rho[rk.idx(x, y, zm)] * rk.temp[rk.idx(x, y, zm)]
				pz1 := rk.rho[rk.idx(x, y, zp)] * rk.temp[rk.idx(x, y, zp)]
				inv := 1 / rk.rho[i]
				rk.ux[i] = clamp((rk.ux[i]-dtAdv*(px1-px0)/2*inv)*damp, -2, 2)
				rk.uy[i] = clamp((rk.uy[i]-dtAdv*(py1-py0)/2*inv)*damp, -2, 2)
				rk.uz[i] = clamp((rk.uz[i]-dtAdv*(pz1-pz0)/2*inv)*damp, -2, 2)
				// Mass continuity, first-order central, clamped.
				dρ := rk.rho[rk.idx(x+1, y, z)]*rk.ux[rk.idx(x+1, y, z)] - rk.rho[rk.idx(x-1, y, z)]*rk.ux[rk.idx(x-1, y, z)] +
					rk.rho[rk.idx(x, yp, z)]*rk.uy[rk.idx(x, yp, z)] - rk.rho[rk.idx(x, ym, z)]*rk.uy[rk.idx(x, ym, z)] +
					rk.rho[rk.idx(x, y, zp)]*rk.uz[rk.idx(x, y, zp)] - rk.rho[rk.idx(x, y, zm)]*rk.uz[rk.idx(x, y, zm)]
				rk.rho[i] = clamp(rk.rho[i]-dtAdv*dρ/2, 0.1, 10)
			}
		}
	}
	// Commit the diffusion pass.
	for x := 1; x <= lnx; x++ {
		base := rk.idx(x, 0, 0)
		copy(rk.temp[base:base+rk.ny*rk.nz], newTemp[base:base+rk.ny*rk.nz])
	}
}

func clamp(v, lo, hi float32) float32 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// field returns the named physical field of a rank (derived fields are
// computed on the fly).
func (rk *rank) field(name string) func(i int) float32 {
	switch name {
	case "rho", "restart_rho", "vr_rho":
		return func(i int) float32 { return rk.rho[i] }
	case "temp", "restart_temp", "vr_temp", "vr_scalar":
		return func(i int) float32 { return rk.temp[i] }
	case "press", "restart_press", "vr_press":
		return func(i int) float32 { return rk.rho[i] * rk.temp[i] }
	case "ux", "restart_ux":
		return func(i int) float32 { return rk.ux[i] }
	case "uy", "restart_uy":
		return func(i int) float32 { return rk.uy[i] }
	case "uz", "restart_uz":
		return func(i int) float32 { return rk.uz[i] }
	case "vr_mach":
		return func(i int) float32 {
			u2 := rk.ux[i]*rk.ux[i] + rk.uy[i]*rk.uy[i] + rk.uz[i]*rk.uz[i]
			c := math.Sqrt(float64(rk.temp[i]))
			if c == 0 {
				return 0
			}
			return float32(math.Sqrt(float64(u2)) / c)
		}
	case "vr_ek":
		return func(i int) float32 {
			u2 := rk.ux[i]*rk.ux[i] + rk.uy[i]*rk.uy[i] + rk.uz[i]*rk.uz[i]
			return 0.5 * rk.rho[i] * u2
		}
	case "vr_logrho":
		return func(i int) float32 { return float32(math.Log(float64(rk.rho[i]))) }
	default:
		return nil
	}
}

// vizRange is the normalization window for each visualization variable.
func vizRange(name string) (lo, hi float32) {
	switch name {
	case "vr_mach", "vr_ek":
		return 0, 2
	case "vr_logrho":
		return -2.5, 2.5
	default:
		return 0, 3.5
	}
}

// datasetBufs packs the per-rank local buffers of a dataset: float32
// little-endian for analysis/checkpoint datasets, normalized unsigned
// char for visualization datasets.
func (st *state) datasetBufs(name string) [][]byte {
	u8 := len(name) > 3 && name[:3] == "vr_"
	bufs := make([][]byte, len(st.ranks))
	var wg sync.WaitGroup
	for r, rk := range st.ranks {
		wg.Add(1)
		go func(r int, rk *rank) {
			defer wg.Done()
			f := rk.field(name)
			cells := (rk.hi - rk.lo) * rk.ny * rk.nz
			if u8 {
				lo, hi := vizRange(name)
				out := make([]byte, cells)
				pos := 0
				for x := 1; x <= rk.hi-rk.lo; x++ {
					base := rk.idx(x, 0, 0)
					for j := 0; j < rk.ny*rk.nz; j++ {
						v := (f(base+j) - lo) / (hi - lo)
						out[pos] = byte(clamp(v, 0, 1) * 255)
						pos++
					}
				}
				bufs[r] = out
				return
			}
			out := make([]byte, 4*cells)
			pos := 0
			for x := 1; x <= rk.hi-rk.lo; x++ {
				base := rk.idx(x, 0, 0)
				for j := 0; j < rk.ny*rk.nz; j++ {
					binary.LittleEndian.PutUint32(out[pos:], math.Float32bits(f(base+j)))
					pos += 4
				}
			}
			bufs[r] = out
		}(r, rk)
	}
	wg.Wait()
	return bufs
}

// checksum fingerprints the final interior state.
func (st *state) checksum() uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, rk := range st.ranks {
		for x := 1; x <= rk.hi-rk.lo; x++ {
			base := rk.idx(x, 0, 0)
			for j := 0; j < rk.ny*rk.nz; j++ {
				binary.LittleEndian.PutUint32(b[:], math.Float32bits(rk.temp[base+j]))
				h.Write(b[:])
			}
		}
	}
	return h.Sum64()
}
