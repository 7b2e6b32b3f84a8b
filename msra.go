// Package msra is the public facade of the multi-storage resource
// architecture reproduction: a from-scratch Go implementation of
// X. Shen, A. Choudhary, C. Matarazzo and P. Sinha, "A Distributed
// Multi-Storage Resource Architecture and I/O Performance Prediction
// for Scientific Computing" (HPDC 2000).
//
// The facade re-exports the layers a downstream user composes:
//
//   - storage resources: NewLocalDisk, NewRemoteDisk, NewTapeLibrary
//     (the paper's SP2 SSA disks, SDSC remote disks and HPSS tapes);
//   - the SRB-like middleware (NewBroker, ServeSRB, NewSRBClient) for
//     reaching resources over TCP;
//   - the user API (NewSystem, RunConfig, DatasetSpec, location hints);
//   - the I/O performance predictor (NewPredictor) and PTool
//     (MeasurePerformance);
//   - virtual time (NewVirtualTime, NewScaledTime) so experiments with
//     year-2000 device characteristics finish in milliseconds.
//
// Only what cmd/, examples/ and the tests use is re-exported; the
// journal, lifecycle engine, cluster, workflow, calibration and
// resilience layers are used through their internal packages.  See the
// examples directory for runnable end-to-end scenarios and DESIGN.md
// for the architecture map.
package msra

import (
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/ioopt"
	"repro/internal/localdisk"
	"repro/internal/memfs"
	"repro/internal/metadb"
	"repro/internal/model"
	"repro/internal/osfs"
	"repro/internal/pattern"
	"repro/internal/placement"
	"repro/internal/predict"
	"repro/internal/ptool"
	"repro/internal/qos"
	"repro/internal/remotedisk"
	"repro/internal/resilient"
	"repro/internal/srb"
	"repro/internal/srbnet"
	"repro/internal/stage"
	"repro/internal/storage"
	"repro/internal/tape"
	"repro/internal/vtime"
)

// Core user-API types (the paper's primary contribution).
type (
	// System is the configured multi-storage environment.
	System = core.System
	// SystemConfig wires backends, meta-data DB and time domain together.
	SystemConfig = core.SystemConfig
	// RunConfig identifies a run.
	RunConfig = core.RunConfig
	// DatasetSpec carries the user's high-level dataset hint.
	DatasetSpec = core.DatasetSpec
	// Location is the per-dataset placement hint.
	Location = core.Location
	// Placer chooses storage resources for datasets.
	Placer = core.Placer
)

// Location hint values, exactly as the paper names them.
const (
	Auto       = core.LocAuto
	LocalDisk  = core.LocLocalDisk
	RemoteDisk = core.LocRemoteDisk
	RemoteTape = core.LocRemoteTape
	LocalDB    = core.LocLocalDB
	Disable    = core.LocDisable
)

// Access modes.
const (
	ModeRead      = storage.ModeRead
	ModeCreate    = storage.ModeCreate
	ModeOverWrite = storage.ModeOverWrite
	ModeWrite     = storage.ModeWrite
)

// I/O optimization strategies of the run-time library layer.
const (
	OptCollective  = ioopt.Collective
	OptNaive       = ioopt.Naive
	OptDataSieving = ioopt.DataSieving
	OptSubfile     = ioopt.Subfile
	OptSuperfile   = ioopt.Superfile
)

// Storage and middleware types.
type (
	// Backend is one physical storage resource.
	Backend = storage.Backend
	// Store is the raw byte layer beneath a backend.
	Store = storage.Store
	// TapeLibrary is the HPSS-like robotic tape emulation.
	TapeLibrary = tape.Library
	// TapeConfig configures a tape library.
	TapeConfig = tape.Config
	// Broker is the SRB-like middleware registry.
	Broker = srb.Broker
	// SRBServer exposes a broker over TCP.
	SRBServer = srbnet.Server
	// SRBClient is a storage backend reached over the SRB protocol.
	SRBClient = srbnet.Client
	// MetaDB is the meta-data database.
	MetaDB = metadb.DB
	// CostModel is the eq. (1) device cost model.
	CostModel = model.Params
	// Pattern is a per-dimension data distribution (BBB, B**, ...).
	Pattern = pattern.Pattern
)

// Time domain types.
type (
	// Sim is a virtual-time domain.
	Sim = vtime.Sim
	// Proc is a logical process with its own clock.
	Proc = vtime.Proc
)

// Predictor types.
type (
	// Predictor evaluates the paper's eq. (2) over PTool measurements.
	Predictor = predict.DB
	// PredictDatasetReq describes one dataset to predict.
	PredictDatasetReq = predict.DatasetReq
	// PredictRunReq describes a whole run to predict.
	PredictRunReq = predict.RunReq
	// PToolConfig controls a PTool measurement sweep.
	PToolConfig = ptool.Config
	// PToolReport is one backend's measured curves and constants.
	PToolReport = ptool.Report
)

// NewVirtualTime returns a time domain whose clocks advance instantly.
func NewVirtualTime() *Sim { return vtime.NewVirtual() }

// NewScaledTime returns a time domain that sleeps scale × simulated
// duration of wall time (for live demos and the TCP path).
func NewScaledTime(scale float64) *Sim { return vtime.NewScaled(scale) }

// NewMemStore returns an in-memory byte store.
func NewMemStore() Store { return memfs.New() }

// NewDirStore returns a byte store over a real directory.
func NewDirStore(dir string) (Store, error) { return osfs.New(dir) }

// NewLocalDisk builds the local-disk resource (four SSA disk channels,
// D-OL cost profile) over the given store.
func NewLocalDisk(name string, store Store, opts ...localdisk.Option) (Backend, error) {
	return localdisk.New(name, store, opts...)
}

// NewRemoteDisk builds the SRB-served remote-disk resource (single WAN
// channel, year-2000 cost profile).
func NewRemoteDisk(name string, store Store, opts ...remotedisk.Option) (Backend, error) {
	return remotedisk.New(name, store, opts...)
}

// NewTapeLibrary builds the HPSS-like tape resource.  A zero Params
// field defaults to the calibrated year-2000 HPSS model.
func NewTapeLibrary(cfg TapeConfig) (*TapeLibrary, error) {
	if cfg.Params.Name == "" {
		cfg.Params = model.RemoteTape2000()
	}
	return tape.New(cfg)
}

// NewGenericBackend builds a timed backend from an arbitrary cost model
// — the hook for adding further storage media, which the paper lists as
// future work ("other storage resources can be easily added").
func NewGenericBackend(cfg device.Config) (Backend, error) { return device.New(cfg) }

// GenericConfig configures NewGenericBackend.
type GenericConfig = device.Config

// NewMetaDB returns an empty meta-data database.
func NewMetaDB() *MetaDB { return metadb.New() }

// NewSystem wires a multi-storage system together.
func NewSystem(cfg SystemConfig) (*System, error) { return core.NewSystem(cfg) }

// NewBroker returns an empty SRB-like middleware registry.
func NewBroker() *Broker { return srb.NewBroker() }

// ServeSRB exposes a broker over TCP.  Server options shape how the
// server executes data-plane opcodes (WithSRBScheduler); the wire
// framing and shard-routing options live in internal/srbnet.
func ServeSRB(addr string, b *Broker, sim *Sim, opts ...SRBServerOption) (*SRBServer, error) {
	return srbnet.Serve(addr, b, sim, opts...)
}

// SRBServerOption configures ServeSRB.
type SRBServerOption = srbnet.ServerOption

// WithSRBScheduler routes the server's data-plane opcodes through a
// multi-tenant request scheduler.  Control-plane opcodes (connect,
// stat, list, close) bypass the queue.  The scheduler is not owned by
// the server: close it before the server if requests may still be
// queued.
var WithSRBScheduler = srbnet.WithScheduler

// SRBOption configures an SRB client; internal/srbnet's WithCluster
// (cluster routing) is the one constructor.
type SRBOption = srbnet.Option

// NewSRBClient returns a backend that reaches a broker resource over
// TCP.
func NewSRBClient(addr, user, secret, resource string, kind storage.Kind, opts ...SRBOption) *SRBClient {
	return srbnet.NewClient(addr, user, secret, resource, kind, opts...)
}

// Staging engine types (prediction-driven tiered migration).
type (
	// StageManager owns the capacity-budgeted fast-tier cache in front
	// of slower storage resources: profitable reads are staged in,
	// writes may land on the cache with write-back, and sequential
	// consumers get background prefetch.
	StageManager = stage.Manager
	// StageConfig wires a StageManager (cache backend, byte budget,
	// predictor, prefetch depth, retry policy).
	StageConfig = stage.Config
)

// NewStageManager returns a staging engine over the given cache backend
// and budget.  Hand it to SystemConfig.Stager to redirect dataset I/O
// through the cache transparently.
func NewStageManager(cfg StageConfig) (*StageManager, error) { return stage.New(cfg) }

// MeasurePerformance runs PTool against the given backends, filling the
// meta-data database's performance tables.
func MeasurePerformance(sim *Sim, meta *MetaDB, cfg PToolConfig, backends ...Backend) ([]PToolReport, error) {
	return ptool.MeasureAll(sim, meta, cfg, backends...)
}

// NewPredictor returns the eq. (2) I/O performance predictor over a
// measured meta-data database.
func NewPredictor(meta *MetaDB) *Predictor { return predict.NewDB(meta) }

// PredictivePlacer returns the future-work placement policy: AUTO
// datasets go to the largest resource whose predicted I/O time meets
// the requirement.
func PredictivePlacer(pdb *Predictor, iterations, procs int, opts ...placement.Option) Placer {
	return placement.Predictive(pdb, iterations, procs, opts...)
}

// WithRequirement sets the performance requirement for PredictivePlacer.
func WithRequirement(d time.Duration) placement.Option {
	return placement.WithRequirement(d)
}

// Multi-tenant request scheduler types (server-side QoS: weighted fair
// queueing, tape-aware batching, priced admission control).
type (
	// QoSScheduler queues data-plane requests per tenant: deficit round
	// robin over predictor-priced cost, a cartridge batch lane for tape
	// reads, and bounded queue budgets with typed backpressure.
	QoSScheduler = qos.Scheduler
	// QoSConfig parameterizes a scheduler (weights, budgets, pricer,
	// tape library).
	QoSConfig = qos.Config
)

// ErrOverload is the sentinel under every shed request, preserved
// across the SRB wire; resilient classifies it transient and honors the
// attached retry-after hint.
var ErrOverload = storage.ErrOverload

// RetryAfterOf extracts an admission-control drain hint from an error
// chain (zero hints count as absent).
var RetryAfterOf = resilient.RetryAfterOf

// NewQoSScheduler validates cfg and returns a ready scheduler for
// WithSRBScheduler.
func NewQoSScheduler(cfg QoSConfig) (*QoSScheduler, error) { return qos.New(cfg) }

// QoSParseTenants parses srbd's -tenants syntax ("astro3d:3,viewer:1")
// into a QoSConfig.Tenants map.
func QoSParseTenants(s string) (map[string]int, error) { return qos.ParseTenants(s) }

// QoSFormatTenants renders a tenant-weight map back into the -tenants
// flag syntax.
func QoSFormatTenants(m map[string]int) string { return qos.FormatTenants(m) }

// ParsePattern parses a distribution string such as "BBB" or "B**".
func ParsePattern(s string) (Pattern, error) { return pattern.Parse(s) }

// ParseLocation parses a hint string ("LOCALDISK", "SDSCHPSS", ...).
func ParseLocation(s string) (Location, error) { return core.ParseLocation(s) }
