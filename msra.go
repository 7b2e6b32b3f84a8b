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
//   - the user API (NewSystem, Run, Dataset, location hints);
//   - the I/O performance predictor (NewPredictor) and PTool
//     (MeasurePerformance);
//   - virtual time (NewVirtualTime, NewScaledTime) so experiments with
//     year-2000 device characteristics finish in milliseconds.
//
// See the examples directory for runnable end-to-end scenarios and
// DESIGN.md for the architecture map.
package msra

import (
	"time"

	"repro/internal/calib"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dbstore"
	"repro/internal/device"
	"repro/internal/faultfs"
	"repro/internal/hsm"
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
	"repro/internal/trace"
	"repro/internal/vtime"
	"repro/internal/wal"
	"repro/internal/workflow"
)

// Core user-API types (the paper's primary contribution).
type (
	// System is the configured multi-storage environment.
	System = core.System
	// SystemConfig wires backends, meta-data DB and time domain together.
	SystemConfig = core.SystemConfig
	// Run brackets one application run (initialization → finalization).
	Run = core.Run
	// RunConfig identifies a run.
	RunConfig = core.RunConfig
	// Dataset is an open dataset routed to a storage resource.
	Dataset = core.Dataset
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
	// RunPrediction is the figure 11 style result table.
	RunPrediction = predict.RunPrediction
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

// NewLocalDB builds the local-database resource (blob storage behind an
// embedded database API).
func NewLocalDB(name string, store Store, opts ...dbstore.Option) (Backend, error) {
	return dbstore.New(name, store, opts...)
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
// server executes data-plane opcodes (WithSRBScheduler) and the wire
// framing limits (WithSRBServerChunkBytes, WithSRBServerMaxFrame).
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

// SRBOption configures an SRB client (pool size, dial timeout,
// read-ahead, redial budget, framing limits, cluster routing).
type SRBOption = srbnet.Option

// SRB client knobs, re-exported from internal/srbnet.
var (
	// WithSRBPoolSize bounds the client's multiplexed connection pool.
	WithSRBPoolSize = srbnet.WithPoolSize
	// WithSRBDialTimeout bounds how long Connect waits for the TCP dial.
	WithSRBDialTimeout = srbnet.WithDialTimeout
	// WithSRBReadAhead enables client-side read-ahead for sequential
	// remote reads (off by default; it trades cost fidelity for wire
	// throughput).
	WithSRBReadAhead = srbnet.WithReadAhead
	// WithSRBRedial tunes how pooled requests recover from poisoned
	// connections (attempt budget and backoff, charged to virtual time).
	WithSRBRedial = srbnet.WithRedial
	// WithSRBChunkBytes sets the streamed GetFile/PutFile chunk size
	// on the client side (default 256 KiB).
	WithSRBChunkBytes = srbnet.WithChunkBytes
	// WithSRBMaxFrame caps the client's decoder pre-allocation: a
	// frame declaring more than this many bytes poisons the
	// connection instead of allocating (default 64 MiB).
	WithSRBMaxFrame = srbnet.WithMaxFrame
	// WithSRBCluster makes the client shard-aware over a clustered
	// broker (`srbd -cluster`): path operations route to the broker
	// owning the path's collection shard, wrong-shard redirects are
	// followed and cached, and a dead broker is ridden out by backing
	// off on the rank's clock until the cluster's lease-lapse
	// failover moves the shard.
	WithSRBCluster = srbnet.WithCluster
)

// SRB server-side wire knobs, mirrors of the client pair above.
var (
	// WithSRBServerChunkBytes sets the server's streamed GetFile
	// chunk size (default 256 KiB).
	WithSRBServerChunkBytes = srbnet.WithServerChunkBytes
	// WithSRBServerMaxFrame caps the server decoder's pre-allocation
	// from wire-declared lengths (default 64 MiB).
	WithSRBServerMaxFrame = srbnet.WithServerMaxFrame
	// WithSRBShardRouter makes the server redirect path operations for
	// shards it does not own (a BrokerClusterNode is a ShardRouter);
	// shard-aware clients chase the redirect, plain clients surface it
	// as ErrSRBWrongShard.
	WithSRBShardRouter = srbnet.WithShardRouter
)

// SRBShardRouter decides, per path operation, whether this server owns
// the path's shard or the caller must be redirected to the owner.
type SRBShardRouter = srbnet.ShardRouter

// ErrSRBWrongShard is the redirect a non-cluster-aware client sees when
// it asks a clustered broker for a path another member owns.
var ErrSRBWrongShard = srbnet.ErrWrongShard

// NewSRBClient returns a backend that reaches a broker resource over
// TCP.
func NewSRBClient(addr, user, secret, resource string, kind storage.Kind, opts ...SRBOption) *SRBClient {
	return srbnet.NewClient(addr, user, secret, resource, kind, opts...)
}

// Resilience layer types (retries, circuit breakers, health registry).
type (
	// ResilientBackend wraps a storage resource with transparent
	// retry-with-backoff (charged to virtual time) and a circuit breaker.
	ResilientBackend = resilient.Backend
	// RetryPolicy bounds a retry loop (attempts, backoff, jitter).
	RetryPolicy = resilient.Policy
	// BreakerConfig tunes a circuit breaker.
	BreakerConfig = resilient.BreakerConfig
	// Health is the shared per-resource breaker registry consulted by
	// placement and replication.
	Health = resilient.Health
	// ResilientOption configures WrapResilient.
	ResilientOption = resilient.Option
)

// Resilience knobs, re-exported from internal/resilient.
var (
	// WithRetryPolicy sets the wrapper's retry policy.
	WithRetryPolicy = resilient.WithPolicy
	// WithBreakerConfig tunes the wrapper's circuit breaker.
	WithBreakerConfig = resilient.WithBreakerConfig
	// WithHealth registers the wrapper's breaker in a shared registry.
	WithHealth = resilient.WithHealth
	// WithPlacementHealth makes PredictivePlacer consult the registry.
	WithPlacementHealth = placement.WithHealth
)

// WrapResilient returns a fault-recovering view of a backend: transient
// failures are retried with capped exponential backoff charged to the
// calling process's virtual clock, and a persistently failing resource
// trips a circuit breaker that placement and replication route around.
func WrapResilient(inner Backend, opts ...ResilientOption) *ResilientBackend {
	return resilient.Wrap(inner, opts...)
}

// NewHealth returns a shared breaker registry for WithHealth /
// WithPlacementHealth.
func NewHealth(cfg BreakerConfig) *Health { return resilient.NewHealth(cfg) }

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
	// StageStats counts the staging engine's traffic (hits, misses,
	// bytes moved, evictions, prefetch activity).
	StageStats = stage.Stats
)

// WithPlacementStaging makes PredictivePlacer account for the stage
// cache's capacity reservation and credit slow resources with the
// staged access path ("tape home + staged reads").
var WithPlacementStaging = placement.WithStaging

// NewStageManager returns a staging engine over the given cache backend
// and budget.  Hand it to SystemConfig.Stager to redirect dataset I/O
// through the cache transparently.
func NewStageManager(cfg StageConfig) (*StageManager, error) { return stage.New(cfg) }

// Observability and calibration types (the measured-vs-predicted loop).
type (
	// TraceRecorder collects per-native-call I/O events from instrumented
	// backends and the staging engine.
	TraceRecorder = trace.Recorder
	// TraceEvent is one recorded native call.
	TraceEvent = trace.Event
	// TraceMetrics folds events into always-on per-(backend,op)
	// histograms of cost versus transfer size.
	TraceMetrics = trace.Metrics
	// TraceOpStats is one (backend,op) aggregate from a metrics snapshot.
	TraceOpStats = trace.OpStats
	// CalibEngine joins run metrics against eq. (2) predictions, flags
	// drifted resources, and writes refreshed curves back to the
	// meta-data database.
	CalibEngine = calib.Engine
	// CalibConfig wires a CalibEngine (meta DB, backend→class map, drift
	// band, minimum calls per cell).
	CalibConfig = calib.Config
	// CalibResidual is one per-(resource,op) measured/predicted residual.
	CalibResidual = calib.Residual
)

// CalibDefaultBand is the paper's ±15% prediction accuracy band, used
// as the drift threshold when CalibConfig.Band is zero.
const CalibDefaultBand = calib.DefaultBand

// NewTraceRecorder returns a bounded in-memory event recorder; hand it
// to the backends' WithTrace options.  limit <= 0 keeps every event.
func NewTraceRecorder(limit int) *TraceRecorder { return trace.New(limit) }

// NewTraceMetrics returns an empty metrics aggregation.  Attach it with
// TraceRecorder.SetMetrics to fold events as they are recorded — cheap
// enough to leave enabled for whole runs.
func NewTraceMetrics() *TraceMetrics { return trace.NewMetrics() }

// NewCalibration returns a calibration engine over the meta-data
// database that NewPredictor reads, closing the measured-vs-predicted
// loop online.
func NewCalibration(cfg CalibConfig) *CalibEngine { return calib.New(cfg) }

// CalibDrifted filters a residual set down to the resources outside
// the band.
func CalibDrifted(rs []CalibResidual) []CalibResidual { return calib.Drifted(rs) }

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
	// tape library, FIFO ablation switch).
	QoSConfig = qos.Config
	// QoSRequest describes one unit of schedulable work.
	QoSRequest = qos.Request
	// QoSPricer converts a request into predicted seconds of service.
	QoSPricer = qos.Pricer
	// QoSOverloadError is the typed backpressure carrying a retry-after
	// drain hint; it unwraps to ErrOverload.
	QoSOverloadError = qos.OverloadError
	// QoSStats is a scheduler snapshot (per-tenant accounts, batching
	// and overload counters) — the source of webui's msra_qos_* families.
	QoSStats = qos.Stats
	// QoSTenantStats is one tenant's cumulative scheduling account.
	QoSTenantStats = qos.TenantStats
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

// QoSPredictPricer prices requests by eq. (2) predicted service time
// from a measured predictor, falling back to a bytes-based price for
// classes the predictor has no curve for.
func QoSPredictPricer(pdb *Predictor) QoSPricer { return qos.PredictPricer(pdb) }

// Crash consistency: the broker's meta-data can be persisted through a
// write-ahead journal (checksummed, fsync-barriered, segment-rotated)
// so a crash at any point loses at most the single un-acknowledged
// mutation.  OpenJournaledMetaDB replays the journal on open; faultfs
// (NewFaultFS) injects crashes and torn writes to verify recovery.
type (
	WALOptions     = wal.Options
	WALStats       = wal.Stats
	WALCheckReport = wal.CheckReport
	FaultFS        = faultfs.FS
	CrashMode      = faultfs.CrashMode
)

// ErrWALCorrupt marks journal damage the torn-tail rule cannot excuse;
// replay refuses to proceed rather than serve partial state.
var ErrWALCorrupt = wal.ErrCorrupt

// Crash modes for FaultFS.Recover: what happens to writes that were
// never fsynced.
const (
	CrashDropUnsynced = faultfs.DropUnsynced
	CrashKeepUnsynced = faultfs.KeepUnsynced
	CrashTornWrites   = faultfs.TornWrites
)

// OpenJournaledMetaDB opens (replaying if it exists, creating if not) a
// journal-backed meta-data database: every mutation is appended and
// fsynced before it is applied, Checkpoint compacts the journal to a
// snapshot, and CloseJournal detaches it.  This is what `srbd -journal`
// uses.
func OpenJournaledMetaDB(opts WALOptions) (*MetaDB, error) { return metadb.OpenJournal(opts) }

// CheckWAL verifies a journal directory without replaying into a
// database — the engine behind `srbd -fsck`.
func CheckWAL(dir string) WALCheckReport { return wal.Check(nil, dir) }

// NewFaultFS returns a crash- and torn-write-injecting in-memory
// filesystem for durability testing: arm with SetCrash, then Recover
// simulates the machine coming back up under a chosen CrashMode.
func NewFaultFS() *FaultFS { return faultfs.New() }

// Hierarchical storage management: a policy-driven lifecycle engine
// over a disk pool in front of the tape library — age-based migration
// (batched through the QoS staging-cartridge lane), watermark GC with
// migrate-before-purge, eq. (1)-priced staged recall and cartridge
// repack.  Lifecycle rows live in the meta-data database, so with
// OpenJournaledMetaDB every state transition is crash-durable and
// HSMEngine.Recover maps interrupted migrations and recalls back to
// their safe states.  This is what `srbd -hsm` runs.
type (
	// HSMEngine is the lifecycle engine; its Stats snapshot is the
	// source of webui's msra_hsm_* families.
	HSMEngine = hsm.Engine
	// HSMConfig wires an engine (time domain, meta-data store, pool
	// and tape backends, capacity, policy, optional predictor and
	// scheduler).
	HSMConfig = hsm.Config
	// HSMPolicy tunes migration age, scan cadence, GC watermarks,
	// repack threshold and batch size — srbd's -hsm-policy flag.
	HSMPolicy = hsm.Policy
	// HSMStats is an engine snapshot: dataset census by state, pool
	// occupancy, migration/recall/GC/repack counters.
	HSMStats = hsm.Stats
)

// NewHSMEngine validates cfg and returns a ready lifecycle engine.
func NewHSMEngine(cfg HSMConfig) (*HSMEngine, error) { return hsm.New(cfg) }

// DefaultHSMPolicy returns the default lifecycle policy.
func DefaultHSMPolicy() HSMPolicy { return hsm.DefaultPolicy() }

// ParseHSMPolicy parses srbd's -hsm-policy syntax
// ("cold=48h,scan=1h,high=0.85,low=0.6,repack=0.3,batch=16").
func ParseHSMPolicy(s string) (HSMPolicy, error) { return hsm.ParsePolicy(s) }

// FormatHSMPolicy renders a policy back into the flag syntax.
func FormatHSMPolicy(p HSMPolicy) string { return hsm.FormatPolicy(p) }

// Clustered brokers: N srbd processes presenting one logical broker.
// A deterministic vtime-driven leader lease orders every meta-data
// mutation through a replicated log (journal-framed records, followers
// applying via the replay path, fail-closed on divergent CRC), the
// namespace is sharded by collection hash, and shard ownership and
// per-broker admission quotas only change through that log.  This is
// what `srbd -cluster` runs; pair the client with WithSRBCluster.
type (
	// BrokerCluster is the replicated control plane shared by the
	// member brokers.
	BrokerCluster = cluster.Cluster
	// BrokerClusterConfig sizes a cluster: member count, shard count,
	// lease term and the global admission budgets leased out to
	// members.
	BrokerClusterConfig = cluster.Config
	// BrokerClusterNode is one member's view: its replicated MetaDB,
	// shard routing (the server-side ShardRouter), and leased budgets.
	BrokerClusterNode = cluster.Node
	// BrokerBudgets is one member's leased slice of the cluster-wide
	// admission budget.
	BrokerBudgets = cluster.Budgets
	// ShardRing maps collection-hash shards to owning member IDs.
	ShardRing = cluster.Ring
)

// NewBrokerCluster validates cfg and returns a cluster whose nodes'
// meta-data databases stay byte-identical under the replicated log.
func NewBrokerCluster(cfg BrokerClusterConfig) (*BrokerCluster, error) { return cluster.New(cfg) }

// ErrNotLeader is returned by mutations sent to a follower or during
// a failover's fencing window; retry after the lease lapses.
var ErrNotLeader = cluster.ErrNotLeader

// ClusterShardOf maps a dataset path to its collection-hash shard,
// matching the routing the servers and WithSRBCluster clients use.
func ClusterShardOf(path string, shards int) int {
	return cluster.ShardOf(cluster.CollectionKey(path), shards)
}

// Workflow-aware prediction: a DAG of application stages whose node
// costs come from the calibrated predictor.  The graph predicts the
// chain's makespan under a configurable producer/consumer overlap
// (critical-path composition), and Provision turns the same graph into
// an execution plan — per-stage cache budgets sized from predicted
// working sets, DAG-edge prefetch schedules for the staging engine,
// and eq. (1) placement of stage-private intermediates priced over
// their remaining lifetime rather than steady state.  This is what
// `predict -workflow` evaluates.
type (
	// WorkflowDAG is the stage graph; nodes carry PredictionRequest-
	// shaped dataset descriptions, edges carry the datasets flowing
	// between stages.
	WorkflowDAG = workflow.DAG
	// WorkflowStage is one node: a named application run.
	WorkflowStage = workflow.Stage
	// WorkflowEdge is one producer→consumer data dependency.
	WorkflowEdge = workflow.Edge
	// WorkflowSchedule is one stage's start/duration/critical-path
	// row of a composed makespan.
	WorkflowSchedule = workflow.StageSchedule
	// WorkflowMakespan is a composed schedule at one overlap level.
	WorkflowMakespan = workflow.MakespanResult
	// WorkflowPrediction is a makespan plus the per-stage eq. (2)
	// evaluations behind it.
	WorkflowPrediction = workflow.Prediction
	// WorkflowPlan is a provisioning decision: cache budgets,
	// prefetch schedule, intermediate placements.
	WorkflowPlan = workflow.Plan
	// WorkflowTier is spare capacity offered to the provisioner for
	// intermediate placement.
	WorkflowTier = workflow.Tier
)

// NewWorkflowDAG returns an empty workflow graph.
func NewWorkflowDAG() *WorkflowDAG { return workflow.New() }

// ParseWorkflow reads a DAG from its text form (see the workflow
// package for the stage/dataset/edge line syntax).
func ParseWorkflow(text string) (*WorkflowDAG, error) { return workflow.Parse(text) }

// WorkflowPipeline builds the paper's astro3d → MSE / volren → viewer
// post-processing chain at the given problem size.
func WorkflowPipeline(n, maxIter, freq, procs int) *WorkflowDAG {
	return workflow.Pipeline(n, maxIter, freq, procs)
}

// ParsePattern parses a distribution string such as "BBB" or "B**".
func ParsePattern(s string) (Pattern, error) { return pattern.Parse(s) }

// ParseLocation parses a hint string ("LOCALDISK", "SDSCHPSS", ...).
func ParseLocation(s string) (Location, error) { return core.ParseLocation(s) }
