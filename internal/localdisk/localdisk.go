// Package localdisk constructs the local-disk storage resource of the
// paper's experimental environment: the SP2 node's I/O subsystem with
// four 9 GB SSA disks, accessed through the UNIX filesystem with the
// D-OL run-time library's cost profile.
package localdisk

import (
	"repro/internal/device"
	"repro/internal/model"
	"repro/internal/storage"
	"repro/internal/trace"
)

// SSADisks is the number of disks in the SP2 node's I/O subsystem.
const SSADisks = 4

// SSACapacity is the aggregate local capacity: four 9 GB disks.
const SSACapacity = 4 * 9 * 1000 * 1000 * 1000

// Option adjusts the backend configuration.
type Option func(*device.Config)

// WithTrace attaches a native-call trace recorder.
func WithTrace(r *trace.Recorder) Option { return func(c *device.Config) { c.Trace = r } }

// New returns a local-disk backend over the given byte store (osfs for a
// real directory, memfs for hermetic benchmarks).
func New(name string, store storage.Store, opts ...Option) (*device.Backend, error) {
	cfg := device.Config{
		Name:     name,
		Kind:     storage.KindLocalDisk,
		Params:   model.LocalDisk2000(),
		Store:    store,
		Channels: SSADisks,
		Capacity: SSACapacity,
	}
	for _, o := range opts {
		o(&cfg)
	}
	return device.New(cfg)
}
