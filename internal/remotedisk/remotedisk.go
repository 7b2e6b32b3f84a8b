// Package remotedisk constructs the remote-disk storage resource of the
// paper's experimental environment: SDSC disk space reached through the
// SRB middleware over the year-2000 WAN.  A single shared link channel
// serializes transfers, which is what makes many small remote calls so
// expensive and motivates the superfile optimization.
package remotedisk

import (
	"repro/internal/device"
	"repro/internal/model"
	"repro/internal/storage"
	"repro/internal/trace"
)

// DefaultCapacity is the remote disk space quota (large but finite).
const DefaultCapacity = 500 * 1000 * 1000 * 1000

// Option adjusts the backend configuration.
type Option func(*device.Config)

// WithCapacity overrides the capacity limit in bytes (<= 0 = unlimited).
func WithCapacity(n int64) Option { return func(c *device.Config) { c.Capacity = n } }

// WithTrace attaches a native-call trace recorder.
func WithTrace(r *trace.Recorder) Option { return func(c *device.Config) { c.Trace = r } }

// New returns a remote-disk backend over the given byte store.
func New(name string, store storage.Store, opts ...Option) (*device.Backend, error) {
	cfg := device.Config{
		Name:     name,
		Kind:     storage.KindRemoteDisk,
		Params:   model.RemoteDisk2000(),
		Store:    store,
		Channels: 1,
		Capacity: DefaultCapacity,
	}
	for _, o := range opts {
		o(&cfg)
	}
	return device.New(cfg)
}
