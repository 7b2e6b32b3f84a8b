// Package dbstore constructs the local-database storage resource the
// paper names among the media an application can couple with ("these
// storage resources could include local disks, local databases, remote
// disks, remote databases, remote tape systems and so on").  Datasets
// are stored as blobs behind the database's embedded API, which trades
// per-call query overhead and commit costs for transparent management —
// the year-2000 reason to put simulation output in a database.
//
// The backend demonstrates the architecture's extensibility claim: a
// fourth first-class storage class slots in behind the same
// Backend/Session/Handle contract, PTool measures it like any other
// resource, and the predictor and placement layers pick it up with no
// special cases.
package dbstore

import (
	"repro/internal/device"
	"repro/internal/model"
	"repro/internal/storage"
	"repro/internal/trace"
)

// DefaultCapacity is the database's tablespace quota (20 GB).
const DefaultCapacity = 20 * 1000 * 1000 * 1000

// Option adjusts the backend configuration.
type Option func(*device.Config)

// WithTrace attaches a native-call trace recorder.
func WithTrace(r *trace.Recorder) Option { return func(c *device.Config) { c.Trace = r } }

// New returns a local-database backend over the given byte store.
func New(name string, store storage.Store, opts ...Option) (*device.Backend, error) {
	cfg := device.Config{
		Name:     name,
		Kind:     storage.KindLocalDB,
		Params:   model.LocalDB2000(),
		Store:    store,
		Channels: 2, // the database stripes its tablespace over two disks
		Capacity: DefaultCapacity,
	}
	for _, o := range opts {
		o(&cfg)
	}
	return device.New(cfg)
}
