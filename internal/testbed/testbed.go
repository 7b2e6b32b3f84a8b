// Package testbed is the one definition of the paper's experimental
// environment: the SP2's SSA disks at Argonne, the SRB-served disks and
// HPSS tapes at SDSC, and the local Postgres store, each under the name
// clients address it by.  The daemon, the experiments and the commands
// all build their resources here.
package testbed

import (
	"errors"
	"path/filepath"

	"repro/internal/dbstore"
	"repro/internal/device"
	"repro/internal/localdisk"
	"repro/internal/memfs"
	"repro/internal/metadb"
	"repro/internal/model"
	"repro/internal/osfs"
	"repro/internal/ptool"
	"repro/internal/remotedisk"
	"repro/internal/storage"
	"repro/internal/tape"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// Resources are the testbed's four storage resources.
type Resources struct {
	Local *device.Backend // "argonne-ssa"
	RDisk *device.Backend // "sdsc-disk"
	Tape  *tape.Library   // "sdsc-hpss"
	DB    *device.Backend // "nwu-postgres"
}

// Dir returns the store factory New takes: a real directory
// <root>/<sub> per resource, or in-memory stores when root is empty.
func Dir(root string) func(sub string) (storage.Store, error) {
	return func(sub string) (storage.Store, error) {
		if root == "" {
			return memfs.New(), nil
		}
		return osfs.New(filepath.Join(root, sub))
	}
}

// New builds the resources over storeFor("local"|"rdisk"|"tape"|"db").
// A non-nil rec records every native call they serve.
func New(storeFor func(sub string) (storage.Store, error), rec *trace.Recorder) (*Resources, error) {
	var stores [4]storage.Store
	for i, sub := range []string{"local", "rdisk", "tape", "db"} {
		st, err := storeFor(sub)
		if err != nil {
			return nil, err
		}
		stores[i] = st
	}
	r := &Resources{}
	var errs [4]error
	r.Local, errs[0] = localdisk.New("argonne-ssa", stores[0], localdisk.WithTrace(rec))
	r.RDisk, errs[1] = remotedisk.New("sdsc-disk", stores[1], remotedisk.WithTrace(rec))
	r.Tape, errs[2] = tape.New(tape.Config{Name: "sdsc-hpss", Params: model.RemoteTape2000(), Store: stores[2], Trace: rec})
	r.DB, errs[3] = dbstore.New("nwu-postgres", stores[3], dbstore.WithTrace(rec))
	return r, errors.Join(errs[:]...)
}

// Sweep fills meta's performance tables the way PTool populates the
// MCAT, then returns every device to idle.  It measures on a virtual
// clock of its own (no wall sleeps) and removes its probe files.
func (r *Resources) Sweep(meta *metadb.DB, repeats int) ([]ptool.Report, error) {
	reports, err := ptool.MeasureAll(vtime.NewVirtual(), meta, ptool.Config{Repeats: repeats}, r.Local, r.RDisk, r.Tape)
	r.ResetClocks()
	return reports, err
}

// ResetClocks returns every device to idle, so the next caller does
// not queue behind the previous one's device occupancy.
func (r *Resources) ResetClocks() {
	r.Local.ResetClocks()
	r.RDisk.ResetClocks()
	r.Tape.ResetClocks()
	r.DB.ResetClocks()
}
