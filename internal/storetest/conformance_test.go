package storetest

import (
	"testing"

	"repro/internal/faultfs"
	"repro/internal/memfs"
	"repro/internal/osfs"
	"repro/internal/storage"
)

func TestMemFSConformance(t *testing.T) {
	Run(t, func(t *testing.T) storage.Store { return memfs.New() })
}

func TestOSFSConformance(t *testing.T) {
	Run(t, func(t *testing.T) storage.Store {
		fs, err := osfs.New(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		return fs
	})
}

// TestFaultFSConformance covers the store every crash matrix stands on:
// with no crash point armed it must be indistinguishable from the others.
func TestFaultFSConformance(t *testing.T) {
	Run(t, func(t *testing.T) storage.Store { return faultfs.New().Store() })
}
