package stage

import (
	"fmt"
	"time"

	"repro/internal/predict"
)

// instanceBytes is the whole-instance size of one dump of the dataset.
func instanceBytes(d predict.DatasetReq) int64 {
	n := int64(1)
	for _, dim := range d.Dims {
		n *= int64(dim)
	}
	etype := int64(d.Etype)
	if etype <= 0 {
		etype = 1
	}
	return n * etype
}

// PredictStagedRead evaluates eq. (2) for a consumer reading the
// dataset through the stage cache instead of directly from its home
// resource (d.Location).  It returns two predictions:
//
//   - first: the cold pass — every dump is staged in (whole-file read
//     from home plus whole-file write to the cache) and then read at
//     cache speed;
//   - hit: a warm pass — every dump is already cached, so the run pays
//     only cache-tier access costs.
//
// Both are comparable with predict.Predict of the unstaged run, which
// is how the staging experiment reports predicted savings.
func (m *Manager) PredictStagedRead(d predict.DatasetReq, iterations int) (first, hit time.Duration, err error) {
	if m.cfg.PDB == nil {
		return 0, 0, fmt.Errorf("stage: no predictor configured")
	}
	cached := d
	cached.Location = m.cfg.Cache.Kind().String()
	dp, err := m.cfg.PDB.PredictDataset(cached, iterations)
	if err != nil {
		return 0, 0, err
	}
	hit = dp.VirtualTime

	size := instanceBytes(d)
	tGet, err := m.cfg.PDB.WholeFile(d.Location, "read", size)
	if err != nil {
		return 0, 0, err
	}
	tPut, err := m.cfg.PDB.WholeFile(m.cfg.Cache.Kind().String(), "write", size)
	if err != nil {
		return 0, 0, err
	}
	first = hit + time.Duration(float64(dp.Dumps)*(tGet+tPut)*float64(time.Second))
	return first, hit, nil
}
