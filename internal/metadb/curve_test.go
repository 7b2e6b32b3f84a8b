package metadb

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// referenceSamples is the per-call rebuild Samples did before the
// curves were compiled once (group rows by size, average, sort), kept
// only as the reference TestCurveMatchesReferenceRebuild holds the
// compiled curve to.
func referenceSamples(db *DB, resource, op string) []PerfSample {
	db.mu.RLock()
	defer db.mu.RUnlock()
	bySize := make(map[int64][]float64)
	for _, s := range db.samples {
		if s.Resource == resource && s.Op == op {
			bySize[s.Size] = append(bySize[s.Size], s.Seconds)
		}
	}
	out := make([]PerfSample, 0, len(bySize))
	for size, secs := range bySize {
		var sum float64
		for _, v := range secs {
			sum += v
		}
		out = append(out, PerfSample{Resource: resource, Op: op, Size: size, Seconds: sum / float64(len(secs))})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Size < out[j].Size })
	return out
}

// TestCurveMatchesReferenceRebuild: the compiled curve is the old
// rebuild bit for bit — repeated sizes summed in row order, one
// division — so predict.Unit, a pure function of the curve, returns
// the values it always did.
func TestCurveMatchesReferenceRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	keys := [][2]string{{"remotedisk", "read"}, {"remotedisk", "write"}, {"remotetape", "read"}, {"empty", "read"}}
	for round := 0; round < 50; round++ {
		db := New()
		for i, n := 0, rng.Intn(60); i < n; i++ {
			k := keys[rng.Intn(3)]
			db.AddSample(nil, PerfSample{Resource: k[0], Op: k[1], Size: int64(rng.Intn(12)) << 10, Seconds: rng.ExpFloat64()})
		}
		if round%2 == 1 {
			db.ReplaceSamples(nil, "remotedisk", "write", []PerfSample{{Size: 4096, Seconds: rng.Float64()}, {Size: 4096, Seconds: rng.Float64()}, {Size: 1, Seconds: 0.1}})
		}
		for _, k := range keys {
			want, got := referenceSamples(db, k[0], k[1]), db.Curve(k[0], k[1])
			if len(got) != len(want) {
				t.Fatalf("round %d %v: %d points, reference has %d", round, k, len(got), len(want))
			}
			for i := range want {
				if got[i].Resource != want[i].Resource || got[i].Op != want[i].Op || got[i].Size != want[i].Size ||
					math.Float64bits(got[i].Seconds) != math.Float64bits(want[i].Seconds) {
					t.Fatalf("round %d %v point %d: compiled %+v, reference %+v", round, k, i, got[i], want[i])
				}
			}
		}
	}
}
