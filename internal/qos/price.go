package qos

import "repro/internal/predict"

// DefaultPricer weighs a request by raw byte count at a nominal
// 1 MiB/s, floored at minCost.  It keeps the DRR arithmetic meaningful
// when no performance database is available, but treats a tape byte
// and a local-disk byte alike — use PredictPricer when a PTool sweep
// exists.
func DefaultPricer(class, op string, bytes int64) float64 {
	c := float64(bytes) / (1 << 20)
	if c < minCost {
		c = minCost
	}
	return c
}

// PredictPricer prices requests with the eq. (2) performance database:
// the predicted service seconds for (resource class, direction, size),
// interpolated from the PTool curves.  A tape read therefore "weighs"
// its true device time — bandwidth, per-call overhead — rather than
// its byte count, which is what makes cross-class fairness meaningful.
// Classes or sizes the database cannot price fall back to
// DefaultPricer.
func PredictPricer(db *predict.DB) Pricer {
	return func(class, op string, bytes int64) float64 {
		if db == nil || bytes <= 0 {
			return DefaultPricer(class, op, bytes)
		}
		sec, ok := db.Lookup(class, op, bytes)
		if !ok || sec <= 0 {
			return DefaultPricer(class, op, bytes)
		}
		return sec
	}
}
