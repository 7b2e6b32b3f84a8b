package resilient

import (
	"sort"
	"sync"
	"time"
)

// Health is a registry of per-backend circuit breakers, keyed by
// backend name.  One registry is shared by every consumer that must
// agree on availability: the resilient.Backend wrappers feed outcomes
// in, and placement.Predictive and reports read state out.  The zero
// value is not usable; construct with NewHealth.
type Health struct {
	cfg BreakerConfig

	mu       sync.Mutex
	breakers map[string]*Breaker
}

// NewHealth returns a registry whose breakers use cfg (zero fields
// take the package defaults).
func NewHealth(cfg BreakerConfig) *Health {
	return &Health{cfg: cfg.withDefaults(), breakers: make(map[string]*Breaker)}
}

// Breaker returns (creating on first use) the breaker for a backend
// name.
func (h *Health) Breaker(name string) *Breaker {
	h.mu.Lock()
	defer h.mu.Unlock()
	b, ok := h.breakers[name]
	if !ok {
		b = NewBreaker(h.cfg)
		h.breakers[name] = b
	}
	return b
}

// Available reports whether the named backend's circuit admits new
// work: true for closed or half-open (a probe may go), false while
// open.  Unknown names are available — no evidence against them.
func (h *Health) Available(name string) bool {
	h.mu.Lock()
	b, ok := h.breakers[name]
	h.mu.Unlock()
	if !ok {
		return true
	}
	return b.State() != Open
}

// Penalty returns the availability penalty for the named backend (see
// Breaker.Penalty); zero for unknown names.
func (h *Health) Penalty(name string) time.Duration {
	h.mu.Lock()
	b, ok := h.breakers[name]
	h.mu.Unlock()
	if !ok {
		return 0
	}
	return b.Penalty()
}

// Names lists the registered backend names, sorted.
func (h *Health) Names() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	names := make([]string, 0, len(h.breakers))
	for name := range h.breakers {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Snapshot returns per-backend breaker statistics for reports.
func (h *Health) Snapshot() map[string]BreakerStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[string]BreakerStats, len(h.breakers))
	for name, b := range h.breakers {
		out[name] = b.Stats()
	}
	return out
}
