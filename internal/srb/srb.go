// Package srb reproduces the role of SDSC's Storage Resource Broker in
// the paper's environment: "client-server middleware that provides a
// uniform interface for connecting to heterogeneous data resources over
// a network".
//
// A Broker multiplexes any number of registered storage backends (remote
// disks, the tape library) behind one authenticated connect call.  It is
// the native storage interface for every remote resource: the in-process
// fast path connects directly (the SRB-OL run-time library sits above
// it), and package srbnet serves the same broker over real TCP.  The
// container concept SRB offers for small files lives in package
// superfile.
package srb

import (
	"crypto/subtle"
	"fmt"
	"sort"
	"sync"

	"repro/internal/storage"
	"repro/internal/vtime"
)

// ErrAuth is returned for unknown users or bad secrets.
var ErrAuth = fmt.Errorf("srb: authentication failed")

// ErrNoResource is returned when connecting to an unregistered resource.
var ErrNoResource = fmt.Errorf("srb: no such resource")

// Broker is the middleware registry: named storage resources plus a user
// table.  It is safe for concurrent use.
type Broker struct {
	mu        sync.RWMutex
	resources map[string]storage.Backend
	users     map[string]string
}

// NewBroker returns an empty broker.
func NewBroker() *Broker {
	return &Broker{
		resources: make(map[string]storage.Backend),
		users:     make(map[string]string),
	}
}

// Register adds a backend under its Name.  Re-registering a name is an
// error: resources are long-lived archive endpoints.
func (b *Broker) Register(be storage.Backend) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, dup := b.resources[be.Name()]; dup {
		return fmt.Errorf("srb: resource %q already registered", be.Name())
	}
	b.resources[be.Name()] = be
	return nil
}

// Resource looks up a backend by name.
func (b *Broker) Resource(name string) (storage.Backend, bool) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	be, ok := b.resources[name]
	return be, ok
}

// Resources returns the registered resource names, sorted.
func (b *Broker) Resources() []string {
	b.mu.RLock()
	defer b.mu.RUnlock()
	names := make([]string, 0, len(b.resources))
	for n := range b.resources {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// AddUser installs or replaces a user's secret.
func (b *Broker) AddUser(user, secret string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.users[user] = secret
}

// Authenticate verifies a user/secret pair.
func (b *Broker) Authenticate(user, secret string) error {
	b.mu.RLock()
	want, ok := b.users[user]
	b.mu.RUnlock()
	if !ok || subtle.ConstantTimeCompare([]byte(want), []byte(secret)) != 1 {
		return fmt.Errorf("%w: user %q", ErrAuth, user)
	}
	return nil
}

// Connect authenticates and opens a session on the named resource,
// charging that resource's connection cost to p.
func (b *Broker) Connect(p *vtime.Proc, user, secret, resource string) (storage.Session, error) {
	if err := b.Authenticate(user, secret); err != nil {
		return nil, err
	}
	be, ok := b.Resource(resource)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoResource, resource)
	}
	return be.Connect(p)
}
