// Cluster-aware client routing.  WithCluster turns one Client into a
// federation view over N brokers: path-addressed operations are routed
// to the broker that owns the path's shard, errWrongShard redirects
// are followed (and cached), and when a broker dies mid-call the
// session rotates through the survivors, charging resilient backoff to
// the rank's virtual clock until the dead leader's lease lapses and
// the cluster's failover moves the shard.
package srbnet

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/resilient"
	"repro/internal/storage"
	"repro/internal/vtime"
)

// failoverAttempts bounds how many dead-broker bounces one call rides
// out.  Each bounce charges an exponential resilient backoff to the
// rank's clock, so the budget comfortably outlives a cluster lease
// (the fencing window during which no broker will take over the dead
// leader's shards).
const failoverAttempts = 10

// WithCluster makes the client shard-aware: addrs lists every broker
// in the cluster (index-aligned with the cluster's node IDs) and
// shards fixes the shard-map size (0 defaults to len(addrs)).  The
// cold route for shard s is addrs[s mod len(addrs)] — the same
// round-robin genesis assignment cluster.NewRing publishes — and every
// errWrongShard redirect refines it.  With a single address the
// session degenerates to the plain client: every path routes to the
// one broker and no redirect ever fires.
func WithCluster(addrs []string, shards int) Option {
	return func(c *Client) {
		c.clusterAddrs = append([]string(nil), addrs...)
		if shards <= 0 {
			shards = len(addrs)
		}
		c.clusterShards = shards
	}
}

// ClusterStats returns the redirect and failover counters accumulated
// across this client's cluster sessions.
func (c *Client) ClusterStats() (redirects, failovers int64) {
	return atomic.LoadInt64(&c.clusterRedirects), atomic.LoadInt64(&c.clusterFailovers)
}

// subClient returns (creating on first use) the plain per-broker
// client behind one cluster address.  Sub-clients keep their own
// connection pools and rank-pid maps, exactly as N independent clients
// would.
func (c *Client) subClient(addr string) *Client {
	c.subMu.Lock()
	defer c.subMu.Unlock()
	if c.subs == nil {
		c.subs = make(map[string]*Client)
	}
	if s, ok := c.subs[addr]; ok {
		return s
	}
	s := NewClient(addr, c.user, c.secret, c.resource, c.kind)
	c.subs[addr] = s
	return s
}

// closeSubClients tears down the per-broker pools (parent Close path).
func (c *Client) closeSubClients() {
	c.subMu.Lock()
	subs := c.subs
	c.subs = nil
	c.subMu.Unlock()
	for _, s := range subs {
		s.Close()
	}
}

// clusterSession is the federation view of one authenticated session:
// a lazily-built per-broker session per address, a redirect cache
// mapping shards to learned owners, and the routing loop in do.
type clusterSession struct {
	c *Client

	mu     sync.Mutex
	sess   map[string]storage.Session
	owner  map[int]string // shard → owner address learned from redirects
	closed bool
}

var _ storage.Session = (*clusterSession)(nil)
var _ storage.WholeFiler = (*clusterSession)(nil)

// connectCluster builds the session, eagerly connecting the home
// broker (addrs[0]) so a single-broker cluster charges exactly the
// virtual time a plain client's Connect would.
func (c *Client) connectCluster(p *vtime.Proc) (storage.Session, error) {
	s := &clusterSession{c: c, sess: make(map[string]storage.Session), owner: make(map[int]string)}
	if _, err := s.session(p, c.clusterAddrs[0]); err != nil {
		return nil, err
	}
	return s, nil
}

// session returns (connecting on first use) the per-broker session for
// addr.
func (s *clusterSession) session(p *vtime.Proc, addr string) (storage.Session, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, fmt.Errorf("srbnet client: %w", storage.ErrClosed)
	}
	if sess, ok := s.sess[addr]; ok {
		s.mu.Unlock()
		return sess, nil
	}
	s.mu.Unlock()
	sess, err := s.c.subClient(addr).Connect(p)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if prev, ok := s.sess[addr]; ok {
		// Lost a connect race; keep the first session.
		s.mu.Unlock()
		sess.Close(p)
		return prev, nil
	}
	s.sess[addr] = sess
	s.mu.Unlock()
	return sess, nil
}

// dropSession forgets a broker's session after a transport failure so
// the next route to it reconnects from scratch.
func (s *clusterSession) dropSession(addr string) {
	s.mu.Lock()
	delete(s.sess, addr)
	s.mu.Unlock()
}

// route maps a path to the broker address to try first: the learned
// owner of its shard if a redirect taught us one, otherwise the
// round-robin genesis assignment.
func (s *clusterSession) route(path string) (shard int, addr string) {
	shard = cluster.ShardOf(cluster.CollectionKey(path), s.c.clusterShards)
	s.mu.Lock()
	addr, ok := s.owner[shard]
	s.mu.Unlock()
	if !ok {
		addr = s.c.clusterAddrs[shard%len(s.c.clusterAddrs)]
	}
	return shard, addr
}

// learn caches a redirect's verdict for a shard.
func (s *clusterSession) learn(shard int, addr string) {
	s.mu.Lock()
	s.owner[shard] = addr
	s.mu.Unlock()
}

// do runs one path-addressed operation with shard routing: follow
// redirects (typed ErrRedirectLoop past the cap), and on transport
// failure rotate to the next broker with a backoff charged to the
// rank's clock — the survivors redirect to the new owner once the
// dead broker's lease lapses.
func (s *clusterSession) do(p *vtime.Proc, path string, fn func(storage.Session) error) error {
	c := s.c
	maxRedirects := 2 * (len(c.clusterAddrs) + failoverAttempts)
	po := resilient.Policy{MaxAttempts: failoverAttempts, BaseDelay: c.redialBackoff}
	shard, addr := s.route(path)
	redirects, failures := 0, 0
	for {
		sess, err := s.session(p, addr)
		if err == nil {
			err = fn(sess)
		}
		var ws *WrongShardError
		switch {
		case err == nil:
			return nil
		case errors.As(err, &ws):
			redirects++
			atomic.AddInt64(&c.clusterRedirects, 1)
			if redirects > maxRedirects {
				return fmt.Errorf("srbnet cluster: %d redirects chasing %q: %w", redirects, path, ErrRedirectLoop)
			}
			s.learn(shard, ws.Addr)
			addr = ws.Addr
		case errors.Is(err, errConnFailed):
			failures++
			atomic.AddInt64(&c.clusterFailovers, 1)
			if failures >= failoverAttempts {
				return err
			}
			s.dropSession(addr)
			p.Advance(po.Backoff(failures, c.name+"/cluster-failover"))
			addr = s.nextAddr(addr)
		default:
			return err
		}
	}
}

// nextAddr rotates to the broker after addr in the cluster list.
func (s *clusterSession) nextAddr(addr string) string {
	addrs := s.c.clusterAddrs
	for i, a := range addrs {
		if a == addr {
			return addrs[(i+1)%len(addrs)]
		}
	}
	return addrs[0]
}

// Open implements storage.Session.  The returned handle is pinned to
// the broker that opened it — handle I/O is not re-routed.
func (s *clusterSession) Open(p *vtime.Proc, name string, mode storage.AMode) (storage.Handle, error) {
	var h storage.Handle
	err := s.do(p, name, func(sess storage.Session) error {
		var err error
		h, err = sess.Open(p, name, mode)
		return err
	})
	return h, err
}

// Remove implements storage.Session.
func (s *clusterSession) Remove(p *vtime.Proc, name string) error {
	return s.do(p, name, func(sess storage.Session) error { return sess.Remove(p, name) })
}

// Stat implements storage.Session.
func (s *clusterSession) Stat(p *vtime.Proc, name string) (storage.FileInfo, error) {
	var fi storage.FileInfo
	err := s.do(p, name, func(sess storage.Session) error {
		var err error
		fi, err = sess.Stat(p, name)
		return err
	})
	return fi, err
}

// List implements storage.Session.  The prefix is routed like a path:
// a cluster list is per-collection, since one collection lives wholly
// on one broker.
func (s *clusterSession) List(p *vtime.Proc, prefix string) ([]storage.FileInfo, error) {
	var infos []storage.FileInfo
	err := s.do(p, prefix, func(sess storage.Session) error {
		var err error
		infos, err = sess.List(p, prefix)
		return err
	})
	return infos, err
}

// PutFile implements storage.WholeFiler.
func (s *clusterSession) PutFile(p *vtime.Proc, name string, mode storage.AMode, data []byte) error {
	return s.do(p, name, func(sess storage.Session) error {
		return sess.(storage.WholeFiler).PutFile(p, name, mode, data)
	})
}

// GetFile implements storage.WholeFiler.
func (s *clusterSession) GetFile(p *vtime.Proc, name string) ([]byte, error) {
	var data []byte
	err := s.do(p, name, func(sess storage.Session) error {
		var err error
		data, err = sess.(storage.WholeFiler).GetFile(p, name)
		return err
	})
	return data, err
}

// Close implements storage.Session, closing every per-broker session.
func (s *clusterSession) Close(p *vtime.Proc) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("srbnet client: %w", storage.ErrClosed)
	}
	s.closed = true
	sess := s.sess
	s.sess = nil
	s.mu.Unlock()
	var first error
	for _, sub := range sess {
		if err := sub.Close(p); err != nil && first == nil {
			first = err
		}
	}
	return first
}
