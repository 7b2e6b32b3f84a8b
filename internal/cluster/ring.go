// Namespace sharding.  The cluster splits the SRB namespace by
// collection (the first path component): each collection hashes onto a
// fixed shard map and each shard is owned by exactly one broker.
// Ownership changes only by applying a replicated ring record, so
// every broker's view of the map moves through the same log that
// carries the metadata it guards.
package cluster

import (
	"fmt"
	"hash/fnv"
	"strings"
)

// Ring is the fixed shard map: shard s of Shards() is owned by broker
// Owner(s).  The zero Ring is unsharded — every path maps to shard 0
// owned by node 0 — which is exactly what a single-broker deployment
// degenerates to.  Ring values are immutable.
type Ring struct {
	owners []int
}

// NewRing builds the initial shard map, shards assigned round-robin
// over nodes (shard s → node s mod nodes).  The srbnet client's
// WithCluster option assumes this same assignment for its cold
// redirect cache, so the two sides agree before any redirect flows.
func NewRing(shards, nodes int) (Ring, error) {
	if shards <= 0 {
		return Ring{}, fmt.Errorf("cluster: ring needs at least one shard (got %d)", shards)
	}
	if nodes <= 0 {
		return Ring{}, fmt.Errorf("cluster: ring needs at least one node (got %d)", nodes)
	}
	owners := make([]int, shards)
	for s := range owners {
		owners[s] = s % nodes
	}
	return Ring{owners: owners}, nil
}

// ringFromOwners adopts a decoded shard→owner table.
func ringFromOwners(owners []int) Ring {
	return Ring{owners: append([]int(nil), owners...)}
}

// Shards returns the shard count; 0 for the zero (unsharded) Ring.
func (r Ring) Shards() int { return len(r.owners) }

// Owner returns the node owning shard s.  The zero Ring owns
// everything at node 0.
func (r Ring) Owner(s int) int {
	if len(r.owners) == 0 {
		return 0
	}
	return r.owners[((s%len(r.owners))+len(r.owners))%len(r.owners)]
}

// Owners returns a copy of the shard→node table.
func (r Ring) Owners() []int { return append([]int(nil), r.owners...) }

// Shard maps a path to its shard by hashing its collection key.
func (r Ring) Shard(path string) int {
	if len(r.owners) == 0 {
		return 0
	}
	return ShardOf(CollectionKey(path), len(r.owners))
}

// CollectionKey is the sharding unit: the first path component — the
// SRB collection — so a whole collection lands on one broker and
// within-collection operations never cross shards.
func CollectionKey(path string) string {
	path = strings.TrimLeft(path, "/")
	if i := strings.IndexByte(path, '/'); i >= 0 {
		return path[:i]
	}
	return path
}

// ShardOf hashes one collection key onto nshards buckets with FNV-1a,
// which is stable across processes so client and broker always agree.
func ShardOf(key string, nshards int) int {
	if nshards <= 0 {
		return 0
	}
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(nshards))
}
