// Package load generates every input the benchmark feeds the program:
// op lists, key sets, collection names and bulk payloads.  A Gen is
// seeded once from -seed; the same seed yields byte-identical inputs.
// Everything is generated before the clock starts — Calls lets a
// workload assert that no generator ran inside a timed region.
package load

import (
	"fmt"
	"math/rand"
)

// ZipfS is the skew of every popularity distribution the generator
// draws from (files, blocks, keys): rank r is requested ∝ 1/r^1.1.
const ZipfS = 1.1

// Gen is a seeded input generator.  It is not safe for concurrent use.
type Gen struct {
	seed  int64
	calls int
}

// New returns a generator for the given seed.
func New(seed int64) *Gen { return &Gen{seed: seed} }

// Calls reports how many inputs have been generated so far.
func (g *Gen) Calls() int { return g.calls }

// rng derives an independent stream per (purpose, client), so adding a
// client or a workload never shifts the inputs of another.
func (g *Gen) rng(purpose string, client int) *rand.Rand {
	g.calls++
	h := uint64(g.seed)*0x9E3779B97F4A7C15 + uint64(client)*0xBF58476D1CE4E5B9
	for _, c := range []byte(purpose) {
		h = (h ^ uint64(c)) * 0x100000001B3
	}
	return rand.New(rand.NewSource(int64(h)))
}

// zipfPerm draws Zipf ranks over n items and maps rank → item through
// a seeded permutation, so which item is hot depends on the seed.
type zipfPerm struct {
	z    *rand.Zipf
	perm []int
}

func newZipfPerm(r *rand.Rand, n int) zipfPerm {
	return zipfPerm{z: rand.NewZipf(r, ZipfS, 1, uint64(n-1)), perm: r.Perm(n)}
}

func (z zipfPerm) next() int { return z.perm[z.z.Uint64()] }

// BlockOp is one 4 KiB-style block access: read or write block Block
// of file File.
type BlockOp struct {
	File  uint16
	Block uint16
	Write bool
}

// BlockOps returns n block accesses for one client: Zipf over files,
// Zipf over blocks within a file, writes with probability writeFrac.
func (g *Gen) BlockOps(purpose string, client, n, files, blocks int, writeFrac float64) []BlockOp {
	r := g.rng("block/"+purpose, client)
	fz, bz := newZipfPerm(r, files), newZipfPerm(r, blocks)
	ops := make([]BlockOp, n)
	for i := range ops {
		ops[i] = BlockOp{File: uint16(fz.next()), Block: uint16(bz.next()), Write: r.Float64() < writeFrac}
	}
	return ops
}

// MetaKind selects the production metadb mutator a MetaOp calls.
type MetaKind uint8

const (
	PutLifecycle MetaKind = iota // 70 %
	PutDataset                   // 20 %
	AddSample                    // 10 %
)

// MetaOp is one metadata mutation against key Key of the client's key
// set.
type MetaOp struct {
	Kind MetaKind
	Key  uint16
}

// MetaOps returns n mutations for one client: the 70/20/10 mutator mix
// over Zipf-popular keys.
func (g *Gen) MetaOps(purpose string, client, n, keys int) []MetaOp {
	r := g.rng("meta/"+purpose, client)
	kz := newZipfPerm(r, keys)
	ops := make([]MetaOp, n)
	for i := range ops {
		kind := PutLifecycle
		switch x := r.Float64(); {
		case x >= 0.9:
			kind = AddSample
		case x >= 0.7:
			kind = PutDataset
		}
		ops[i] = MetaOp{Kind: kind, Key: uint16(kz.next())}
	}
	return ops
}

// ReadKeys returns n Zipf-popular key indexes for a metadata reader.
func (g *Gen) ReadKeys(client, n, keys int) []uint16 {
	r := g.rng("readkeys", client)
	kz := newZipfPerm(r, keys)
	out := make([]uint16, n)
	for i := range out {
		out[i] = uint16(kz.next())
	}
	return out
}

// Keys returns n distinct key names for one client.
func (g *Gen) Keys(client, n int) []string {
	g.calls++
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("s%d/c%d/key%04d", g.seed, client, i)
	}
	return out
}

// Collections returns perShard collection names for every one of the
// shards, in shard-major order, found by probing seeded candidate
// names against shardOf (the cluster's own hash).
func (g *Gen) Collections(shards, perShard int, shardOf func(name string) int) []string {
	g.calls++
	byShard := make([][]string, shards)
	for i, found := 0, 0; found < shards*perShard; i++ {
		name := fmt.Sprintf("coll-s%d-%d", g.seed, i)
		if s := shardOf(name); len(byShard[s]) < perShard {
			byShard[s] = append(byShard[s], name)
			found++
		}
	}
	var out []string
	for _, names := range byShard {
		out = append(out, names...)
	}
	return out
}

// Payloads returns count pseudo-random buffers of size bytes for one
// client's bulk transfers.
func (g *Gen) Payloads(client, count, size int) [][]byte {
	r := g.rng("payload", client)
	out := make([][]byte, count)
	for i := range out {
		out[i] = make([]byte, size)
		r.Read(out[i])
	}
	return out
}
