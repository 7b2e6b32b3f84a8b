package load

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"
)

// everything renders one of each input kind to bytes, so "same inputs"
// means byte-identical.
func everything(seed int64) []byte {
	g := New(seed)
	var b bytes.Buffer
	fmt.Fprintln(&b, g.BlockOps("timed", 1, 4096, 64, 256, 0.5))
	fmt.Fprintln(&b, g.MetaOps("timed", 0, 4096, 1000))
	fmt.Fprintln(&b, g.ReadKeys(0, 512, 1000))
	fmt.Fprintln(&b, g.Keys(1, 8))
	fmt.Fprintln(&b, g.Collections(6, 2, func(s string) int {
		h := fnv.New32a()
		h.Write([]byte(s))
		return int(h.Sum32() % 6)
	}))
	for _, p := range g.Payloads(0, 2, 1<<10) {
		b.Write(p)
	}
	return b.Bytes()
}

func TestSameSeedSameInputs(t *testing.T) {
	if !bytes.Equal(everything(7), everything(7)) {
		t.Fatal("same seed generated different inputs")
	}
}

func TestDifferentSeedDifferentInputs(t *testing.T) {
	a, b := New(1), New(2)
	if reflect.DeepEqual(a.BlockOps("timed", 0, 1024, 64, 256, 0.5), b.BlockOps("timed", 0, 1024, 64, 256, 0.5)) {
		t.Error("block ops identical across seeds")
	}
	if reflect.DeepEqual(a.MetaOps("timed", 0, 1024, 1000), b.MetaOps("timed", 0, 1024, 1000)) {
		t.Error("meta ops identical across seeds")
	}
	if bytes.Equal(a.Payloads(0, 1, 256)[0], b.Payloads(0, 1, 256)[0]) {
		t.Error("payloads identical across seeds")
	}
}

func TestClientsAndPurposesAreIndependent(t *testing.T) {
	g := New(3)
	if reflect.DeepEqual(g.BlockOps("timed", 0, 1024, 64, 256, 0.5), g.BlockOps("timed", 1, 1024, 64, 256, 0.5)) {
		t.Error("two clients got the same op list")
	}
	if reflect.DeepEqual(g.BlockOps("warm", 0, 1024, 64, 256, 0.5), g.BlockOps("timed", 0, 1024, 64, 256, 0.5)) {
		t.Error("warm-up and timed lists coincide")
	}
}

func TestMixAndSkew(t *testing.T) {
	g := New(1)
	const n = 100000
	var writes int
	files := make([]int, 64)
	for _, op := range g.BlockOps("timed", 0, n, 64, 256, 0.5) {
		if op.Write {
			writes++
		}
		if int(op.File) >= 64 || int(op.Block) >= 256 {
			t.Fatalf("op out of range: %+v", op)
		}
		files[op.File]++
	}
	if writes < n*48/100 || writes > n*52/100 {
		t.Errorf("writes = %d of %d, want ~50%%", writes, n)
	}
	hot := 0
	for _, c := range files {
		if c > hot {
			hot = c
		}
	}
	if hot < n/8 {
		t.Errorf("hottest file got %d of %d accesses; Zipf(1.1) over 64 should exceed 1/8", hot, n)
	}
	kinds := make([]int, 3)
	for _, op := range g.MetaOps("timed", 0, n, 1000) {
		kinds[op.Kind]++
	}
	for k, want := range []int{70, 20, 10} {
		if got := kinds[k] * 100 / n; got < want-2 || got > want+2 {
			t.Errorf("mutator %d share = %d%%, want ~%d%%", k, got, want)
		}
	}
}

func TestCollectionsCoverEveryShard(t *testing.T) {
	shardOf := func(s string) int {
		h := fnv.New32a()
		h.Write([]byte(s))
		return int(h.Sum32() % 6)
	}
	names := New(5).Collections(6, 2, shardOf)
	if len(names) != 12 {
		t.Fatalf("got %d collections, want 12", len(names))
	}
	for i, name := range names {
		if got := shardOf(name); got != i/2 {
			t.Errorf("collection %d (%s) on shard %d, want %d", i, name, got, i/2)
		}
	}
}

func TestCallsCountsGeneration(t *testing.T) {
	g := New(1)
	g.Keys(0, 4)
	g.MetaOps("timed", 0, 8, 16)
	if g.Calls() != 2 {
		t.Fatalf("Calls = %d, want 2", g.Calls())
	}
}
