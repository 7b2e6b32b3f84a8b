package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"
)

// Spans are recorded by harness-owned decorators at the seams the
// program already exposes (storage.Backend, storage.Store, vfs.FS,
// qos.Config.Price, metadb.Replicator) — nothing inside the program is
// instrumented.  The traced run keeps one request in flight, so a
// server-side span nests inside its client span by interval; parents
// are recovered from containment when the run ends.

// spanKind names one decorated call site and the layer it belongs to.
type spanKind uint8

const (
	spClientOp spanKind = iota // root: one harness op through the public client API
	spMutate                   // root: one metadb mutator call
	spPrice
	spDevOpen
	spDevRead
	spDevWrite
	spDevClose
	spDevMeta
	spStoreOpen
	spStoreRead
	spStoreWrite
	spStoreMeta
	spVFSWrite
	spVFSSync
	spVFSMeta
	spReplicate
	numSpanKinds
)

var spanKinds = [numSpanKinds]struct {
	name, layer string
	root        bool
}{
	spClientOp:   {"client.op", "srbnet", true},
	spMutate:     {"metadb.mutate", "metadb", true},
	spPrice:      {"qos.price", "qos", false},
	spDevOpen:    {"device.open", "device", false},
	spDevRead:    {"device.read", "device", false},
	spDevWrite:   {"device.write", "device", false},
	spDevClose:   {"device.close", "device", false},
	spDevMeta:    {"device.meta", "device", false},
	spStoreOpen:  {"store.open", "store", false},
	spStoreRead:  {"store.read", "store", false},
	spStoreWrite: {"store.write", "store", false},
	spStoreMeta:  {"store.meta", "store", false},
	spVFSWrite:   {"vfs.write", "vfs", false},
	spVFSSync:    {"vfs.sync", "vfs", false},
	spVFSMeta:    {"vfs.meta", "vfs", false},
	spReplicate:  {"cluster.replicate", "cluster", false},
}

type span struct {
	start, end int64 // ns since the tracer's origin
	kind       spanKind
}

// tracer is a pre-sized in-memory span ring.  Decorators stay
// installed for a whole traced invocation; on gates recording, so the
// untraced baseline segment pays one atomic load per decorated call.
type tracer struct {
	origin  time.Time
	spans   []span
	n       atomic.Int64
	dropped atomic.Int64
	on      atomic.Bool
}

// traceCapacity bounds the ring: ~24 MiB, enough for several seconds
// of one-client traffic at ~6 spans per op.
const traceCapacity = 1 << 20

func newTracer() *tracer {
	return &tracer{origin: time.Now(), spans: make([]span, traceCapacity)}
}

// begin returns the start stamp of a span, or -1 while recording is
// off.  A nil tracer never records.
func (t *tracer) begin() int64 {
	if t == nil || !t.on.Load() {
		return -1
	}
	return int64(time.Since(t.origin))
}

func (t *tracer) end(kind spanKind, start int64) {
	if start < 0 {
		return
	}
	end := int64(time.Since(t.origin))
	i := t.n.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return
	}
	t.spans[i] = span{start: start, end: end, kind: kind}
}

func (t *tracer) recorded() []span {
	n := t.n.Load()
	if n > int64(len(t.spans)) {
		n = int64(len(t.spans))
	}
	return t.spans[:n]
}

// spanNode is a span with its recovered position in the request tree.
type spanNode struct {
	span
	parent int   // index into the sorted slice, -1 for a root
	req    int   // ordinal of the root span this one belongs to, -1 if orphaned
	self   int64 // duration minus the part covered by children
}

// nest sorts spans by start and assigns each the innermost enclosing
// span as parent.  A span outside every root (set-up traffic that
// leaked past the gate) keeps req -1 and is ignored by the layer sums.
func nest(spans []span) []spanNode {
	nodes := make([]spanNode, len(spans))
	for i, s := range spans {
		nodes[i] = spanNode{span: s, parent: -1, req: -1, self: s.end - s.start}
	}
	sort.SliceStable(nodes, func(i, j int) bool {
		if nodes[i].start != nodes[j].start {
			return nodes[i].start < nodes[j].start
		}
		return nodes[i].end > nodes[j].end // the enclosing span first
	})
	var stack []int
	req := -1
	for i := range nodes {
		for len(stack) > 0 && nodes[stack[len(stack)-1]].end < nodes[i].end {
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			p := stack[len(stack)-1]
			nodes[i].parent = p
			nodes[i].req = nodes[p].req
			nodes[p].self -= nodes[i].end - nodes[i].start
		} else if spanKinds[nodes[i].kind].root {
			req++
			nodes[i].req = req
		}
		stack = append(stack, i)
	}
	return nodes
}

// layerStat sums one layer's share of the traced requests.
type layerStat struct {
	calls int64
	total int64 // ns inside the layer's spans
	self  int64 // ns not covered by a child span
}

// traceSummary is what the per-layer metrics read from a traced run.
type traceSummary struct {
	roots     int64
	rootTotal int64 // ns, sum of root spans
	byLayer   map[string]layerStat
	byKind    [numSpanKinds]layerStat
}

func summarize(nodes []spanNode) traceSummary {
	sum := traceSummary{byLayer: make(map[string]layerStat)}
	for _, n := range nodes {
		if n.req < 0 {
			continue
		}
		d := n.end - n.start
		if n.parent < 0 {
			sum.roots++
			sum.rootTotal += d
		}
		k := &sum.byKind[n.kind]
		k.calls++
		k.total += d
		k.self += n.self
		layer := spanKinds[n.kind].layer
		l := sum.byLayer[layer]
		l.calls++
		l.total += d
		l.self += n.self
		sum.byLayer[layer] = l
	}
	return sum
}

// selfUSPerRoot is a layer's self time per traced request, in µs.
func (s traceSummary) selfUSPerRoot(layer string) float64 {
	if s.roots == 0 {
		return 0
	}
	return float64(s.byLayer[layer].self) / 1e3 / float64(s.roots)
}

// csvSpanLimit caps the spans written per traced run (~6 MB of CSV).
const csvSpanLimit = 100000

// writeSpanCSV writes name,layer,start_ns,end_ns,parent,req rows; parent
// is the row index of the enclosing span, -1 for a root.
func writeSpanCSV(path string, nodes []spanNode) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name,layer,start_ns,end_ns,parent,req")
	if len(nodes) > csvSpanLimit {
		nodes = nodes[:csvSpanLimit]
	}
	for _, n := range nodes {
		k := spanKinds[n.kind]
		fmt.Fprintf(w, "%s,%s,%d,%d,%d,%d\n", k.name, k.layer, n.start, n.end, n.parent, n.req)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
