package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"

	"rwp/internal/cluster"
	"rwp/internal/live"
	"rwp/internal/live/proto"
)

// The traced run measures layers from outside the program: every value
// the program accepts (the Loader func, the proto.Backend a server or
// node serves, the io.ReadWriter handed to ServeConn, the router's
// NodeConn, Snapshotter and Restorer) is wrapped in a type that records
// one span per call. No program code changes, so the spans time the
// public boundaries only; a layer's self time is its span minus the
// part of it that child spans cover.

// spanName identifies a span kind; names are fixed so spans are small.
type spanName uint8

const (
	spLiveGetHit  spanName = iota // live.Cache.Get that hit
	spLiveGetMiss                 // live.Cache.Get that missed (Loader child)
	spLivePut                     // live.Cache.Put
	spBackendLoad                 // the Loader func
	spProtoQueue                  // proto.Client.QueueMGet/QueueMPut
	spProtoFlush                  // proto.Client.Flush
	spProtoRead                   // server conn Read (ServeConn waiting on the peer)
	spProtoBurst                  // server work between two Reads
	spProtoWrite                  // server conn Write
	spReplay                      // cluster.Client.Replay
	spNodeQueue                   // cluster NodeConn.Queue*
	spNodeFlush                   // cluster NodeConn.Flush
	spSnapEncode                  // cluster Snapshotter
	spSnapRestore                 // cluster Restorer
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"live.get_hit", "live.get_miss", "live.put", "backend.load",
	"proto.queue", "proto.flush", "proto.read", "proto.burst", "proto.write",
	"cluster.replay", "cluster.node_queue", "cluster.node_flush",
	"snap.encode", "snap.restore",
}

// span is one timed call. start and end are nanoseconds on the run's
// shared monotonic clock; parent indexes the same tracer's span list
// (-1 for a root); n carries a byte count where the call moves bytes.
type span struct {
	name       spanName
	parent     int32
	start, end int64
	n          int64
}

// clock is the run's monotonic time base, shared by every tracer so
// client and server spans line up.
type clock struct{ base time.Time }

func newClock() clock { return clock{base: time.Now()} }

// now returns nanoseconds since the clock's base.
func (c clock) now() int64 { return int64(time.Since(c.base)) }

// tracer records the spans of one goroutine. Spans nest by call: the
// innermost open span is the parent of the next one begun.
type tracer struct {
	clk   clock
	spans []span
	stack []int32
}

func newTracer(clk clock) *tracer {
	return &tracer{clk: clk, spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its index.
func (t *tracer) begin(name spanName) int32 {
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, parent: parent, start: t.clk.now()})
	t.stack = append(t.stack, i)
	return i
}

// end closes span i, renaming it (a Get learns hit or miss only on
// return) and attaching a byte count.
func (t *tracer) end(i int32, name spanName, n int64) {
	s := &t.spans[i]
	s.end = t.clk.now()
	s.name = name
	s.n = n
	t.stack = t.stack[:len(t.stack)-1]
}

// drain returns the spans recorded so far and empties the tracer,
// reusing its buffer: the result is valid until the next begin. Every
// span must be closed, so callers drain between calls, never inside
// one.
func (t *tracer) drain() []span {
	out := t.spans
	t.spans = t.spans[:0]
	return out
}

// handoff publishes a goroutine's finished spans to another goroutine.
// The server loop publishes at each Read, when no span of its own is
// open; the bench goroutine collects between rounds.
type handoff struct {
	mu    sync.Mutex
	spans []span
}

func (h *handoff) publish(s []span) {
	h.mu.Lock()
	h.spans = append(h.spans, s...)
	h.mu.Unlock()
}

func (h *handoff) collect() []span {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := h.spans
	h.spans = nil
	return out
}

// tracedLoader wraps a Loader: one backend.load span per call.
func tracedLoader(t *tracer, inner live.Loader) live.Loader {
	return func(key string) []byte {
		i := t.begin(spBackendLoad)
		v := inner(key)
		t.end(i, spBackendLoad, int64(len(v)))
		return v
	}
}

// tracedBackend wraps the cache as the proto.Backend a server or node
// serves: one live.* span per Get/Put.
type tracedBackend struct {
	inner proto.Backend
	t     *tracer
}

func (b *tracedBackend) Get(key string) ([]byte, bool) {
	i := b.t.begin(spLiveGetMiss)
	v, hit := b.inner.Get(key)
	name := spLiveGetMiss
	if hit {
		name = spLiveGetHit
	}
	b.t.end(i, name, 0)
	return v, hit
}

func (b *tracedBackend) Put(key string, val []byte) bool {
	i := b.t.begin(spLivePut)
	ins := b.inner.Put(key, val)
	b.t.end(i, spLivePut, 0)
	return ins
}

func (b *tracedBackend) StatsJSON() ([]byte, error) { return b.inner.StatsJSON() }

// tracedConn wraps the io.ReadWriter handed to proto.ServeConn. A
// proto.read span covers each Read (the server waiting for its peer);
// a proto.burst span covers the server's work from one Read's return
// to the next Read, so the Backend and Write spans in between nest
// under it. Spans are published at each Read, when the burst has just
// closed and nothing of the server's is open.
type tracedConn struct {
	inner io.ReadWriter
	t     *tracer
	out   *handoff
	burst int32 // open burst span, -1 when none
}

func newTracedConn(inner io.ReadWriter, t *tracer, out *handoff) *tracedConn {
	return &tracedConn{inner: inner, t: t, out: out, burst: -1}
}

func (c *tracedConn) Read(p []byte) (int, error) {
	if c.burst >= 0 {
		c.t.end(c.burst, spProtoBurst, 0)
		c.burst = -1
	}
	c.out.publish(c.t.drain())
	i := c.t.begin(spProtoRead)
	n, err := c.inner.Read(p)
	c.t.end(i, spProtoRead, int64(n))
	c.burst = c.t.begin(spProtoBurst)
	return n, err
}

func (c *tracedConn) Write(p []byte) (int, error) {
	i := c.t.begin(spProtoWrite)
	n, err := c.inner.Write(p)
	c.t.end(i, spProtoWrite, int64(n))
	return n, err
}

// tracedNode wraps a cluster NodeConn: queue and flush calls become
// cluster.node_queue and cluster.node_flush spans. Depth, Stats and
// Close are bookkeeping and pass through untimed.
type tracedNode struct {
	inner cluster.NodeConn
	t     *tracer
}

func (n *tracedNode) QueueGet(key string) error {
	i := n.t.begin(spNodeQueue)
	err := n.inner.QueueGet(key)
	n.t.end(i, spNodeQueue, 1)
	return err
}

func (n *tracedNode) QueuePut(key string, val []byte) error {
	i := n.t.begin(spNodeQueue)
	err := n.inner.QueuePut(key, val)
	n.t.end(i, spNodeQueue, 1)
	return err
}

func (n *tracedNode) QueueMGet(keys []string) error {
	i := n.t.begin(spNodeQueue)
	err := n.inner.QueueMGet(keys)
	n.t.end(i, spNodeQueue, int64(len(keys)))
	return err
}

func (n *tracedNode) QueueMPut(kvs []proto.KV) error {
	i := n.t.begin(spNodeQueue)
	err := n.inner.QueueMPut(kvs)
	n.t.end(i, spNodeQueue, int64(len(kvs)))
	return err
}

func (n *tracedNode) Flush() ([]proto.Reply, error) {
	i := n.t.begin(spNodeFlush)
	r, err := n.inner.Flush()
	n.t.end(i, spNodeFlush, int64(len(r)))
	return r, err
}

func (n *tracedNode) Depth() int             { return n.inner.Depth() }
func (n *tracedNode) Stats() ([]byte, error) { return n.inner.Stats() }
func (n *tracedNode) Close() error           { return n.inner.Close() }

// tracedSnapshotter and tracedRestorer time replica catch-up.
func tracedSnapshotter(t *tracer, inner cluster.Snapshotter) cluster.Snapshotter {
	return func(lo, hi int) ([]byte, error) {
		i := t.begin(spSnapEncode)
		data, err := inner(lo, hi)
		t.end(i, spSnapEncode, int64(len(data)))
		return data, err
	}
}

func tracedRestorer(t *tracer, inner cluster.Restorer) cluster.Restorer {
	return func(data []byte) (int, error) {
		i := t.begin(spSnapRestore)
		purged, err := inner(data)
		t.end(i, spSnapRestore, int64(len(data)))
		return purged, err
	}
}

// spanAgg accumulates one span kind: calls, total duration, total self
// time and total bytes.
type spanAgg struct {
	count, dur, self, n int64
}

// selfTimes returns each span's duration minus the part of its
// interval covered by its children (the union of the children's
// intervals, clipped to the parent's).
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	var kids []int32
	for i := range spans {
		self[i] = spans[i].end - spans[i].start
		if spans[i].parent >= 0 {
			kids = append(kids, int32(i))
		}
	}
	// Group children by parent; within a parent, order by start.
	sort.Slice(kids, func(a, b int) bool {
		ka, kb := spans[kids[a]], spans[kids[b]]
		if ka.parent != kb.parent {
			return ka.parent < kb.parent
		}
		return ka.start < kb.start
	})
	for lo := 0; lo < len(kids); {
		hi := lo + 1
		for hi < len(kids) && spans[kids[hi]].parent == spans[kids[lo]].parent {
			hi++
		}
		p := spans[kids[lo]].parent
		self[p] -= covered(spans[p], spans, kids[lo:hi])
		lo = hi
	}
	return self
}

// covered returns the length of the union of the kids' intervals
// within the parent's interval. kids must be ordered by start.
func covered(parent span, spans []span, kids []int32) int64 {
	var total, curLo, curHi int64
	open := false
	for _, k := range kids {
		lo, hi := spans[k].start, spans[k].end
		if lo < parent.start {
			lo = parent.start
		}
		if hi > parent.end {
			hi = parent.end
		}
		switch {
		case hi <= lo:
		case !open:
			curLo, curHi, open = lo, hi, true
		case lo <= curHi:
			if hi > curHi {
				curHi = hi
			}
		default:
			total += curHi - curLo
			curLo, curHi = lo, hi
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// aggregate folds spans that started at or after from into agg. Spans
// from before the round (the server's Read that waited through the
// untimed restore) are left out.
func aggregate(agg *[numSpanNames]spanAgg, spans []span, from int64) {
	self := selfTimes(spans)
	for i, s := range spans {
		if s.start < from {
			continue
		}
		a := &agg[s.name]
		a.count++
		a.dur += s.end - s.start
		a.self += self[i]
		a.n += s.n
	}
}

// spanRecord is one line of the span file.
type spanRecord struct {
	Tracer  string `json:"tracer"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Bytes   int64  `json:"bytes,omitempty"`
}

// writeSpans writes spans as JSON lines, at most limit of them.
func writeSpans(w io.Writer, tracerName string, spans []span, limit int) error {
	enc := json.NewEncoder(w)
	for i, s := range spans {
		if i >= limit {
			break
		}
		rec := spanRecord{Tracer: tracerName, ID: i, Parent: int(s.parent), Name: spanNames[s.name],
			StartNS: s.start, EndNS: s.end, Bytes: s.n}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return nil
}
