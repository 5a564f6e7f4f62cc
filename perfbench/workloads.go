package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"

	"rwp/internal/cluster"
	"rwp/internal/live"
	"rwp/internal/live/loadgen"
	"rwp/internal/live/proto"
	"rwp/internal/snap"
)

// Fixed workload shape. Every workload serves 64-B values from the
// default 1024-set x 16-way RWP cache with 8 lock shards.
const (
	valueSize    = 64
	frameOps     = 16 // tcp-mcf: ops per MGET/MPUT frame (same-kind runs)
	flushFrames  = 4  // tcp-mcf: frames per pipelined flush
	replayOps    = 32 // cluster-hotspot: ops per Replay call, one router flush
	clusterNodes = 3
	ringShards   = 64
	hotKeys      = 8 // cluster-hotspot: hot keys, all on one ring shard
)

// params sizes a workload run; tests shrink them.
type params struct {
	warm   int // warm-up ops run by every set-up
	seg    int // ops replayed from the post-warm-up state in each round
	setups int // set-up repetitions; setup_s is their median
}

// workload is one traffic mix: a deterministic op source and the
// system that serves it.
type workload struct {
	name   string
	params params
	// stream returns the seed's op source: each call yields the next n
	// ops of one infinite deterministic stream.
	stream func(seed uint64) (func(n int) []loadgen.Op, error)
	// build constructs the serving system; tr is nil for an untraced one.
	build func(tr *tracing) (system, error)
	// units splits the segment into submission units (see unit); nil
	// when every op is its own unit.
	units func(ops []loadgen.Op) []unit
	// verify checks a reference run against the rounds' stats document.
	verify func(w *workload, p params, seed uint64, doc []byte) (bool, error)
}

var workloads = []*workload{
	{
		name:   "direct-mcf",
		params: params{warm: 1 << 19, seg: 1 << 15, setups: 5},
		stream: mcfStream,
		build:  func(tr *tracing) (system, error) { return newDirect(tr) },
		verify: verifyDirect,
	},
	{
		name:   "tcp-mcf",
		params: params{warm: 1 << 19, seg: 1 << 15, setups: 3},
		stream: mcfStream,
		build:  func(tr *tracing) (system, error) { return newTCP(tr) },
		units:  frameUnits,
		verify: verifyDirect,
	},
	{
		name:   "cluster-hotspot",
		params: params{warm: 1 << 19, seg: 1 << 15, setups: 5},
		stream: hotspotStream,
		build:  func(tr *tracing) (system, error) { return newCluster(tr) },
		units:  blockUnits,
		verify: verifyCluster,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// mcfStream is the loadgen mcf profile: 35% Puts, a working set larger
// than the cache.
func mcfStream(seed uint64) (func(n int) []loadgen.Op, error) {
	g, err := loadgen.New("mcf", seed, valueSize)
	if err != nil {
		return nil, err
	}
	return g.Batch, nil
}

// hotspotStream is the cluster bench's hotspot stream: 8 Zipf-hot keys
// (s=1.2) on one ring shard taking 90% of ops over 65,536 uniform cold
// keys, 10% Puts.
func hotspotStream(seed uint64) (func(n int) []loadgen.Op, error) {
	names, err := hotShardKeys()
	if err != nil {
		return nil, err
	}
	h, err := loadgen.NewHotspot(loadgen.HotspotConfig{
		HotNames: names, ColdKeys: 65536,
		HotFrac: 0.9, WriteFrac: 0.1, ZipfS: 1.2,
		ValueSize: valueSize, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	return h.Ops, nil
}

// hotShardKeys picks the first hotKeys loadgen hot-key names that land
// on the ring shard of hot key 0. Shard placement depends only on the
// ring geometry, never on the node set.
func hotShardKeys() ([]string, error) {
	r, err := cluster.New(live.DefaultConfig().Sets, ringShards, []string{"probe"}, 0)
	if err != nil {
		return nil, err
	}
	target := r.KeyShard(loadgen.HotKey(0))
	names := make([]string, 0, hotKeys)
	for i := 0; len(names) < hotKeys; i++ {
		if name := loadgen.HotKey(i); r.KeyShard(name) == target {
			names = append(names, name)
		}
	}
	return names, nil
}

// segment is the op sequence every round replays from the post-warm-up
// state, generated before any timed call.
type segment struct {
	ops []loadgen.Op
	// want is each Get's expected value: every Put and every Loader
	// fill stores loadgen.Value(key, 64), so a Get returns exactly that.
	want   [][]byte
	frames []opRange // tcp-mcf: same-kind runs of at most frameOps ops
	units  []unit
}

// opRange is a half-open op index range.
type opRange struct{ lo, hi int }

// unit is one submission unit: the ops [lo, hi) sent together (one
// call, one pipelined flush, or one Replay) and, on tcp-mcf, the frames
// [flo, fhi) that carry them. Each op's latency is its unit's.
type unit struct{ lo, hi, flo, fhi int }

func newSegment(w *workload, ops []loadgen.Op) *segment {
	s := &segment{ops: ops, want: make([][]byte, len(ops))}
	byKey := make(map[string][]byte)
	for i, op := range ops {
		if op.Put {
			continue
		}
		v, ok := byKey[op.Key]
		if !ok {
			v = loadgen.Value(op.Key, valueSize)
			byKey[op.Key] = v
		}
		s.want[i] = v
	}
	lo := 0
	for _, run := range loadgen.Runs(ops, frameOps) {
		s.frames = append(s.frames, opRange{lo, lo + len(run)})
		lo += len(run)
	}
	if w.units != nil {
		s.units = w.units(ops)
	}
	return s
}

// frameUnits groups the same-kind runs of at most frameOps ops into
// flushes of flushFrames frames.
func frameUnits(ops []loadgen.Op) []unit {
	var us []unit
	runs := loadgen.Runs(ops, frameOps)
	lo := 0
	for f := 0; f < len(runs); f += flushFrames {
		u := unit{lo: lo, flo: f, fhi: min(f+flushFrames, len(runs))}
		for _, r := range runs[u.flo:u.fhi] {
			lo += len(r)
		}
		u.hi = lo
		us = append(us, u)
	}
	return us
}

// blockUnits cuts the ops into Replay blocks of replayOps.
func blockUnits(ops []loadgen.Op) []unit {
	var us []unit
	for lo := 0; lo < len(ops); lo += replayOps {
		us = append(us, unit{lo: lo, hi: min(lo+replayOps, len(ops))})
	}
	return us
}

// system is one workload's serving stack under test.
type system interface {
	// caches returns the live caches behind the system.
	caches() []*live.Cache
	// warm runs ops through the serving path.
	warm(ops []loadgen.Op) error
	// reset restores every cache to the post-warm-up snapshots (and,
	// on the cluster, starts a fresh router) before a round.
	reset(snaps []*snap.Snapshot) error
	// round replays the segment once, timing each unit on clk into
	// lat (one entry per op), and checks every returned value.
	round(seg *segment, clk clock, lat []int64) (roundOut, error)
	// doc renders the deterministic stats document.
	doc() ([]byte, error)
	close() error
}

// roundOut is what a round reports besides its latencies.
type roundOut struct {
	failed    int     // ops whose returned value was wrong
	replCmds  int     // cluster: replica commands applied
	modelXput float64 // cluster: reads per busiest-node load unit
}

// tracing holds a traced system's tracers: main for the bench
// goroutine (direct calls, the proto client, the router and its
// nodes), server for the tcp server goroutine, whose spans reach the
// bench goroutine through served.
type tracing struct {
	main   *tracer
	server *tracer
	served handoff
}

func newTracing(clk clock) *tracing {
	return &tracing{main: newTracer(clk), server: newTracer(clk)}
}

// cacheConfig is the shared geometry with the deterministic Loader,
// wrapped when the system is traced.
func cacheConfig(t *tracer) live.Config {
	cfg := live.DefaultConfig()
	cfg.Loader = loadgen.Loader(valueSize)
	if t != nil {
		cfg.Loader = tracedLoader(t, cfg.Loader)
	}
	return cfg
}

// restoreAll applies snaps[i] to caches[i].
func restoreAll(cs []*live.Cache, snaps []*snap.Snapshot) error {
	for i, c := range cs {
		if err := c.RestoreSnapshot(snaps[i]); err != nil {
			return err
		}
	}
	return nil
}

// getFailed reports whether a Get result is wrong: the Loader never
// reports absence, so every Get returns a value, and it must be want.
func getFailed(got, want []byte) bool {
	return got == nil || !bytes.Equal(got, want)
}

// directSys is direct-mcf: one goroutine calls Get/Put in-process.
type directSys struct {
	cache *live.Cache
	be    proto.Backend
}

func newDirect(tr *tracing) (*directSys, error) {
	var t *tracer
	if tr != nil {
		t = tr.main
	}
	c, err := live.New(cacheConfig(t))
	if err != nil {
		return nil, err
	}
	s := &directSys{cache: c, be: c}
	if t != nil {
		s.be = &tracedBackend{inner: c, t: t}
	}
	return s, nil
}

func (s *directSys) caches() []*live.Cache { return []*live.Cache{s.cache} }

func (s *directSys) warm(ops []loadgen.Op) error {
	for _, op := range ops {
		if op.Put {
			s.be.Put(op.Key, op.Value)
		} else {
			s.be.Get(op.Key)
		}
	}
	return nil
}

func (s *directSys) reset(snaps []*snap.Snapshot) error { return restoreAll(s.caches(), snaps) }

func (s *directSys) round(seg *segment, clk clock, lat []int64) (roundOut, error) {
	var out roundOut
	for i, op := range seg.ops {
		var v []byte
		t0 := clk.now()
		if op.Put {
			s.be.Put(op.Key, op.Value)
		} else {
			v, _ = s.be.Get(op.Key)
		}
		lat[i] = clk.now() - t0
		if !op.Put && getFailed(v, seg.want[i]) {
			out.failed++
		}
	}
	return out, nil
}

func (s *directSys) doc() ([]byte, error) { return s.cache.StatsJSON() }

func (s *directSys) close() error { return nil }

// tcpSys is tcp-mcf: the cache behind proto.ServeConn on one loopback
// TCP connection, driven by one pipelined proto.Client.
type tcpSys struct {
	cache *live.Cache
	ln    net.Listener
	cli   *proto.Client
	done  chan error // the server goroutine's ServeConn result
	t     *tracer    // client-side spans; nil untraced
	keys  []string   // reused MGET scratch
	kvs   []proto.KV // reused MPUT scratch
}

func newTCP(tr *tracing) (*tcpSys, error) {
	var srvT *tracer
	if tr != nil {
		srvT = tr.server
	}
	c, err := live.New(cacheConfig(srvT))
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &tcpSys{cache: c, ln: ln, done: make(chan error, 1)}
	go func() {
		sc, err := ln.Accept()
		if err != nil {
			s.done <- err
			return
		}
		defer sc.Close()
		var rw io.ReadWriter = sc
		var be proto.Backend = c
		if tr != nil {
			rw = newTracedConn(sc, tr.server, &tr.served)
			be = &tracedBackend{inner: c, t: tr.server}
		}
		s.done <- proto.ServeConn(rw, be)
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		ln.Close()
		return nil, errors.Join(err, <-s.done)
	}
	s.cli = proto.NewClient(conn)
	if tr != nil {
		s.t = tr.main
	}
	return s, nil
}

func (s *tcpSys) caches() []*live.Cache { return []*live.Cache{s.cache} }

// queue frames one same-kind run as an MGET or MPUT request.
func (s *tcpSys) queue(run []loadgen.Op) error {
	var i int32
	if s.t != nil {
		i = s.t.begin(spProtoQueue)
	}
	var err error
	if run[0].Put {
		s.kvs = s.kvs[:0]
		for _, op := range run {
			s.kvs = append(s.kvs, proto.KV{Key: op.Key, Value: op.Value})
		}
		err = s.cli.QueueMPut(s.kvs)
	} else {
		s.keys = s.keys[:0]
		for _, op := range run {
			s.keys = append(s.keys, op.Key)
		}
		err = s.cli.QueueMGet(s.keys)
	}
	if s.t != nil {
		s.t.end(i, spProtoQueue, int64(len(run)))
	}
	return err
}

func (s *tcpSys) flush() ([]proto.Reply, error) {
	var i int32
	if s.t != nil {
		i = s.t.begin(spProtoFlush)
	}
	r, err := s.cli.Flush()
	if s.t != nil {
		s.t.end(i, spProtoFlush, int64(len(r)))
	}
	return r, err
}

func (s *tcpSys) warm(ops []loadgen.Op) error {
	for _, run := range loadgen.Runs(ops, frameOps) {
		if err := s.queue(run); err != nil {
			return err
		}
		if s.cli.Depth() >= flushFrames {
			if _, err := s.flush(); err != nil {
				return err
			}
		}
	}
	_, err := s.flush()
	return err
}

func (s *tcpSys) reset(snaps []*snap.Snapshot) error { return restoreAll(s.caches(), snaps) }

func (s *tcpSys) round(seg *segment, clk clock, lat []int64) (roundOut, error) {
	var out roundOut
	for _, u := range seg.units {
		t0 := clk.now()
		for _, f := range seg.frames[u.flo:u.fhi] {
			if err := s.queue(seg.ops[f.lo:f.hi]); err != nil {
				return out, err
			}
		}
		replies, err := s.flush()
		d := clk.now() - t0
		if err != nil {
			return out, err
		}
		for i := u.lo; i < u.hi; i++ {
			lat[i] = d
		}
		if len(replies) != u.fhi-u.flo {
			return out, fmt.Errorf("tcp: %d replies for %d frames", len(replies), u.fhi-u.flo)
		}
		for j, rep := range replies {
			f := seg.frames[u.flo+j]
			if seg.ops[f.lo].Put {
				continue
			}
			if len(rep.Gets) != f.hi-f.lo {
				out.failed += f.hi - f.lo
				continue
			}
			for k, g := range rep.Gets {
				if g.Status == proto.StatusMiss || getFailed(g.Value, seg.want[f.lo+k]) {
					out.failed++
				}
			}
		}
	}
	return out, nil
}

func (s *tcpSys) doc() ([]byte, error) { return s.cache.StatsJSON() }

// close hangs up; the server loop sees a clean EOF and returns nil.
func (s *tcpSys) close() error {
	err := s.cli.Close()
	srvErr := <-s.done
	return errors.Join(err, s.ln.Close(), srvErr)
}

// nodeConn is the benchmark's in-process cluster.NodeConn over one
// node's proto.Backend. Like the harness's direct transport it serves
// each op at queue time; it also logs every Get's value, in routing
// order, so the bench can check values the router discards.
type nodeConn struct {
	be      proto.Backend
	gets    *[][]byte
	replies []proto.Reply // returned by Flush; valid until the next Queue
}

func (n *nodeConn) get(key string) proto.GetResult {
	val, hit := n.be.Get(key)
	*n.gets = append(*n.gets, val)
	switch {
	case hit:
		return proto.GetResult{Status: proto.StatusHit, Value: val}
	case val != nil:
		return proto.GetResult{Status: proto.StatusFill, Value: val}
	default:
		return proto.GetResult{Status: proto.StatusMiss}
	}
}

func (n *nodeConn) add(r proto.Reply) { n.replies = append(n.replies, r) }

func (n *nodeConn) QueueGet(key string) error {
	n.add(proto.Reply{Op: proto.OpGet, Get: n.get(key)})
	return nil
}

func (n *nodeConn) QueuePut(key string, val []byte) error {
	n.add(proto.Reply{Op: proto.OpPut, Inserted: n.be.Put(key, val)})
	return nil
}

func (n *nodeConn) QueueMGet(keys []string) error {
	gets := make([]proto.GetResult, len(keys))
	for i, k := range keys {
		gets[i] = n.get(k)
	}
	n.add(proto.Reply{Op: proto.OpMGet, Gets: gets})
	return nil
}

func (n *nodeConn) QueueMPut(kvs []proto.KV) error {
	ins := make([]bool, len(kvs))
	for i, kv := range kvs {
		ins[i] = n.be.Put(kv.Key, kv.Value)
	}
	n.add(proto.Reply{Op: proto.OpMPut, Inserts: ins})
	return nil
}

func (n *nodeConn) Depth() int { return len(n.replies) }

// Flush hands back the queued replies and reuses their buffer: the
// router reads a flush's replies before it queues again.
func (n *nodeConn) Flush() ([]proto.Reply, error) {
	r := n.replies
	n.replies = n.replies[:0]
	return r, nil
}

func (n *nodeConn) Stats() ([]byte, error) { return n.be.StatsJSON() }

func (n *nodeConn) Close() error { return nil }

// clusterSys is cluster-hotspot: three in-process nodes behind the
// cluster router with the shard manager on.
type clusterSys struct {
	nodes  []*live.Cache
	conns  []cluster.NodeConn
	resets []cluster.Resetter
	snaps  []cluster.Snapshotter
	rests  []cluster.Restorer
	ring   *cluster.Ring
	client *cluster.Client
	gets   [][]byte // Get values logged by the nodes, routing order
	t      *tracer  // nil untraced
}

// managerConfig is the cluster bench's replication policy.
func managerConfig() cluster.ManagerConfig {
	return cluster.ManagerConfig{Window: 4096, HotReads: 1024, ColdReads: 64}
}

func nodeIDs() []string {
	ids := make([]string, clusterNodes)
	for i := range ids {
		ids[i] = fmt.Sprintf("node%d", i)
	}
	return ids
}

func newCluster(tr *tracing) (*clusterSys, error) {
	s := &clusterSys{}
	if tr != nil {
		s.t = tr.main
	}
	for range clusterNodes {
		c, err := live.New(cacheConfig(s.t))
		if err != nil {
			return nil, err
		}
		var be proto.Backend = c
		var conn cluster.NodeConn = &nodeConn{be: be, gets: &s.gets}
		snapper, restorer := cluster.Snapshotter(c.SnapBytes), cluster.Restorer(c.RestoreBytes)
		if s.t != nil {
			conn = &tracedNode{inner: &nodeConn{be: &tracedBackend{inner: c, t: s.t}, gets: &s.gets}, t: s.t}
			snapper, restorer = tracedSnapshotter(s.t, snapper), tracedRestorer(s.t, restorer)
		}
		s.nodes = append(s.nodes, c)
		s.conns = append(s.conns, conn)
		s.resets = append(s.resets, c.ResetRange)
		s.snaps = append(s.snaps, snapper)
		s.rests = append(s.rests, restorer)
	}
	return s, s.newRouter()
}

// newRouter starts a fresh ring, manager and router over the nodes.
func (s *clusterSys) newRouter() error {
	ring, err := cluster.New(live.DefaultConfig().Sets, ringShards, nodeIDs(), 0)
	if err != nil {
		return err
	}
	mgr, err := cluster.NewManager(managerConfig())
	if err != nil {
		return err
	}
	s.ring = ring
	s.client, err = cluster.NewClient(cluster.ClientConfig{
		Ring: ring, Conns: s.conns, Resetters: s.resets,
		Snapshotters: s.snaps, Restorers: s.rests, Manager: mgr,
	})
	return err
}

func (s *clusterSys) caches() []*live.Cache { return s.nodes }

func (s *clusterSys) warm(ops []loadgen.Op) error {
	for lo := 0; lo < len(ops); lo += replayOps {
		s.gets = s.gets[:0]
		if err := s.client.Replay(ops[lo:min(lo+replayOps, len(ops))]); err != nil {
			return err
		}
	}
	s.gets = s.gets[:0]
	return nil
}

func (s *clusterSys) reset(snaps []*snap.Snapshot) error {
	if err := restoreAll(s.nodes, snaps); err != nil {
		return err
	}
	return s.newRouter()
}

func (s *clusterSys) round(seg *segment, clk clock, lat []int64) (roundOut, error) {
	var out roundOut
	for _, u := range seg.units {
		s.gets = s.gets[:0]
		ops := seg.ops[u.lo:u.hi]
		t0 := clk.now()
		var i int32
		if s.t != nil {
			i = s.t.begin(spReplay)
		}
		err := s.client.Replay(ops)
		if s.t != nil {
			s.t.end(i, spReplay, int64(len(ops)))
		}
		d := clk.now() - t0
		if err != nil {
			return out, err
		}
		for k := u.lo; k < u.hi; k++ {
			lat[k] = d
		}
		j := 0
		for k := u.lo; k < u.hi; k++ {
			if seg.ops[k].Put {
				continue
			}
			if j >= len(s.gets) || getFailed(s.gets[j], seg.want[k]) {
				out.failed++
			}
			j++
		}
		if len(s.gets) > j {
			out.failed += len(s.gets) - j // Gets the segment never issued
		}
	}
	if err := s.client.Finish(); err != nil {
		return out, err
	}
	out.replCmds = len(s.client.AppliedCommands())
	if m := s.client.Makespan(); m > 0 {
		out.modelXput = float64(s.client.TotalReads()) / float64(m)
	}
	return out, nil
}

// doc renders the merged stats document exactly as cluster.Cluster's
// MergedSnapshot does: each ring shard's set range summed from the
// shard's primary, so every set is counted once.
func (s *clusterSys) doc() ([]byte, error) {
	p := s.nodes[0].StatsSnapshot()
	var merged live.Stats
	for sh := 0; sh < s.ring.Shards(); sh++ {
		lo, hi := s.ring.SetRange(sh)
		merged.Add(s.nodes[s.ring.Primary(sh)].StatsRange(lo, hi))
	}
	p.Stats = merged
	var buf bytes.Buffer
	err := live.WritePayload(&buf, p)
	return buf.Bytes(), err
}

func (s *clusterSys) close() error { return s.client.Finish() }
