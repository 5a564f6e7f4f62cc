// Command perfbench benchmarks the live serving path end to end and,
// in a separate traced run, layer by layer.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
//
// Workloads (closed loop, one caller in one process; BENCHMARK.json
// records why each was chosen):
//
//	direct-mcf       live.Cache Get/Put called in-process on the mcf stream
//	tcp-mcf          the same stream and cache behind proto.ServeConn on one
//	                 loopback TCP connection: 16-op MGET/MPUT frames, 4 per flush
//	cluster-hotspot  three in-process nodes behind cluster.Client with the
//	                 shard manager on, on the cluster bench's hotspot stream
//
// A run first sets the system up several times (construction plus a
// fixed warm-up of the seed's stream) and keeps the last one. It then
// snapshots every cache and, until the time is up, replays the next
// segment of the stream in rounds: each round restores the post-warm-up
// snapshots (untimed) and replays the same segment. Every round does
// identical cache work, so read_hit_rate and backend_loads_per_op
// repeat exactly and each round's stats document must equal the
// first's. Rounds form blocks, each on a freshly built instance; the
// run reports timings of the median block.
//
// Correctness, outside the timed calls: every Get returns
// loadgen.Value(key, 64) (the only payload any Put or Loader fill
// stores), every round's stats document is identical, every cache
// passes CheckInvariants, and a reference run must agree: an
// uninterrupted direct replay of warm-up plus segment on the mcf
// workloads (so direct-mcf and tcp-mcf documents are byte-identical),
// cluster.NewHarness in Direct mode on cluster-hotspot. A mismatch
// counts failed ops; the last stdout line is the JSON result and the
// exit code is 1 unless every check passed.
//
// End-to-end metrics (--trace 0):
//
//	ops_per_s             client ops per wall second (median block)
//	op_p50_us, op_p99_us  per-op latency: from sending the op's unit (one
//	                      call, one pipelined flush, one Replay block) to its
//	                      reply; each block's percentile, median block
//	cpu_us_per_op         process user+sys CPU per op (median block)
//	allocs_per_op, alloc_bytes_per_op
//	                      runtime.MemStats deltas over the rounds
//	read_hit_rate         GetHits/Gets over a round, summed across nodes
//	backend_loads_per_op  Loader calls per client op
//	heap_live_mb          live heap after a forced GC at the end
//	setup_s               median set-up time (construction + warm-up)
//
// The traced run (--trace 1) alternates untraced and traced rounds on
// two identical systems; the traced one has every value the program
// accepts wrapped (see trace.go). It reports the per-layer metrics of
// layerMetrics, writes the first traced round's spans and a CPU profile
// of the run under --out, and reports trace.overhead, the share of
// ops_per_s lost to tracing.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"time"

	"rwp/internal/cluster"
	"rwp/internal/live"
	"rwp/internal/live/loadgen"
	"rwp/internal/snap"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command-line settings of one run.
type options struct {
	seed    uint64
	seconds int
	trace   bool
	out     string // directory for the traced run's spans and profile
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: direct-mcf, tcp-mcf or cluster-hotspot")
	seed := fs.Uint64("seed", 1, "stream seed")
	seconds := fs.Int("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	out := fs.String("out", ".bench_out", "directory for the traced run's spans and CPU profile")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 || *seconds < 1 || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "perfbench: want --trace 0|1, --seconds >= 1 and no arguments")
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, out: *out}
	res, err := bench(w, w.params, o, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// result is the last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// roundRec is one round's measurements.
type roundRec struct {
	traced     bool
	wall, cpu  time.Duration
	mallocs    uint64
	allocBytes uint64
	gc0, gc1   gcSample
	delta      live.Counters // cache counters the round added
	retargets  uint64
	targetHist []uint64
	out        roundOut
	docMatches bool
}

// blockRounds untraced rounds make one block, the unit the end-to-end
// timings are taken over: a block spans several garbage collections,
// so each block carries its share of them, and the run reports the
// median block, so a burst of host noise moves few blocks.
const blockRounds = 8

// blockRec is one block's timings.
type blockRec struct {
	wall, cpu time.Duration
	ops       int
	p50, p99  int64 // ns, over the block's per-op latencies
}

// bench runs one workload and assembles its result; log receives the
// human-readable lines printed before the JSON result.
func bench(w *workload, p params, o options, log io.Writer) (*result, error) {
	clk := newClock()
	sys, setupTimes, seg, snaps, err := setUp(w, p, o.seed)
	if err != nil {
		return nil, err
	}
	var tr *tracing
	var traced system
	var problems []string
	// closeAll checks and closes the current instances.
	closeAll := func() error {
		var errs []error
		for _, s := range []system{sys, traced} {
			if s != nil {
				problems = append(problems, checkCaches(s)...)
				errs = append(errs, s.close())
			}
		}
		return errors.Join(errs...)
	}
	defer func() { closeAll() }()
	if o.trace {
		tr = newTracing(clk)
		if traced, err = w.build(tr); err != nil {
			return nil, err
		}
		stop, err := startProfile(o.out, w.name, o.seed)
		if err != nil {
			return nil, err
		}
		defer stop()
	}

	var (
		rounds   []roundRec
		blocks   []blockRec
		cur      blockRec
		firstDoc []byte
		agg      [2][numSpanNames]spanAgg // per tracer: main, server
		kept     [2][]span                // the first traced round's spans
		n        = len(seg.ops)
		lat      = make([]int64, blockRounds*n) // the current block's per-op latencies
		ms0, ms1 runtime.MemStats
	)
	limit := time.Duration(o.seconds) * time.Second
	start := time.Now()
	for r := 0; ; r++ {
		if r > 0 && r%blockRounds == 0 {
			// A fresh instance per block (restored from the same
			// snapshots): speed depends on where an instance's memory
			// lands, so a run's median block spans many placements
			// instead of resting on one.
			if err := closeAll(); err != nil {
				return nil, err
			}
			if sys, err = w.build(nil); err != nil {
				return nil, err
			}
			if o.trace {
				tr = newTracing(clk)
				if traced, err = w.build(tr); err != nil {
					return nil, err
				}
			}
		}
		isTraced := o.trace && r%2 == 1
		s := sys
		if isTraced {
			s = traced
		}
		if err := s.reset(snaps); err != nil {
			return nil, err
		}
		if isTraced {
			tr.main.drain()
			tr.served.collect()
		}
		before := sumStats(s.caches())
		k := 0 // traced runs report no block timings
		if !o.trace {
			k = cur.ops / n
		}
		rec := roundRec{traced: isTraced, gc0: readGC()}
		runtime.ReadMemStats(&ms0)
		cpu0 := cpuTime()
		t0 := clk.now()
		out, err := s.round(seg, clk, lat[k*n:(k+1)*n])
		t1 := clk.now()
		cpu1 := cpuTime()
		runtime.ReadMemStats(&ms1)
		rec.gc1 = readGC()
		if err != nil {
			return nil, err
		}
		rec.wall, rec.cpu, rec.out = time.Duration(t1-t0), cpu1-cpu0, out
		rec.mallocs, rec.allocBytes = ms1.Mallocs-ms0.Mallocs, ms1.TotalAlloc-ms0.TotalAlloc
		if !o.trace {
			cur.wall, cur.cpu, cur.ops = cur.wall+rec.wall, cur.cpu+rec.cpu, cur.ops+n
			if cur.ops == blockRounds*n {
				slices.Sort(lat)
				cur.p50, cur.p99 = percentile(lat, 50), percentile(lat, 99)
				blocks, cur = append(blocks, cur), blockRec{}
			}
		}
		after := sumStats(s.caches())
		rec.delta = counterDelta(after.Counters, before.Counters)
		rec.retargets = after.Retargets - before.Retargets
		rec.targetHist = after.TargetHist
		doc, err := s.doc()
		if err != nil {
			return nil, err
		}
		if firstDoc == nil {
			firstDoc = doc
		}
		rec.docMatches = bytes.Equal(doc, firstDoc)
		if isTraced {
			ms, ss := tr.main.drain(), tr.served.collect()
			aggregate(&agg[0], ms, t0)
			aggregate(&agg[1], ss, t0)
			if kept[0] == nil {
				kept[0], kept[1] = append([]span(nil), ms...), ss
			}
		}
		rounds = append(rounds, rec)
		if time.Since(start) >= limit && (len(blocks) > 0 || o.trace && len(rounds) >= 2) {
			break
		}
	}

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapMB := float64(ms.HeapAlloc) / (1 << 20)

	// Checks, all outside the timed calls.
	var attempted, failed int64
	for _, rec := range rounds {
		attempted += int64(len(seg.ops))
		failed += int64(rec.out.failed)
		if !rec.docMatches {
			failed += int64(len(seg.ops))
		}
	}
	err = closeAll()
	sys, traced = nil, nil
	if err != nil {
		return nil, err
	}
	refOK, err := w.verify(w, p, o.seed, firstDoc)
	if err != nil {
		return nil, err
	}
	if !refOK {
		problems = append(problems, "reference run disagrees")
	}
	if len(problems) > 0 {
		failed = attempted
	}

	fmt.Fprintf(log, "workload %s seed %d: %d rounds of %d ops, %d blocks of %d latency samples, set-ups %v s\n",
		w.name, o.seed, len(rounds), n, len(blocks), blockRounds*n, setupTimes)
	fmt.Fprintf(log, "stats document sha256 %x\n", sha256.Sum256(firstDoc))
	for _, b := range blocks {
		fmt.Fprintf(log, "block %.0f ops/s, %.4f us cpu/op, p50 %d ns, p99 %d ns\n",
			float64(b.ops)/b.wall.Seconds(), float64(b.cpu.Nanoseconds())/1e3/float64(b.ops), b.p50, b.p99)
	}
	for _, pr := range problems {
		fmt.Fprintf(log, "check failed: %s\n", pr)
	}

	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed}
	if o.trace {
		res.Metrics = layerMetrics(rounds, agg, len(seg.ops))
		if err := writeSpanFile(o.out, w.name, o.seed, kept); err != nil {
			return nil, err
		}
	} else {
		res.Metrics = endToEnd(rounds, blocks, n, heapMB, median(setupTimes))
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	return res, nil
}

// checkCaches runs CheckInvariants on every cache of s.
func checkCaches(s system) []string {
	var problems []string
	for i, c := range s.caches() {
		if err := c.CheckInvariants(); err != nil {
			problems = append(problems, fmt.Sprintf("cache %d: %v", i, err))
		}
	}
	return problems
}

// setUp builds and warms the system p.setups times, timing
// construction plus warm-up calls (never the op generator), and keeps
// the last system with its next segment and cache snapshots.
func setUp(w *workload, p params, seed uint64) (system, []float64, *segment, []*snap.Snapshot, error) {
	const chunk = 4096
	var times []float64
	for rep := 0; ; rep++ {
		src, err := w.stream(seed)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		runtime.GC()
		t0 := time.Now()
		sys, err := w.build(nil)
		took := time.Since(t0)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		for done := 0; done < p.warm; done += chunk {
			ops := src(min(chunk, p.warm-done))
			t := time.Now()
			err := sys.warm(ops)
			took += time.Since(t)
			if err != nil {
				return nil, nil, nil, nil, errors.Join(err, sys.close())
			}
		}
		times = append(times, took.Seconds())
		if rep+1 < p.setups {
			if err := sys.close(); err != nil {
				return nil, nil, nil, nil, err
			}
			continue
		}
		seg := newSegment(w, src(p.seg))
		var snaps []*snap.Snapshot
		for _, c := range sys.caches() {
			snaps = append(snaps, c.Snapshot())
		}
		return sys, times, seg, snaps, nil
	}
}

// verifyDirect checks an mcf round's document against an uninterrupted
// direct replay of warm-up plus segment. Both mcf workloads use it, so
// a passing tcp-mcf run has the direct path's document byte for byte.
func verifyDirect(w *workload, p params, seed uint64, doc []byte) (bool, error) {
	ref, err := newDirect(nil)
	if err != nil {
		return false, err
	}
	if err := replayStream(w, p, seed, ref.warm); err != nil {
		return false, err
	}
	got, err := ref.doc()
	return bytes.Equal(got, doc), err
}

// verifyCluster checks the benchmark's router-over-nodeConn setup
// against cluster.NewHarness in Direct mode: the same warm-up plus
// segment through both must give the same merged stats document.
func verifyCluster(w *workload, p params, seed uint64, _ []byte) (bool, error) {
	mine, err := newCluster(nil)
	if err != nil {
		return false, err
	}
	if err := replayStream(w, p, seed, mine.warm); err != nil {
		return false, err
	}
	mgr, err := cluster.NewManager(managerConfig())
	if err != nil {
		return false, err
	}
	h, err := cluster.NewHarness(cluster.HarnessConfig{
		NodeIDs: nodeIDs(), RingShards: ringShards,
		Cache: cacheConfig(nil), Mode: cluster.Direct, Manager: mgr,
	})
	if err != nil {
		return false, err
	}
	if err := replayStream(w, p, seed, h.Client().Replay); err != nil {
		return false, err
	}
	if err := errors.Join(mine.close(), h.Close()); err != nil {
		return false, err
	}
	a, err := mine.doc()
	if err != nil {
		return false, err
	}
	b, err := h.MergedStatsJSON()
	return bytes.Equal(a, b), err
}

// replayStream feeds the seed's warm-up plus segment, uninterrupted,
// to apply.
func replayStream(w *workload, p params, seed uint64, apply func([]loadgen.Op) error) error {
	src, err := w.stream(seed)
	if err != nil {
		return err
	}
	const chunk = 4096
	for done := 0; done < p.warm+p.seg; done += chunk {
		if err := apply(src(min(chunk, p.warm+p.seg-done))); err != nil {
			return err
		}
	}
	return nil
}

// endToEnd computes the --trace 0 metrics: timings as the median
// block, allocations over every round, cache counts from a round.
func endToEnd(rounds []roundRec, blocks []blockRec, segOps int, heapMB, setupS float64) map[string]metric {
	var xput, p50, p99, cpu []float64
	for _, b := range blocks {
		xput = append(xput, float64(b.ops)/b.wall.Seconds())
		p50 = append(p50, float64(b.p50)/1e3)
		p99 = append(p99, float64(b.p99)/1e3)
		cpu = append(cpu, float64(b.cpu.Nanoseconds())/1e3/float64(b.ops))
	}
	var mallocs, allocBytes, ops float64
	for _, r := range rounds {
		mallocs += float64(r.mallocs)
		allocBytes += float64(r.allocBytes)
		ops += float64(segOps)
	}
	d := rounds[0].delta
	return map[string]metric{
		"ops_per_s":            {median(xput), "ops/s"},
		"op_p50_us":            {median(p50), "us"},
		"op_p99_us":            {median(p99), "us"},
		"cpu_us_per_op":        {median(cpu), "us/op"},
		"allocs_per_op":        {mallocs / ops, "allocs/op"},
		"alloc_bytes_per_op":   {allocBytes / ops, "B/op"},
		"read_hit_rate":        {ratio(float64(d.GetHits), float64(d.Gets)), "ratio"},
		"backend_loads_per_op": {float64(loaderCalls(d)) / float64(segOps), "loads/op"},
		"heap_live_mb":         {heapMB, "MB"},
		"setup_s":              {setupS, "s"},
	}
}

// layerMetrics computes the --trace 1 metrics. Span metrics come from
// the traced rounds; GC shares and trace.overhead's baseline from the
// untraced ones; cache counts are identical in both. A layer that is
// not on a workload's path reports 0.
func layerMetrics(rounds []roundRec, agg [2][numSpanNames]spanAgg, segOps int) map[string]metric {
	n := float64(segOps)
	var plainX, tracedX []float64
	var tracedOps, plainOps, replCmds, xput float64
	var gcCPU, totalCPU, cycles float64
	for _, r := range rounds {
		if r.traced {
			tracedX = append(tracedX, n/r.wall.Seconds())
			tracedOps += n
			replCmds += float64(r.out.replCmds)
			xput += r.out.modelXput
			continue
		}
		plainX = append(plainX, n/r.wall.Seconds())
		plainOps += n
		gcCPU += r.gc1.gcCPU - r.gc0.gcCPU
		totalCPU += r.gc1.totalCPU - r.gc0.totalCPU
		cycles += float64(r.gc1.cycles - r.gc0.cycles)
	}
	tracedRounds := float64(len(tracedX))
	m, s := &agg[0], &agg[1]
	// The live, backend and proto-server spans sit on whichever tracer
	// ran the cache: the bench goroutine's, or the tcp server's.
	both := func(name spanName) spanAgg {
		a, b := m[name], s[name]
		return spanAgg{count: a.count + b.count, dur: a.dur + b.dur, self: a.self + b.self, n: a.n + b.n}
	}
	hit, miss, put, load := both(spLiveGetHit), both(spLiveGetMiss), both(spLivePut), both(spBackendLoad)
	mean := func(a spanAgg, useSelf bool) float64 {
		if useSelf {
			return ratio(float64(a.self), float64(a.count))
		}
		return ratio(float64(a.dur), float64(a.count))
	}
	flushes := float64(m[spProtoFlush].count)
	d := rounds[0].delta
	last := rounds[len(rounds)-1]
	serverLive := float64(s[spLiveGetHit].dur + s[spLiveGetMiss].dur + s[spLivePut].dur)
	return map[string]metric{
		"live.get_hit_ns":                {mean(hit, false), "ns"},
		"live.get_miss_self_ns":          {mean(miss, true), "ns"},
		"live.put_ns":                    {mean(put, false), "ns"},
		"live.calls_per_op":              {ratio(float64(hit.count+miss.count+put.count), tracedOps), "calls/op"},
		"live.evictions_per_op":          {float64(d.Evictions) / n, "count/op"},
		"live.dirty_evictions_per_op":    {float64(d.DirtyEvictions) / n, "count/op"},
		"core.retargets_per_kop":         {float64(rounds[0].retargets) / n * 1000, "count/kop"},
		"core.dirty_target_mean":         {meanTarget(last.targetHist), "ways"},
		"backend.load_ns":                {mean(load, false), "ns"},
		"proto.queue_ns_per_op":          {ratio(float64(m[spProtoQueue].dur), tracedOps), "ns/op"},
		"proto.flush_us":                 {mean(m[spProtoFlush], false) / 1e3, "us"},
		"proto.server_backend_ns_per_op": {ratio(serverLive, tracedOps), "ns/op"},
		"proto.server_self_ns_per_op":    {ratio(float64(s[spProtoBurst].self), tracedOps), "ns/op"},
		"proto.server_read_wait_us":      {ratio(float64(s[spProtoRead].dur), flushes) / 1e3, "us"},
		"proto.wire_bytes_per_op":        {ratio(float64(s[spProtoRead].n+s[spProtoWrite].n), tracedOps), "B/op"},
		"proto.conn_writes_per_flush":    {ratio(float64(s[spProtoWrite].count), flushes), "count"},
		"cluster.route_self_ns_per_op":   {ratio(float64(m[spReplay].self), tracedOps), "ns/op"},
		"cluster.node_flush_ns":          {mean(m[spNodeFlush], false), "ns"},
		"cluster.node_ops_per_op":        {ratio(float64(m[spNodeQueue].n), tracedOps), "count/op"},
		"cluster.repl_cmds":              {ratio(replCmds, tracedRounds), "count"},
		"cluster.model_xput":             {ratio(xput, tracedRounds), "reads/load"},
		"snap.encode_us":                 {mean(m[spSnapEncode], false) / 1e3, "us"},
		"snap.restore_us":                {mean(m[spSnapRestore], false) / 1e3, "us"},
		"snap.bytes_per_catchup":         {ratio(float64(m[spSnapEncode].n), float64(m[spSnapEncode].count)), "B"},
		"gc.cpu_share":                   {ratio(gcCPU, totalCPU), "ratio"},
		"gc.cycles_per_mop":              {ratio(cycles, plainOps/1e6), "count/Mop"},
		"trace.overhead":                 {1 - median(tracedX)/median(plainX), "ratio"},
	}
}

// counterDelta returns a - b field by field.
func counterDelta(a, b live.Counters) live.Counters {
	return live.Counters{
		Gets: a.Gets - b.Gets, GetHits: a.GetHits - b.GetHits, GetMisses: a.GetMisses - b.GetMisses,
		Puts: a.Puts - b.Puts, PutHits: a.PutHits - b.PutHits, PutInserts: a.PutInserts - b.PutInserts,
		Loads: a.Loads - b.Loads, LoadRaces: a.LoadRaces - b.LoadRaces, LoadAbsents: a.LoadAbsents - b.LoadAbsents,
		CoalescedLoads: a.CoalescedLoads - b.CoalescedLoads, NegHits: a.NegHits - b.NegHits,
		NegInserts: a.NegInserts - b.NegInserts, LeaseExpires: a.LeaseExpires - b.LeaseExpires,
		Fills: a.Fills - b.Fills, FillsDirty: a.FillsDirty - b.FillsDirty, Bypasses: a.Bypasses - b.Bypasses,
		Evictions: a.Evictions - b.Evictions, DirtyEvictions: a.DirtyEvictions - b.DirtyEvictions,
	}
}

// startProfile starts a CPU profile of the traced run beside its spans.
func startProfile(dir, name string, seed uint64) (stop func(), err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.cpu.pprof", name, seed)))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

// writeSpanFile writes the first traced round's spans, at most
// spanFileLimit per tracer, as JSON lines.
func writeSpanFile(dir, name string, seed uint64, kept [2][]span) error {
	const spanFileLimit = 50000
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	for i, tn := range []string{"bench", "server"} {
		if err := writeSpans(&buf, tn, kept[i], spanFileLimit); err != nil {
			return err
		}
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.spans.jsonl", name, seed)), buf.Bytes(), 0o644)
}
