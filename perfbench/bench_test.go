package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"rwp/internal/analysis"
)

// small shrinks a workload so a test run takes well under a second.
var small = params{warm: 1 << 13, seg: 1 << 12, setups: 2}

func TestPercentile(t *testing.T) {
	xs := make([]int64, 100)
	for i := range xs {
		xs[i] = int64(i + 1)
	}
	for _, tc := range []struct {
		p    float64
		want int64
	}{{50, 50}, {99, 99}, {100, 100}, {0.5, 1}, {1, 1}} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("p%v = %d, want %d", tc.p, got, tc.want)
		}
	}
	if got := percentile([]int64{7}, 99); got != 7 {
		t.Errorf("single sample p99 = %d, want 7", got)
	}
}

func TestMedian(t *testing.T) {
	xs := []float64{3, 1, 2}
	if got := median(xs); got < 2-1e-12 || got > 2+1e-12 {
		t.Errorf("median odd = %v, want 2", got)
	}
	if xs[0] < 3-1e-12 {
		t.Errorf("median reordered its input: %v", xs)
	}
	if got := median([]float64{4, 1, 3, 2}); got < 2.5-1e-12 || got > 2.5+1e-12 {
		t.Errorf("median even = %v, want 2.5", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{parent: -1, start: 0, end: 100},   // 0: root
		{parent: 0, start: 10, end: 20},    // 1
		{parent: 0, start: 15, end: 30},    // 2: overlaps 1
		{parent: 0, start: 50, end: 60},    // 3
		{parent: 0, start: 90, end: 120},   // 4: clipped at the parent's end
		{parent: 3, start: 52, end: 55},    // 5: grandchild
		{parent: -1, start: 200, end: 210}, // 6: childless root
	}
	// Root covered by [10,30] ∪ [50,60] ∪ [90,100] = 40.
	want := []int64{60, 10, 15, 7, 30, 3, 10}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestAggregateSkipsEarlierSpans(t *testing.T) {
	spans := []span{
		{name: spProtoRead, parent: -1, start: 5, end: 40, n: 100},
		{name: spProtoBurst, parent: -1, start: 40, end: 60},
		{name: spLiveGetHit, parent: 1, start: 45, end: 50},
		{name: spProtoWrite, parent: 1, start: 52, end: 58, n: 30},
	}
	var agg [numSpanNames]spanAgg
	aggregate(&agg, spans, 10)
	if a := agg[spProtoRead]; a.count != 0 {
		t.Errorf("read span from before the round counted: %+v", a)
	}
	if a := agg[spProtoBurst]; a.count != 1 || a.dur != 20 || a.self != 9 {
		t.Errorf("burst = %+v, want count 1 dur 20 self 9", a)
	}
	if a := agg[spProtoWrite]; a.n != 30 {
		t.Errorf("write bytes = %d, want 30", a.n)
	}
}

// roundDoc sets w up at small size, replays one round on a fresh
// system (traced or not) and returns its stats document.
func roundDoc(t *testing.T, name string, seed uint64, traced bool) []byte {
	t.Helper()
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	sys, _, seg, snaps, err := setUp(w, small, seed)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.close()
	if traced {
		if sys, err = w.build(newTracing(newClock())); err != nil {
			t.Fatal(err)
		}
		defer sys.close()
	}
	if err := sys.reset(snaps); err != nil {
		t.Fatal(err)
	}
	out, err := sys.round(seg, newClock(), make([]int64, len(seg.ops)))
	if err != nil {
		t.Fatal(err)
	}
	if out.failed != 0 {
		t.Fatalf("%s: %d wrong values", name, out.failed)
	}
	doc, err := sys.doc()
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func TestWrappersAreTransparent(t *testing.T) {
	for _, w := range workloads {
		plain, traced := roundDoc(t, w.name, 3, false), roundDoc(t, w.name, 3, true)
		if !bytes.Equal(plain, traced) {
			t.Errorf("%s: traced stats document differs:\n%s\nvs\n%s", w.name, traced, plain)
		}
	}
}

func TestSameSeedSameDocument(t *testing.T) {
	for _, w := range workloads {
		if a, b := roundDoc(t, w.name, 5, false), roundDoc(t, w.name, 5, false); !bytes.Equal(a, b) {
			t.Errorf("%s: two runs of seed 5 differ", w.name)
		}
	}
	if a, b := roundDoc(t, "direct-mcf", 5, false), roundDoc(t, "direct-mcf", 6, false); bytes.Equal(a, b) {
		t.Error("seeds 5 and 6 gave the same direct-mcf document")
	}
}

func TestDirectAndTCPDocumentsEqual(t *testing.T) {
	if d, c := roundDoc(t, "direct-mcf", 2, false), roundDoc(t, "tcp-mcf", 2, true); !bytes.Equal(d, c) {
		t.Errorf("tcp-mcf document differs from direct-mcf:\n%s\nvs\n%s", c, d)
	}
}

func TestReferenceRunsAgree(t *testing.T) {
	for _, w := range workloads {
		doc := roundDoc(t, w.name, 4, false)
		ok, err := w.verify(w, small, 4, doc)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Errorf("%s: reference run disagrees", w.name)
		}
	}
}

// benchMetricNames reads the metric names BENCHMARK.json declares.
func benchMetricNames(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, m := range b.EndToEnd {
		endToEnd = append(endToEnd, m.Name+" "+m.Unit)
	}
	for _, m := range b.PerLayer {
		perLayer = append(perLayer, m.Name+" "+m.Unit)
	}
	sort.Strings(endToEnd)
	sort.Strings(perLayer)
	return endToEnd, perLayer
}

func TestRunReportsDeclaredMetrics(t *testing.T) {
	endToEnd, perLayer := benchMetricNames(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			var log bytes.Buffer
			res, err := bench(w, small, options{seed: 1, seconds: 1, trace: trace, out: t.TempDir()}, &log)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < int64(small.seg) {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s",
					w.name, trace, res.Correct, res.Attempted, res.Failed, log.String())
			}
			var got []string
			for name, m := range res.Metrics {
				got = append(got, name+" "+m.Unit)
			}
			sort.Strings(got)
			want := endToEnd
			if trace {
				want = perLayer
			}
			if strings.Join(got, ",") != strings.Join(want, ",") {
				t.Errorf("%s trace=%v metrics:\n%v\nwant\n%v", w.name, trace, got, want)
			}
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "direct-mcf", "--trace", "2"},
		{"--workload", "direct-mcf", "--seconds", "0"},
		{"--bogus"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 || out.Len() != 0 {
			t.Errorf("run(%v) = %d with stdout %q, want 2 and no output", args, code, out.String())
		}
	}
}

// TestLint holds the benchmark to the repository's rwplint suite, as
// the module self-check does: the loader is rooted at the enclosing
// module so the benchmark's imports resolve from source.
func TestLint(t *testing.T) {
	loader, err := analysis.NewLoader("..")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadDirs([]string{"."})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("loaded no packages")
	}
	for _, f := range analysis.Unsuppressed(analysis.Run(analysis.Default(), pkgs)) {
		t.Errorf("%s", f)
	}
}
