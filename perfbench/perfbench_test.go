package main

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"godtfe/internal/geom"
)

func TestPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	cases := []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{100, 0.9, 90, true},    // ranks 91..100 lie beyond
		{100, 0.99, 99, false},  // one sample beyond
		{1000, 0.99, 990, true}, // ten beyond
		{19, 0.5, 10, false},    // nine beyond the median
		{20, 0.5, 10, true},
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.p)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", c.n, c.p, got, ok, c.want, c.ok)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported ok")
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// An open loop times each operation from its due time: when the
// generator starts late, the lateness is reported and charged to the op.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const behind = 30 * time.Millisecond
	start := time.Now().Add(-behind) // the first two ops are already overdue
	dues := []time.Duration{0, time.Millisecond, 60 * time.Millisecond}
	const work = 5 * time.Millisecond
	for _, async := range []bool{true, false} {
		lat, late, _ := drive(start, dues, async, func(i int, due, sent time.Time) {
			if sent.Before(due) {
				t.Errorf("op %d sent %v before it was due", i, due.Sub(sent))
			}
			time.Sleep(work)
		})
		if late[0] < behind || late[1] < behind-time.Millisecond {
			t.Errorf("async=%v: lateness %v, want at least %v for overdue ops", async, late[:2], behind)
		}
		if late[2] > 20*time.Millisecond {
			t.Errorf("async=%v: on-time op reported %v late", async, late[2])
		}
		for i := range dues {
			if lat[i] < late[i]+work {
				t.Errorf("async=%v: op %d latency %v is less than its lateness %v plus its work %v", async, i, lat[i], late[i], work)
			}
		}
	}
}

func TestSeedDeterminism(t *testing.T) {
	type inputs struct {
		cat    []any
		reads  []read
		deltas []any
	}
	gen := func(seed int64) inputs {
		pts := catalog(3000, 20, seed)
		deltas, final := bandDeltas(pts, 5, 0.01, seed)
		in := inputs{reads: readMix.schedule(500, time.Millisecond, seed)}
		in.cat = []any{pts, final}
		for _, d := range deltas {
			in.deltas = append(in.deltas, d)
		}
		return in
	}
	a, b, c := gen(7), gen(7), gen(8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave different inputs")
	}
	if reflect.DeepEqual(a.cat, c.cat) {
		t.Error("different seeds gave the same catalog")
	}
	if reflect.DeepEqual(a.reads, c.reads) {
		t.Error("different seeds gave the same request schedule")
	}
	if reflect.DeepEqual(a.deltas, c.deltas) {
		t.Error("different seeds gave the same delta sequence")
	}
	kinds := map[reqKind]int{}
	for _, r := range a.reads {
		kinds[r.Kind]++
	}
	if kinds[kindHot] == 0 || kinds[kindWindow] == 0 || kinds[kindFresh] == 0 {
		t.Errorf("read mix is missing a kind: %v", kinds)
	}
}

// Every delta keeps the catalog's size and bounding box and only touches
// interior points, so updates stay on the incremental path.
func TestBandDeltasKeepTheBox(t *testing.T) {
	pts := catalog(3000, 20, 3)
	deltas, final := bandDeltas(pts, 10, 0.01, 3)
	if len(final) != len(pts) {
		t.Fatalf("final catalog has %d points, want %d", len(final), len(pts))
	}
	cur := pts
	for u, d := range deltas {
		if len(d.Remove) != 30 || len(d.Add) != 30 {
			t.Fatalf("delta %d removes %d and adds %d, want 30 each", u, len(d.Remove), len(d.Add))
		}
		for _, r := range d.Remove {
			if !interior(cur[r]) {
				t.Fatalf("delta %d removes boundary point %v", u, cur[r])
			}
		}
		cur = applyText(cur, d)
		if geom.BoundsOf(cur) != geom.BoundsOf(pts) {
			t.Fatalf("delta %d changed the bounding box", u)
		}
	}
}

// The metric names README.md documents; the benchmark must report each.
var documentedNames = []string{
	"setup_s", "ok_frac", "peak_rss_mb", "p50_ms",
	"delaunay.build_ms", "delaunay.build_alloc_mb", "delaunay.tets",
	"delaunay.delta_ms", "delaunay.delta_rebuilds", "delaunay.delta_created_tets",
	"dtfe.field_ms", "render.pack_ms", "render.march_ms", "render.steps", "render.clean_frac",
	"kdtree.select_ms", "halo.find_s",
	"pipeline.partition_s", "pipeline.model_s", "pipeline.workshare_s", "pipeline.imbalance",
	"pipeline.shipped", "model.pred_err", "mpi.bytes", "mpi.msgs",
	"distrender.march_busy_s", "distrender.overhead_s", "distrender.redispatched",
	"fieldserve.hit_frac", "fieldserve.col_hit_frac", "fieldserve.batch_size",
	"fieldserve.cold_columns", "fieldserve.shed", "fieldserve.degraded", "fieldserve.expired",
	"fieldserve.serve_overhead_ms", "fieldserve.dirty_columns", "fieldserve.evicted_by_update",
	"fieldserve.update_overhead_ms", "go.gc_cycles", "go.gc_pause_ms", "go.alloc_mb", "gen.late_p99_ms",
}

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]", d.Name)
		}
		if seen[d.Name] {
			t.Errorf("metric %q defined twice", d.Name)
		}
		seen[d.Name] = true
	}
	for _, n := range documentedNames {
		if !seen[n] {
			t.Errorf("metric %q is not reported", n)
		}
	}

	// BENCHMARK.json at the repository root lists the same metrics.
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json: %v", err)
	}
	var bench struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bench.EndToEnd, endToEnd) || !reflect.DeepEqual(bench.PerLayer, perLayer) {
		t.Error("BENCHMARK.json metrics differ from the ones the benchmark prints")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60}, // overlaps a
		{ID: 4, Parent: 2, Name: "leaf", Start: 20, End: 25},
		{ID: 5, Parent: 1, Name: "a", Start: 90, End: 120}, // clipped to the parent
	}
	got := selfTimes(spans, 1)
	want := map[string][]time.Duration{"a": {25, 30}, "b": {30}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes under root = %v, want %v", got, want)
	}
	if got := selfTimes(spans, 0)["root"]; !reflect.DeepEqual(got, []time.Duration{100 - 50 - 10}) {
		t.Errorf("root self time = %v, want [40]", got)
	}
}

func TestReportWritesEveryMetric(t *testing.T) {
	r := newReport()
	r.Attempted = 1
	for _, d := range endToEnd[:len(endToEnd)-1] {
		r.set(d.Name, 1, 1)
	}
	if err := r.write(new(discard), endToEnd); err == nil {
		t.Error("write succeeded with a metric missing")
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

func TestReconcileVerdict(t *testing.T) {
	for _, c := range []struct {
		f    float64
		want string
	}{{1.0, "within"}, {0.91, "within"}, {1.09, "within"}, {0.89, "OUTSIDE"}, {1.11, "OUTSIDE"}} {
		r := newReport()
		setReconcile(r, c.f, 1)
		if r.values["trace.reconcile_frac"] != c.f {
			t.Errorf("%.2f: reported %v", c.f, r.values["trace.reconcile_frac"])
		}
		if len(r.notes) != 1 || !strings.Contains(r.notes[0], " is "+c.want+" the tolerance") {
			t.Errorf("%.2f: notes %q, want the verdict %q", c.f, r.notes, c.want)
		}
	}
}
