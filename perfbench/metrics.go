package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics an untraced run prints on every workload. Each
// is defined over the workload's unit of work (see README.md).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"cpu_ms", "ms"},
	{"ok_frac", "frac"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics a traced run prints on every workload; a layer
// the workload does not exercise reports 0.
var perLayer = []metricDef{
	{"delaunay.build_ms", "ms"},
	{"delaunay.build_alloc_mb", "MB"},
	{"delaunay.tets", "count"},
	{"delaunay.delta_ms", "ms"},
	{"delaunay.delta_rebuilds", "count"},
	{"delaunay.delta_created_tets", "count"},
	{"dtfe.field_ms", "ms"},
	{"render.pack_ms", "ms"},
	{"render.march_ms", "ms"},
	{"render.steps", "count"},
	{"render.clean_frac", "frac"},
	{"kdtree.select_ms", "ms"},
	{"halo.find_s", "s"},
	{"pipeline.partition_s", "s"},
	{"pipeline.model_s", "s"},
	{"pipeline.workshare_s", "s"},
	{"pipeline.imbalance", "ratio"},
	{"pipeline.shipped", "count"},
	{"model.pred_err", "frac"},
	{"mpi.bytes", "B"},
	{"mpi.msgs", "count"},
	{"distrender.march_busy_s", "s"},
	{"distrender.overhead_s", "s"},
	{"distrender.redispatched", "count"},
	{"fieldserve.hit_frac", "frac"},
	{"fieldserve.col_hit_frac", "frac"},
	{"fieldserve.batch_size", "count"},
	{"fieldserve.cold_columns", "count"},
	{"fieldserve.shed", "count"},
	{"fieldserve.degraded", "count"},
	{"fieldserve.expired", "count"},
	{"fieldserve.serve_overhead_ms", "ms"},
	{"fieldserve.dirty_columns", "count"},
	{"fieldserve.evicted_by_update", "count"},
	{"fieldserve.update_overhead_ms", "ms"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"go.alloc_mb", "MB"},
	{"gen.late_p99_ms", "ms"},
	{"trace.reconcile_frac", "frac"},
	{"trace.overhead_frac", "frac"},
}

// reconcileTol is the stated tolerance of a traced run: the layer self
// times must add up to the untraced end-to-end number within 10%.
const reconcileTol = 0.10

// setReconcile reports trace.reconcile_frac and prints whether it lies
// within reconcileTol of 1. A miss is printed, not failed: the traced and
// untraced halves are separate samples, so host noise alone can move the
// ratio, and correct is kept for the program's outputs.
func setReconcile(rep *report, f float64, n int) {
	rep.set("trace.reconcile_frac", f, n)
	verdict := "within"
	if math.Abs(f-1) > reconcileTol {
		verdict = "OUTSIDE"
	}
	rep.note("trace.reconcile_frac %.3f is %s the tolerance [%.2f, %.2f]", f, verdict, 1-reconcileTol, 1+reconcileTol)
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// minBeyond is how many samples must lie beyond a tail percentile before
// it is reported.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs and
// whether at least minBeyond samples lie strictly beyond its rank. xs is
// sorted in place.
func percentile(xs []float64, p float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	return xs[rank-1], len(xs)-rank >= minBeyond
}

// median is the middle value of a handful of repeats (set-ups, passes,
// maps); even counts average the two middle values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func durMs(ds []time.Duration) []float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = ms(d)
	}
	return xs
}

func medianDur(ds []time.Duration) float64 { return median(durMs(ds)) }

func frac(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// fmtMs lists a handful of repeat timings for the human-readable output.
func fmtMs(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 0, 64)
	}
	return strings.Join(parts, " ")
}

// report collects one run's outcome.
type report struct {
	Correct   bool
	Attempted int
	Failed    int
	values    map[string]float64
	samples   map[string]int
	notes     []string
}

func newReport() *report {
	return &report{Correct: true, values: map[string]float64{}, samples: map[string]int{}}
}

// set records a metric value and the number of samples behind it.
func (r *report) set(name string, v float64, n int) {
	r.values[name] = v
	r.samples[name] = n
}

// fail marks the run incorrect with a reason printed before the result.
func (r *report) fail(format string, args ...any) {
	r.Correct = false
	r.notes = append(r.notes, "FAIL: "+fmt.Sprintf(format, args...))
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// write prints the human-readable lines and then, as the last line, the
// JSON result holding exactly the metrics in defs.
func (r *report) write(w io.Writer, defs []metricDef) error {
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	res := jsonResult{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed,
		Metrics: make(map[string]jsonMetric, len(defs))}
	for _, d := range defs {
		v, ok := r.values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		fmt.Fprintf(w, "%-32s %14s %-6s n=%d\n", d.Name, strconv.FormatFloat(v, 'g', 8, 64), d.Unit, r.samples[d.Name])
		res.Metrics[d.Name] = jsonMetric{Value: v, Unit: d.Unit}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
