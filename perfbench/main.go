// Command perfbench is the repository benchmark. It runs one named
// workload from a seed, measures it for a fixed time, checks every output
// it can against a direct single-process render, and prints its metrics;
// the last line of standard output is a JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	python3 perfbench/run.py --workload survey --seed 1 --seconds 12 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// prints the per-layer metrics from a traced run and writes the spans
// under .bench_build/perfbench/. See README.md for the workloads, metric
// definitions and the layer-to-metric map.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// env is what every workload gets.
type env struct {
	seed    int64
	seconds time.Duration
	tr      *tracer // nil on untraced runs
	rep     *report
}

var workloads = map[string]func(*env) error{
	"survey": runSurvey,
	"serve":  func(e *env) error { return runServe(e, serveConfig) },
	"churn":  func(e *env) error { return runServe(e, churnConfig) },
	"map":    runMap,
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	workload := flag.String("workload", "", "workload: survey, serve, churn or map")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Int("seconds", 15, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1: traced run printing per-layer metrics")
	spanDir := flag.String("spans", ".bench_build/perfbench", "directory for traced-run span files")
	flag.Parse()

	fn, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	// Two compute goroutines at most: pin the scheduler to the host's
	// cores and record it.
	procs := runtime.NumCPU()
	runtime.GOMAXPROCS(procs)

	e := &env{seed: *seed, seconds: time.Duration(*seconds) * time.Second, rep: newReport()}
	defs := endToEnd
	if *trace == 1 {
		e.tr = newTracer()
		defs = perLayer
	}
	e.rep.note("perfbench workload=%s seed=%d seconds=%d trace=%d gomaxprocs=%d numcpu=%d go=%s",
		*workload, *seed, *seconds, *trace, runtime.GOMAXPROCS(0), procs, runtime.Version())
	if err := fn(e); err != nil {
		return fmt.Errorf("%s: %w", *workload, err)
	}
	if e.tr == nil {
		rss, err := peakRSSMB()
		if err != nil {
			return err
		}
		e.rep.set("peak_rss_mb", rss, 1)
		if e.rep.Attempted > 0 {
			e.rep.set("ok_frac", float64(e.rep.Attempted-e.rep.Failed)/float64(e.rep.Attempted), e.rep.Attempted)
		}
	} else {
		for _, d := range perLayer {
			if _, ok := e.rep.values[d.Name]; !ok {
				e.rep.set(d.Name, 0, 0) // layer not exercised by this workload
			}
		}
		path, err := e.tr.write(*spanDir, fmt.Sprintf("spans-%s-%d.jsonl", *workload, *seed))
		if err != nil {
			return err
		}
		e.rep.note("spans written to %s", path)
	}
	return e.rep.write(os.Stdout, defs)
}
