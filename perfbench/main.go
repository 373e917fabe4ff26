// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload (see workloads.go) as single simulations, one at a time, for a
// fixed host-time budget, checks the simulated outputs, and prints every
// metric by name and unit; the last line of standard output is a JSON
// object {"correct", "attempted", "failed", "metrics"}.
//
//	bash perfbench/run.sh --workload server-dense --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics with no tracing. --trace 1
// runs the same panel untraced and then traced, and reports the per-layer
// metrics; the spans go to .bench_build/traces/. See perfbench/README.md.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 30, "host seconds to measure")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	budget := time.Duration(*seconds) * time.Second
	res := measure(w, *seed, budget, *trace == 1, nil)
	if *trace == 1 {
		if err := writeSpans(w.name, *seed, res.spans); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	report(stdout, w, *seed, *trace == 1, res)
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// sample is one simulation: its host measurements and its outcome.
type sample struct {
	sub     int
	traced  bool
	wall    time.Duration
	setup   time.Duration
	alloc   uint64 // bytes allocated
	mallocs uint64
	gcs     uint32
	gcPause time.Duration
	heap    uint64 // peak heap-object bytes
	probe   *probe
	out     outcome
	err     error
}

// result is one benchmark run.
type result struct {
	panel     int
	samples   []sample
	attempted int
	failed    int
	failures  []string
	spans     []span
	// orderVaried counts simulations whose digest matched but whose
	// order-dependent outputs (outcome.orderBits) did not.
	orderVaried int
}

// measure runs the workload's panel round-robin. Untraced, it runs for
// the whole budget and at least twice per sub-seed, so each sub-seed's
// outputs are compared across repetitions. Traced, it spends half the
// budget untraced (at least once per sub-seed) and the rest traced (at
// least once per sub-seed), so traced outputs are compared with untraced
// ones and the tracing overhead is measured against the same panel.
func measure(w benchWorkload, seed uint64, budget time.Duration, traced bool,
	mutate func(*probe)) *result {
	r := &result{panel: w.panel}
	start := time.Now()
	// A phase is traced when it has a span log.
	phase := func(until time.Time, minReps int, log *spanLog) {
		reps := make([]int, w.panel)
		for i := 0; ; i++ {
			sub := i % w.panel
			// reps[sub] is the panel's fewest: sub-seeds run in order.
			if reps[sub] >= minReps && !time.Now().Before(until) {
				return
			}
			s := simulate(w, subSeed(seed, sub), sub, log, mutate)
			reps[sub]++
			r.attempted++
			switch {
			case s.err != nil:
				r.fail(fmt.Sprintf("sub-seed %d: %v", sub, s.err))
			case s.out.checkViolations > 0:
				r.fail(fmt.Sprintf("sub-seed %d: %d invariant violations", sub, s.out.checkViolations))
			default:
				f, seen := r.firstOK(sub)
				switch {
				case !seen:
				case f.digest != s.out.digest:
					r.fail(fmt.Sprintf("sub-seed %d: outputs %016x differ from an earlier run's %016x (traced=%v)",
						sub, s.out.digest, f.digest, s.traced))
				case f.orderBits != s.out.orderBits:
					r.orderVaried++
				}
			}
			r.samples = append(r.samples, s)
		}
	}
	if !traced {
		phase(start.Add(budget), 2, nil)
		return r
	}
	phase(start.Add(budget/2), 1, nil)
	log := &spanLog{origin: time.Now()}
	phase(start.Add(budget), 1, log)
	r.spans = log.spans
	return r
}

// firstOK returns the outcome of sub's first simulation that returned no
// error, if any.
func (r *result) firstOK(sub int) (outcome, bool) {
	for _, s := range r.samples {
		if s.sub == sub && s.err == nil {
			return s.out, true
		}
	}
	return outcome{}, false
}

func (r *result) fail(msg string) {
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, msg)
	}
}

// simulate runs one simulation between two runtime.MemStats readings,
// traced when spans is not nil. The collection beforehand starts every
// simulation from the same heap state; it is outside the timed region.
func simulate(w benchWorkload, seed uint64, sub int, spans *spanLog, mutate func(*probe)) sample {
	p := newProbe(spans)
	if mutate != nil {
		mutate(p)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	out, err := w.run(seed, p)
	runtime.ReadMemStats(&after)
	p.release()
	return sample{
		sub: sub, traced: p.traced, wall: p.wall, setup: p.setup,
		alloc:   after.TotalAlloc - before.TotalAlloc,
		mallocs: after.Mallocs - before.Mallocs,
		gcs:     after.NumGC - before.NumGC,
		gcPause: time.Duration(after.PauseTotalNs - before.PauseTotalNs),
		heap:    p.heap.peak,
		probe:   p, out: out, err: err,
	}
}

func writeSpans(workload string, seed uint64, spans []span) error {
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed)))
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("trace file: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace file: %w", err)
	}
	return f.Close()
}

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
