package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"smartharvest/internal/obs"
)

type metric struct {
	name  string
	value float64
	unit  string
}

// panelView groups a run's successful simulations by sub-seed. Host
// numbers are taken per sub-seed (median over its repetitions) and then
// summed over the panel, so every sub-seed weighs in once whatever its
// repetition count; simulated outcomes are identical across repetitions
// and are read from the first. Sums run in sub-seed order, so a seed's
// simulated metrics print the same digits on every run.
type panelView struct {
	untraced [][]sample
	traced   [][]sample
	outcomes []outcome // sub-seeds with at least one successful simulation
}

func viewOf(r *result) panelView {
	v := panelView{untraced: make([][]sample, r.panel), traced: make([][]sample, r.panel)}
	for _, s := range r.samples {
		if s.err != nil {
			continue
		}
		if s.traced {
			v.traced[s.sub] = append(v.traced[s.sub], s)
		} else {
			v.untraced[s.sub] = append(v.untraced[s.sub], s)
		}
	}
	for sub := range r.panel {
		if o, ok := r.firstOK(sub); ok {
			v.outcomes = append(v.outcomes, o)
		}
	}
	return v
}

// sumMedian sums, over the panel, the median of f over each sub-seed's
// samples.
func (v panelView) sumMedian(set [][]sample, f func(sample) float64) float64 {
	total := 0.0
	for _, ss := range set {
		if len(ss) == 0 {
			continue
		}
		xs := make([]float64, len(ss))
		for i, s := range ss {
			xs[i] = f(s)
		}
		total += median(xs)
	}
	return total
}

// sumOutcome sums f over the panel's outcomes.
func (v panelView) sumOutcome(f func(outcome) float64) float64 {
	total := 0.0
	for _, o := range v.outcomes {
		total += f(o)
	}
	return total
}

// firstTraced sums f over the first traced probe of each sub-seed; f reads
// a count that is the same on every repetition.
func (v panelView) firstTraced(f func(*probe) float64) float64 {
	total := 0.0
	for _, ss := range v.traced {
		if len(ss) > 0 {
			total += f(ss[0].probe)
		}
	}
	return total
}

// allTraced sums f over every traced simulation.
func (v panelView) allTraced(f func(*probe) float64) float64 {
	total := 0.0
	for _, ss := range v.traced {
		for _, s := range ss {
			total += f(s.probe)
		}
	}
	return total
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEnd computes the metrics a user of the simulator sees, from the
// untraced simulations.
func endToEnd(v panelView) []metric {
	simTotal := v.sumOutcome(func(o outcome) float64 { return o.simSeconds })
	wall := v.sumMedian(v.untraced, func(s sample) float64 { return s.wall.Seconds() })
	alloc := v.sumMedian(v.untraced, func(s sample) float64 { return float64(s.alloc) })
	var setups, heaps []float64
	for _, ss := range v.untraced {
		for _, s := range ss {
			setups = append(setups, s.setup.Seconds())
			heaps = append(heaps, float64(s.heap))
		}
	}
	n := float64(len(v.outcomes))
	var p99s []float64
	for _, o := range v.outcomes {
		p99s = append(p99s, o.p99ms)
	}
	return []metric{
		{"sim_per_wall", ratio(simTotal, wall), "sim-s/s"},
		{"setup_s", median(setups), "s"},
		{"alloc_mb_per_sim_s", ratio(alloc/1e6, simTotal), "MB/sim-s"},
		{"peak_heap_mb", median(heaps) / 1e6, "MB"},
		{"harvested_cores", ratio(v.sumOutcome(func(o outcome) float64 { return o.harvested }), n), "cores"},
		{"primary_p99_ms", median(p99s), "ms"},
		{"job_goodput_core_s", ratio(v.sumOutcome(func(o outcome) float64 { return o.goodput }), n), "core-s"},
	}
}

// eventKinds are the obs event kinds a fault-free run can emit, with the
// obs.Metrics counter for each.
var eventKinds = []struct {
	kind  obs.Kind
	count func(*obs.Metrics) uint64
}{
	{obs.KindPollSample, func(m *obs.Metrics) uint64 { return m.Polls }},
	{obs.KindWindowEnd, func(m *obs.Metrics) uint64 { return m.Windows }},
	{obs.KindSafeguardTrip, func(m *obs.Metrics) uint64 { return m.Safeguards }},
	{obs.KindQoSTrip, func(m *obs.Metrics) uint64 { return m.QoSTrips }},
	{obs.KindQoSResume, func(m *obs.Metrics) uint64 { return m.QoSResumes }},
	{obs.KindResize, func(m *obs.Metrics) uint64 { return m.Resizes }},
	{obs.KindJobSubmit, func(m *obs.Metrics) uint64 { return m.JobSubmits }},
	{obs.KindJobStart, func(m *obs.Metrics) uint64 { return m.JobStarts }},
	{obs.KindJobEvict, func(m *obs.Metrics) uint64 { return m.JobEvictions }},
	{obs.KindJobRequeue, func(m *obs.Metrics) uint64 { return m.JobRequeues }},
	{obs.KindJobComplete, func(m *obs.Metrics) uint64 { return m.JobCompletions }},
	{obs.KindJobSLOMiss, func(m *obs.Metrics) uint64 { return m.SLOMisses }},
	{obs.KindPoolOpen, func(m *obs.Metrics) uint64 { return m.PoolOpens }},
	{obs.KindPoolReject, func(m *obs.Metrics) uint64 { return m.PoolRejects }},
	{obs.KindPoolGrant, func(m *obs.Metrics) uint64 { return m.PoolGrants }},
	{obs.KindPoolAccount, func(m *obs.Metrics) uint64 { return m.PoolAccounts }},
	{obs.KindPoolEvict, func(m *obs.Metrics) uint64 { return m.PoolEvictions }},
	{obs.KindPoolSettle, func(m *obs.Metrics) uint64 { return m.PoolSettles }},
}

// perLayer computes the per-layer metrics: host time from the traced
// simulations, host rates and runtime figures from the untraced ones, and
// counts from the outcomes. Counts and times are panel totals.
func perLayer(v panelView, r *result) []metric {
	simTotal := v.sumOutcome(func(o outcome) float64 { return o.simSeconds })
	events := v.sumOutcome(func(o outcome) float64 { return float64(o.events) })
	requests := v.sumOutcome(func(o outcome) float64 { return float64(o.requests) })
	untracedWall := v.sumMedian(v.untraced, func(s sample) float64 { return s.wall.Seconds() })
	mean := func(f func(*probe) float64) float64 {
		total := 0.0
		for _, ss := range v.traced {
			if len(ss) == 0 {
				continue
			}
			sum := 0.0
			for _, s := range ss {
				sum += f(s.probe)
			}
			total += sum / float64(len(ss))
		}
		return total
	}
	tracedWall := mean(func(p *probe) float64 { return p.wall.Seconds() })
	polls := v.allTraced(func(p *probe) float64 { return float64(p.polls) })
	windows := v.allTraced(func(p *probe) float64 { return float64(p.windows) })
	sinkEvents := v.allTraced(func(p *probe) float64 { return float64(p.sinks.events) })
	completed := v.sumOutcome(func(o outcome) float64 { return float64(o.jobsCompleted) })
	evictions := v.sumOutcome(func(o outcome) float64 { return float64(o.evictions) })
	violations := 0
	var gcs, pauses []float64
	for _, s := range r.samples {
		violations += s.out.checkViolations
		if !s.traced && s.err == nil {
			gcs = append(gcs, float64(s.gcs))
			pauses = append(pauses, float64(s.gcPause)/1e6)
		}
	}
	count := func(f func(outcome) int) float64 {
		return v.sumOutcome(func(o outcome) float64 { return float64(f(o)) })
	}

	ms := []metric{
		{"sim.events", events, "count"},
		{"sim.events_per_sim_s", ratio(events, simTotal), "1/sim-s"},
		{"sim.host_ns_per_event", ratio(untracedWall*1e9, events), "ns"},
		{"workload.requests", requests, "count"},
		{"workload.requests_per_sim_s", ratio(requests, simTotal), "1/sim-s"},
		{"workload.completion_ratio", ratio(v.sumOutcome(func(o outcome) float64 { return float64(o.completed) }), requests), "ratio"},
		{"apps.builds", v.firstTraced(func(p *probe) float64 { return float64(p.builds) }), "count"},
		{"apps.build_s", mean(func(p *probe) float64 { return p.buildTime.Seconds() }), "s"},
		{"core.polls", v.firstTraced(func(p *probe) float64 { return float64(p.polls) }), "count"},
		{"core.poll_hook_ns", ratio(v.allTraced(func(p *probe) float64 { return float64(p.pollTime) }), polls), "ns"},
		{"core.windows", v.firstTraced(func(p *probe) float64 { return float64(p.windows) }), "count"},
		{"core.window_ns", ratio(v.allTraced(func(p *probe) float64 { return float64(p.windowTime) }), windows), "ns"},
		{"core.retargets", v.firstTraced(func(p *probe) float64 { return float64(p.retargets) }), "count"},
		{"core.safeguards", v.firstTraced(func(p *probe) float64 { return float64(p.safeguards) }), "count"},
		{"core.qos_trips", v.sumOutcome(func(o outcome) float64 { return float64(o.qosTrips) }), "count"},
		{"hypervisor.primary_cpu_s", v.sumOutcome(func(o outcome) float64 { return o.primaryCPU }), "s"},
		{"hypervisor.dropped", v.sumOutcome(func(o outcome) float64 { return float64(o.dropped) }), "count"},
	}
	for _, k := range eventKinds {
		k := k
		ms = append(ms, metric{"obs.events." + k.kind.String(),
			v.firstTraced(func(p *probe) float64 { return float64(k.count(p.sinks.metrics)) }), "count"})
	}
	ms = append(ms,
		metric{"obs.jsonl_ns_per_event", ratio(v.allTraced(func(p *probe) float64 { return float64(p.sinks.jsonlTime) }), sinkEvents), "ns"},
		metric{"check.ns_per_event", ratio(v.allTraced(func(p *probe) float64 { return float64(p.sinks.checkTime) }), sinkEvents), "ns"},
		metric{"check.violations", float64(violations), "count"},
		metric{"cluster.tenants_placed", count(func(o outcome) int { return o.tenantsPlaced }), "count"},
		metric{"cluster.tenants_rejected", count(func(o outcome) int { return o.tenantsRejected }), "count"},
		metric{"sched.jobs_submitted", count(func(o outcome) int { return o.jobsSubmitted }), "count"},
		metric{"sched.jobs_completed", completed, "count"},
		metric{"sched.evictions", evictions, "count"},
		metric{"sched.requeues", count(func(o outcome) int { return o.requeues }), "count"},
		metric{"sched.evictions_per_completed", ratio(evictions, completed), "ratio"},
		metric{"market.pools_admitted", count(func(o outcome) int { return o.poolsAdmitted }), "count"},
		metric{"market.pools_rejected", count(func(o outcome) int { return o.poolsRejected }), "count"},
		metric{"market.evictions.spot", count(func(o outcome) int { return o.evictionsByTier[0] }), "count"},
		metric{"market.evictions.standard", count(func(o outcome) int { return o.evictionsByTier[1] }), "count"},
		metric{"market.evictions.premium", count(func(o outcome) int { return o.evictionsByTier[2] }), "count"},
		metric{"market.revenue_goodput", v.sumOutcome(func(o outcome) float64 { return o.revenueGoodput }), "price-core-s"},
		metric{"runtime.mallocs_per_sim_s", ratio(v.sumMedian(v.untraced, func(s sample) float64 { return float64(s.mallocs) }), simTotal), "1/sim-s"},
		metric{"runtime.gc_cycles", median(gcs), "count"},
		metric{"runtime.gc_pause_ms", median(pauses), "ms"},
		metric{"run.untraced_wall_s", untracedWall, "s"},
		metric{"run.traced_wall_s", tracedWall, "s"},
		metric{"run.trace_overhead_s", tracedWall - untracedWall, "s"},
		metric{"run.unattributed_s", mean(func(p *probe) float64 { return (p.wall - p.attributed()).Seconds() }), "s"},
	)
	return ms
}

// cpuModel reads the CPU model name from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// report prints the run: host metadata, each sub-seed's output digest,
// failures, every metric by name and unit, and the JSON result line last.
func report(out io.Writer, w benchWorkload, seed uint64, traced bool, r *result) {
	mode := "untraced"
	if traced {
		mode = "traced"
	}
	fmt.Fprintf(out, "# perfbench workload=%s seed=%d mode=%s\n", w.name, seed, mode)
	fmt.Fprintf(out, "# host cpu=%q nproc=%d gomaxprocs=%d go=%s\n",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	v := viewOf(r)
	for sub := range r.panel {
		if o, ok := r.firstOK(sub); ok {
			fmt.Fprintf(out, "# sub-seed %d seed=%d runs=%d traced=%d digest=%016x\n",
				sub, subSeed(seed, sub), len(v.untraced[sub]), len(v.traced[sub]), o.digest)
		}
	}
	for _, f := range r.failures {
		fmt.Fprintf(out, "# FAILED %s\n", f)
	}
	if r.orderVaried > 0 {
		fmt.Fprintf(out, "# note: %d simulations repeated their sub-seed's digest but not the fleet tenant "+
			"latency mean/stddev bits (summed in map order by cluster.Fleet.Finish)\n", r.orderVaried)
	}
	var ms []metric
	if traced {
		ms = perLayer(v, r)
	} else {
		ms = endToEnd(v)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	values := make(map[string]value, len(ms))
	for _, m := range ms {
		fmt.Fprintf(out, "%-32s %16.6g %s\n", m.name, m.value, m.unit)
		values[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, values})
	if err != nil {
		// Only a NaN or Inf metric can fail to marshal; ratio guards
		// every division, so this is a bug.
		panic(err)
	}
	fmt.Fprintf(out, "%s\n", line)
}
