package main

import (
	"encoding/json"
	"io"
	"os"
	"slices"
	"sort"
	"testing"
	"time"

	"smartharvest/internal/check"
	"smartharvest/internal/core"
	"smartharvest/internal/harness"
	"smartharvest/internal/obs"
	"smartharvest/internal/sched"
)

// plainOutcome runs a workload's simulation the way the program runs it
// without the benchmark's controller wrapper: the harness's or cluster's
// default controller. Only Build is wrapped, to capture the servers the
// outcome is read from; that wrapper hands its arguments through.
func plainOutcome(t *testing.T, name string, seed uint64) outcome {
	t.Helper()
	p := newProbe(nil)
	var o outcome
	var err error
	switch name {
	case "server-dense":
		s := denseScenario(seed, p)
		s.Controller = nil
		var r *harness.Result
		if r, err = harness.Run(s); err == nil {
			o, err = serverOutcome(r, p)
		}
	case "server-checked":
		s := checkedScenario(seed, p)
		s.Controller = nil
		s.Predictor = harness.PredictorEnsemble
		s.Observer = obs.NewJSONL(io.Discard)
		s.Checker = check.New()
		var r *harness.Result
		if r, err = harness.Run(s); err == nil {
			o, err = serverOutcome(r, p)
		}
	case "fleet-market":
		var cfg sched.Config
		if cfg, err = fleetConfig(seed, p); err == nil {
			cfg.Fleet.Controller = nil
			var r *sched.Result
			if r, err = sched.Run(cfg); err == nil {
				o, err = fleetOutcome(r, p)
			}
		}
	default:
		t.Fatalf("no plain run for %s", name)
	}
	if err != nil {
		t.Fatalf("%s plain run: %v", name, err)
	}
	return o
}

// transparencySeeds are the sub-seeds TestInstrumentationIsTransparent
// runs. server-checked's trips the long-term QoS safeguard, so the test
// also catches a run that loses harness's LongTermSafeguard default.
var transparencySeeds = map[string]uint64{
	"server-dense":   subSeed(1, 0),
	"server-checked": subSeed(301, 1),
	"fleet-market":   subSeed(1, 0),
}

// TestInstrumentationIsTransparent checks that the untraced and the
// traced run of each workload reproduce the simulated outputs of the
// program run without the benchmark's controller wrapper.
func TestInstrumentationIsTransparent(t *testing.T) {
	for _, w := range workloads {
		seed := transparencySeeds[w.name]
		want := plainOutcome(t, w.name, seed)
		if w.name == "server-checked" && want.qosTrips == 0 {
			t.Fatalf("server-checked sub-seed %d no longer trips the long-term safeguard; pick one that does", seed)
		}
		for _, spans := range []*spanLog{nil, {origin: time.Now()}} {
			s := simulate(w, seed, 0, spans, nil)
			if s.err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, s.traced, s.err)
			}
			if s.out.digest != want.digest {
				t.Errorf("%s traced=%v: digest %016x, plain run %016x", w.name, s.traced, s.out.digest, want.digest)
			}
			if s.out.checkViolations != 0 {
				t.Errorf("%s traced=%v: %d invariant violations", w.name, s.traced, s.out.checkViolations)
			}
		}
	}
}

// hidden hides every optional interface of the controller it wraps.
type hidden struct{ core.Controller }

// TestForwardingMatters shows the transparency test can fail: on the
// fleet, where tenants arrive and depart, a wrapper that hides
// core.AllocAware changes the simulation.
func TestForwardingMatters(t *testing.T) {
	w, _ := findWorkload("fleet-market")
	seed := subSeed(1, 0)
	want := plainOutcome(t, w.name, seed)
	s := simulate(w, seed, 0, nil, func(p *probe) {
		p.mutate = func(c core.Controller) core.Controller { return hidden{c} }
	})
	if s.err != nil {
		t.Fatal(s.err)
	}
	if s.out.digest == want.digest {
		t.Fatal("hiding AllocAware left the fleet's outputs unchanged; the transparency test would be vacuous")
	}
}

var escape []byte

// costly adds a heap allocation to every poll and a spin to every window
// end, and otherwise forwards to the controller it wraps.
type costly struct {
	core.Controller
	spin time.Duration
}

func (c costly) OnPoll(busy, target int) (int, bool) {
	escape = make([]byte, 16)
	return c.Controller.OnPoll(busy, target)
}

func (c costly) OnWindowEnd(w core.Window) int {
	for start := time.Now(); time.Since(start) < c.spin; {
	}
	return c.Controller.OnWindowEnd(w)
}

type costlyFull struct {
	costly
	core.AllocAware
	core.Checkpointer
}

func metricsOf(ms []metric) map[string]float64 {
	m := make(map[string]float64, len(ms))
	for _, x := range ms {
		m[x.name] = x.value
	}
	return m
}

// TestInstrumentsSeeInjectedCost is the instruments' own mutant: a
// controller that allocates on every poll and spins on every window end
// must move runtime.mallocs_per_sim_s and core.window_ns, and must leave
// the simulated outputs alone.
func TestInstrumentsSeeInjectedCost(t *testing.T) {
	w, _ := findWorkload("server-dense")
	const spin = 20 * time.Microsecond
	run := func(mutate func(*probe)) (*result, map[string]float64) {
		r := measure(w, 7, time.Nanosecond, true, mutate)
		if r.failed > 0 {
			t.Fatalf("failures: %v", r.failures)
		}
		return r, metricsOf(perLayer(viewOf(r), r))
	}
	baseRun, base := run(nil)
	mutRun, mut := run(func(p *probe) {
		p.mutate = func(c core.Controller) core.Controller {
			return costlyFull{costly{c, spin}, c.(core.AllocAware), c.(core.Checkpointer)}
		}
	})
	simSeconds := base["sim.events"] / base["sim.events_per_sim_s"]
	pollsPerSimS := base["core.polls"] / simSeconds
	if got := mut["runtime.mallocs_per_sim_s"] - base["runtime.mallocs_per_sim_s"]; got < 0.9*pollsPerSimS {
		t.Errorf("one allocation per poll moved runtime.mallocs_per_sim_s by %.0f, want >= %.0f", got, 0.9*pollsPerSimS)
	}
	if got := mut["core.window_ns"] - base["core.window_ns"]; got < 0.9*float64(spin.Nanoseconds()) {
		t.Errorf("a %v spin per window moved core.window_ns by %.0f ns", spin, got)
	}
	b, m := viewOf(baseRun), viewOf(mutRun)
	for sub, o := range b.outcomes {
		if m.outcomes[sub].digest != o.digest {
			t.Errorf("sub-seed %d: the injected cost changed the simulated outputs", sub)
		}
	}
}

// drifting keeps the in-force target at every window end: a controller
// whose decisions differ from an earlier run of the same seed, as a
// nondeterministic program's would.
type drifting struct{ core.Controller }

func (d drifting) OnWindowEnd(w core.Window) int {
	d.Controller.OnWindowEnd(w)
	return w.CurrentTarget
}

// TestDigestMismatchFails checks that a simulation whose outputs differ
// from an earlier run of its sub-seed counts as a failed operation.
func TestDigestMismatchFails(t *testing.T) {
	w, _ := findWorkload("server-dense")
	sims := 0
	r := measure(w, 3, time.Nanosecond, false, func(p *probe) {
		if sims++; sims > w.panel {
			p.mutate = func(c core.Controller) core.Controller { return drifting{c} }
		}
	})
	if r.attempted != 2*w.panel || r.failed != w.panel {
		t.Fatalf("attempted %d failed %d, want %d and %d (%v)", r.attempted, r.failed, 2*w.panel, w.panel, r.failures)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the program in step:
// the same workloads, and the same metric names and units per mode.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type spec struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var bj struct {
		Workloads []spec `json:"workloads"`
		EndToEnd  []spec `json:"end_to_end"`
		PerLayer  []spec `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var declared []string
	for _, w := range bj.Workloads {
		declared = append(declared, w.Name)
	}
	sort.Strings(names)
	sort.Strings(declared)
	if !slices.Equal(names, declared) {
		t.Fatalf("workloads %v, BENCHMARK.json %v", names, declared)
	}
	empty := &result{}
	for mode, pair := range map[string]struct {
		got  []metric
		want []spec
	}{
		"end_to_end": {endToEnd(viewOf(empty)), bj.EndToEnd},
		"per_layer":  {perLayer(viewOf(empty), empty), bj.PerLayer},
	} {
		want := make(map[string]string, len(pair.want))
		for _, s := range pair.want {
			want[s.Name] = s.Unit
		}
		if len(want) != len(pair.got) {
			t.Errorf("%s: program prints %d metrics, BENCHMARK.json declares %d", mode, len(pair.got), len(want))
		}
		for _, m := range pair.got {
			if unit, ok := want[m.name]; !ok || unit != m.unit {
				t.Errorf("%s: program prints %s [%s], BENCHMARK.json has [%s] (declared=%v)", mode, m.name, m.unit, unit, ok)
			}
		}
	}
}
