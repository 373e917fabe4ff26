package main

import (
	"io"
	"runtime/metrics"
	"time"

	"smartharvest/internal/apps"
	"smartharvest/internal/core"
	"smartharvest/internal/harness"
	"smartharvest/internal/hypervisor"
	"smartharvest/internal/obs"
	"smartharvest/internal/sim"
	"smartharvest/internal/simrng"
	"smartharvest/internal/workload"
)

// probe instruments one simulation from outside the program, through the
// seams harness.Run and sched.Run already accept: the controller factory,
// the primary specs' Build functions and the observer. An untraced probe
// only notes the first poll (the end of set-up), captures what Build
// yields and samples the heap; a traced probe also times every
// controller call, every Build and every observer sink, and records
// spans.
type probe struct {
	traced bool
	// mutate, when set, wraps each controller before the probe does. The
	// self-test uses it to inject per-poll allocations and per-window
	// spins that the instruments must detect.
	mutate func(core.Controller) core.Controller

	start     time.Time
	setupDone bool
	setup     time.Duration

	loop    *sim.Loop
	servers []*workload.Server
	vms     []*hypervisor.VM

	builds       int
	buildTime    time.Duration // every Build call
	buildOutside time.Duration // Build calls after set-up ended

	polls      uint64
	pollTime   time.Duration
	windows    uint64
	windowTime time.Duration
	safeguards uint64 // windows cut short by the short-term safeguard
	retargets  uint64 // window decisions that moved the target

	wall time.Duration

	heap      heapSampler
	windowsHe uint64 // window ends since the last heap sample

	spans *spanLog // nil when untraced
	root  int

	sinks *sinkProbe // nil when untraced
}

// newProbe returns a probe for one simulation, traced when spans is not
// nil.
func newProbe(spans *spanLog) *probe {
	p := &probe{traced: spans != nil, spans: spans}
	p.heap.init()
	return p
}

// begin marks the call into harness.Run or sched.Run.
func (p *probe) begin() {
	p.start = time.Now()
	if p.spans != nil {
		p.root = p.spans.open("run", -1, p.start)
	}
}

// end closes the run span and records the run's wall time.
func (p *probe) end() {
	now := time.Now()
	p.wall = now.Sub(p.start)
	if !p.setupDone {
		p.markSetup(now)
	}
	if p.spans != nil {
		p.spans.close(p.root, now)
	}
	p.heap.sample()
}

// release drops the probe's references into the finished simulation, so
// a run that keeps its probes does not keep every simulation's heap alive
// and inflate the next simulation's heap measurements.
func (p *probe) release() {
	p.loop, p.servers, p.vms = nil, nil, nil
	if p.sinks != nil {
		p.sinks.jsonl, p.sinks.check = nil, nil
	}
}

// markSetup ends set-up: the first agent poll has reached a controller.
func (p *probe) markSetup(now time.Time) {
	p.setupDone = true
	p.setup = now.Sub(p.start)
	if p.spans != nil {
		id := p.spans.open("setup", p.root, p.start)
		p.spans.close(id, now)
	}
}

// spec wraps a primary spec so each Build is captured and timed (and
// spanned when traced). The wrapped Build hands its arguments through unchanged, so
// the random stream the server draws from is the one it would have had.
func (p *probe) spec(s apps.PrimarySpec) apps.PrimarySpec {
	build := s.Build
	s.Build = func(loop *sim.Loop, vm *hypervisor.VM, rng *simrng.Rand, warmup sim.Time) (*workload.Server, error) {
		t0 := time.Now()
		srv, err := build(loop, vm, rng, warmup)
		t1 := time.Now()
		p.builds++
		p.buildTime += t1.Sub(t0)
		if p.setupDone {
			p.buildOutside += t1.Sub(t0)
		}
		if p.spans != nil {
			parent := p.root
			if !p.setupDone {
				parent = -1 // re-parented under setup when it closes
			}
			id := p.spans.open("build", parent, t0)
			p.spans.close(id, t1)
		}
		p.loop = loop
		p.vms = append(p.vms, vm)
		if srv != nil {
			p.servers = append(p.servers, srv)
		}
		return srv, err
	}
	return s
}

// controller wraps a controller factory.
func (p *probe) controller(f harness.ControllerFactory) harness.ControllerFactory {
	return func(alloc int) core.Controller {
		c := f(alloc)
		if p.mutate != nil {
			c = p.mutate(c)
		}
		return wrapController(c, p)
	}
}

// observer returns the traced run's observer chain: an obs.Metrics
// counter, a JSONL encoder and a shadow checker, the latter two timed per
// event. jsonl is the workload's own trace sink, or nil to attach a
// probe encoder writing to io.Discard.
func (p *probe) observer(jsonl obs.Observer, shadow obs.Observer) obs.Observer {
	if jsonl == nil {
		jsonl = obs.NewJSONL(io.Discard)
	}
	p.sinks = &sinkProbe{metrics: obs.NewMetrics(), jsonl: jsonl, check: shadow}
	return p.sinks
}

// attributed is a traced simulation's wall time covered by timed spans
// and aggregates that do not nest inside one another.
func (p *probe) attributed() time.Duration {
	return p.setup + p.buildOutside + p.pollTime + p.windowTime + p.sinks.jsonlTime + p.sinks.checkTime
}

// instrumented is the probe's controller wrapper. It forwards every
// Controller method; the variants below additionally forward
// core.AllocAware and core.Checkpointer exactly when the wrapped
// controller implements them, because the agent type-asserts for both
// (churn re-sizing and crash-restart) and a wrapper that hid either would
// change the simulation.
type instrumented struct {
	core.Controller
	p *probe
}

type instrumentedAlloc struct {
	*instrumented
	core.AllocAware
}

type instrumentedCheckpoint struct {
	*instrumented
	core.Checkpointer
}

type instrumentedBoth struct {
	*instrumented
	core.AllocAware
	core.Checkpointer
}

func wrapController(c core.Controller, p *probe) core.Controller {
	w := &instrumented{Controller: c, p: p}
	aa, isAA := c.(core.AllocAware)
	cp, isCP := c.(core.Checkpointer)
	switch {
	case isAA && isCP:
		return instrumentedBoth{w, aa, cp}
	case isAA:
		return instrumentedAlloc{w, aa}
	case isCP:
		return instrumentedCheckpoint{w, cp}
	}
	return w
}

func (c *instrumented) OnPoll(busy, currentTarget int) (int, bool) {
	p := c.p
	p.polls++
	if !p.setupDone {
		p.markSetup(time.Now())
	}
	if !p.traced {
		return c.Controller.OnPoll(busy, currentTarget)
	}
	t0 := time.Now()
	t, ok := c.Controller.OnPoll(busy, currentTarget)
	p.pollTime += time.Since(t0)
	return t, ok
}

// heapEvery is how many window ends pass between heap samples: often
// enough to catch the sawtooth's peaks, rarely enough that sampling costs
// well under 1% of a run.
const heapEvery = 4

func (c *instrumented) OnWindowEnd(w core.Window) int {
	p := c.p
	p.windows++
	if !p.setupDone {
		// A safeguard on the very first poll ends the window before
		// OnPoll is reached.
		p.markSetup(time.Now())
	}
	if w.Safeguard {
		p.safeguards++
	}
	if p.windowsHe++; p.windowsHe == heapEvery {
		p.windowsHe = 0
		p.heap.sample()
	}
	if !p.traced {
		return c.Controller.OnWindowEnd(w)
	}
	t0 := time.Now()
	target := c.Controller.OnWindowEnd(w)
	t1 := time.Now()
	if target != w.CurrentTarget {
		p.retargets++
	}
	p.windowTime += t1.Sub(t0)
	if p.spans != nil {
		id := p.spans.open("window", p.root, t0)
		p.spans.close(id, t1)
	}
	return target
}

// heapSampler tracks the heap high-water mark: the largest number of
// bytes in heap objects (live or not yet swept) seen at any sample.
type heapSampler struct {
	s    []metrics.Sample
	peak uint64
}

func (h *heapSampler) init() {
	h.s = []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
}

func (h *heapSampler) sample() {
	metrics.Read(h.s)
	if v := h.s[0].Value.Uint64(); v > h.peak {
		h.peak = v
	}
}

// sinkProbe is the traced run's observer: it counts every event in an
// obs.Metrics and times the JSONL encoder and the shadow checker per
// event. Counting is not timed; it is part of the tracing overhead.
type sinkProbe struct {
	metrics   *obs.Metrics
	jsonl     obs.Observer
	check     obs.Observer
	events    uint64
	jsonlTime time.Duration
	checkTime time.Duration
}

// fan delivers one event to the three sinks. The method expression f is
// a plain function value, so delivery allocates nothing.
func fan[E any](s *sinkProbe, f func(obs.Observer, E), e E) {
	f(s.metrics, e)
	t0 := time.Now()
	f(s.jsonl, e)
	t1 := time.Now()
	f(s.check, e)
	s.checkTime += time.Since(t1)
	s.jsonlTime += t1.Sub(t0)
	s.events++
}

func (s *sinkProbe) OnPollSample(e obs.PollSample)       { fan(s, obs.Observer.OnPollSample, e) }
func (s *sinkProbe) OnWindowEnd(e obs.WindowEnd)         { fan(s, obs.Observer.OnWindowEnd, e) }
func (s *sinkProbe) OnSafeguardTrip(e obs.SafeguardTrip) { fan(s, obs.Observer.OnSafeguardTrip, e) }
func (s *sinkProbe) OnQoSTrip(e obs.QoSTrip)             { fan(s, obs.Observer.OnQoSTrip, e) }
func (s *sinkProbe) OnQoSResume(e obs.QoSResume)         { fan(s, obs.Observer.OnQoSResume, e) }
func (s *sinkProbe) OnResize(e obs.Resize)               { fan(s, obs.Observer.OnResize, e) }
func (s *sinkProbe) OnChurnApplied(e obs.ChurnApplied)   { fan(s, obs.Observer.OnChurnApplied, e) }
func (s *sinkProbe) OnBatchProgress(e obs.BatchProgress) { fan(s, obs.Observer.OnBatchProgress, e) }
func (s *sinkProbe) OnFaultInjected(e obs.FaultInjected) { fan(s, obs.Observer.OnFaultInjected, e) }
func (s *sinkProbe) OnResizeRetry(e obs.ResizeRetry)     { fan(s, obs.Observer.OnResizeRetry, e) }
func (s *sinkProbe) OnDegradedEnter(e obs.DegradedEnter) { fan(s, obs.Observer.OnDegradedEnter, e) }
func (s *sinkProbe) OnDegradedExit(e obs.DegradedExit)   { fan(s, obs.Observer.OnDegradedExit, e) }
func (s *sinkProbe) OnJobSubmit(e obs.JobSubmit)         { fan(s, obs.Observer.OnJobSubmit, e) }
func (s *sinkProbe) OnJobStart(e obs.JobStart)           { fan(s, obs.Observer.OnJobStart, e) }
func (s *sinkProbe) OnJobEvict(e obs.JobEvict)           { fan(s, obs.Observer.OnJobEvict, e) }
func (s *sinkProbe) OnJobRequeue(e obs.JobRequeue)       { fan(s, obs.Observer.OnJobRequeue, e) }
func (s *sinkProbe) OnJobComplete(e obs.JobComplete)     { fan(s, obs.Observer.OnJobComplete, e) }
func (s *sinkProbe) OnJobSLOMiss(e obs.JobSLOMiss)       { fan(s, obs.Observer.OnJobSLOMiss, e) }
func (s *sinkProbe) OnServerCrash(e obs.ServerCrash)     { fan(s, obs.Observer.OnServerCrash, e) }
func (s *sinkProbe) OnServerRestart(e obs.ServerRestart) { fan(s, obs.Observer.OnServerRestart, e) }
func (s *sinkProbe) OnServerQuarantine(e obs.ServerQuarantine) {
	fan(s, obs.Observer.OnServerQuarantine, e)
}
func (s *sinkProbe) OnServerProbation(e obs.ServerProbation) {
	fan(s, obs.Observer.OnServerProbation, e)
}
func (s *sinkProbe) OnPlacementRetry(e obs.PlacementRetry) { fan(s, obs.Observer.OnPlacementRetry, e) }
func (s *sinkProbe) OnAdmissionDegraded(e obs.AdmissionDegraded) {
	fan(s, obs.Observer.OnAdmissionDegraded, e)
}
func (s *sinkProbe) OnPredictorInfo(e obs.PredictorInfo) { fan(s, obs.Observer.OnPredictorInfo, e) }
func (s *sinkProbe) OnPoolOpen(e obs.PoolOpen)           { fan(s, obs.Observer.OnPoolOpen, e) }
func (s *sinkProbe) OnPoolReject(e obs.PoolReject)       { fan(s, obs.Observer.OnPoolReject, e) }
func (s *sinkProbe) OnPoolGrant(e obs.PoolGrant)         { fan(s, obs.Observer.OnPoolGrant, e) }
func (s *sinkProbe) OnPoolAccount(e obs.PoolAccount)     { fan(s, obs.Observer.OnPoolAccount, e) }
func (s *sinkProbe) OnPoolEvict(e obs.PoolEvict)         { fan(s, obs.Observer.OnPoolEvict, e) }
func (s *sinkProbe) OnPoolSettle(e obs.PoolSettle)       { fan(s, obs.Observer.OnPoolSettle, e) }

// spanLog keeps a traced pass's spans in memory until the pass ends.
// Per-poll and per-event work is aggregated on the probe instead of
// spanned, which keeps the log to a few spans per learning window.
type spanLog struct {
	origin time.Time
	spans  []span
}

type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (l *spanLog) open(name string, parent int, at time.Time) int {
	id := len(l.spans)
	l.spans = append(l.spans, span{Name: name, ID: id, Parent: parent, Start: at.Sub(l.origin).Nanoseconds()})
	return id
}

func (l *spanLog) close(id int, at time.Time) {
	s := &l.spans[id]
	s.End = at.Sub(l.origin).Nanoseconds()
	if s.Name == "setup" {
		// Builds made before the first poll belong to set-up.
		for i := s.Parent + 1; i < id; i++ {
			if l.spans[i].Parent == -1 && l.spans[i].Name == "build" {
				l.spans[i].Parent = id
			}
		}
	}
}
