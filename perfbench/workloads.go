package main

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"

	"smartharvest/internal/apps"
	"smartharvest/internal/check"
	"smartharvest/internal/cluster"
	"smartharvest/internal/core"
	"smartharvest/internal/harness"
	"smartharvest/internal/hypervisor"
	"smartharvest/internal/market"
	"smartharvest/internal/obs"
	"smartharvest/internal/sched"
	"smartharvest/internal/sim"
)

// benchWorkload is one set of inputs the benchmark runs. A run simulates a
// panel of sub-seeds derived from --seed, one simulation at a time,
// round-robin, so each sub-seed is simulated at least twice and its
// outputs can be compared across repetitions.
type benchWorkload struct {
	name  string
	panel int
	run   func(seed uint64, p *probe) (outcome, error)
}

// workloads lists the benchmark's workloads. BENCHMARK.json names the
// same three and says why each was chosen; README.md has the detail.
var workloads = []benchWorkload{
	{
		name:  "server-dense",
		panel: 4,
		run:   runServerDense,
	},
	{
		name:  "server-checked",
		panel: 32,
		run:   runServerChecked,
	},
	{
		name:  "fleet-market",
		panel: 40,
		run:   runFleetMarket,
	},
}

func findWorkload(name string) (benchWorkload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return benchWorkload{}, false
}

// subSeed derives the i-th simulation seed of a run's panel from --seed
// (splitmix64), so neighbouring --seed values give unrelated panels.
func subSeed(seed uint64, i int) uint64 {
	z := seed*0x9E3779B97F4A7C15 + uint64(i+1)*0xBF58476D1CE4E5B9
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// outcome is everything one simulation produces that does not depend on
// the host: simulated model outputs (not validated against hardware) and
// deterministic work counts. digest hashes all of it; a simulation whose
// digest differs from another run of the same sub-seed has failed.
type outcome struct {
	simSeconds float64
	events     uint64

	harvested float64 // time-averaged harvested cores per server
	p99ms     float64 // worst primary P99 (server) or fleet tenant P99
	goodput   float64 // batch work delivered, core-seconds

	requests, completed uint64
	primaryCPU          float64
	dropped             uint64
	qosTrips            uint64

	tenantsPlaced, tenantsRejected int
	jobsSubmitted, jobsCompleted   int
	evictions, requeues            int
	poolsAdmitted, poolsRejected   int
	evictionsByTier                [3]int
	revenueGoodput                 float64

	checkViolations int

	digest uint64
	// orderBits hashes outputs the program computes in an order that
	// varies between runs of one seed, which the digest leaves out: the
	// fleet tenant latency's mean and standard deviation, summed over
	// resident tenants in map iteration order by cluster.Fleet.Finish.
	orderBits uint64
}

func digestOf(parts ...any) uint64 {
	h := fnv.New64a()
	for _, p := range parts {
		fmt.Fprintf(h, "%v|", p)
	}
	return h.Sum64()
}

// fromServers fills the counts read from the servers and VMs the probe
// captured at Build.
func (o *outcome) fromServers(p *probe) {
	for _, s := range p.servers {
		o.requests += s.Offered()
		o.completed += s.Completed()
	}
	for _, vm := range p.vms {
		o.primaryCPU += vm.CPUTime().Seconds()
		o.dropped += vm.Dropped()
	}
	if p.loop != nil {
		o.simSeconds = p.loop.Now().Seconds()
		o.events = p.loop.Fired()
	}
}

func serverOutcome(r *harness.Result, p *probe) (outcome, error) {
	var o outcome
	o.fromServers(p)
	if p.loop == nil {
		return o, fmt.Errorf("no primary was built")
	}
	o.harvested = r.AvgHarvestedCores
	o.goodput = r.ElasticCPUSeconds
	o.qosTrips = r.QoSTrips
	parts := []any{o.simSeconds, o.events, r.AvgHarvestedCores, r.AvgElasticCores, r.ElasticCPUSeconds,
		r.Windows, r.Safeguards, r.QoSTrips, r.Resizes, r.Grow, r.Shrink}
	for _, pr := range r.Primaries {
		o.p99ms = math.Max(o.p99ms, float64(pr.Latency.P99)/1e6)
		parts = append(parts, pr.Name, pr.Offered, pr.Completed, pr.Latency)
	}
	if r.Check != nil {
		o.checkViolations = len(r.Check.Violations) + r.Check.Dropped
	}
	o.digest = digestOf(parts...)
	return o, nil
}

// defaultSmartHarvest is harness's and cluster's default controller: the
// paper's CSOAA learner.
func defaultSmartHarvest(alloc int) core.Controller {
	return core.NewSmartHarvest(alloc, core.SmartHarvestOptions{})
}

// serverShadow binds a checker to the facts harness.Run binds its own
// checker to, for a run with the given number of 10-core primary VMs and
// the default agent configuration.
// It lets the traced run time a checker per event, which the checker
// harness.Run chains internally does not allow.
func serverShadow(primaries int) (*check.Checker, error) {
	const vmCores, elasticMin = 10, 1
	alloc := primaries * vmCores
	cfg := core.DefaultConfig(alloc, elasticMin)
	res := core.DefaultResilience()
	c := check.New()
	err := c.Bind(check.Config{
		TotalCores:        alloc + elasticMin,
		PrimaryAlloc:      alloc,
		PrimaryVMCores:    vmCores,
		ElasticMin:        elasticMin,
		HarvestPause:      cfg.HarvestPause,
		QoSViolationFrac:  cfg.QoSViolationFrac,
		LongTermSafeguard: true,
		MaxRetries:        res.MaxRetries,
		RetryBackoff:      res.RetryBackoff,
		Probation:         res.Probation,
	})
	return c, err
}

// runServer runs one single-server scenario. The explicit controller
// factory turns off harness's default of LongTermSafeguard, so it is set
// here as harness sets it for its own default controller.
func runServer(s harness.Scenario, p *probe, jsonl obs.Observer) (outcome, error) {
	s.LongTermSafeguard = true
	var shadow *check.Checker
	if p.traced {
		var err error
		if shadow, err = serverShadow(len(s.Primaries)); err != nil {
			return outcome{}, err
		}
		s.Observer = p.observer(jsonl, shadow)
	} else if jsonl != nil {
		s.Observer = jsonl
	}
	p.begin()
	r, err := harness.Run(s)
	p.end()
	if err != nil {
		return outcome{}, err
	}
	o, err := serverOutcome(r, p)
	if err != nil {
		return o, err
	}
	if shadow != nil {
		rep := shadow.Finish()
		o.checkViolations += len(rep.Violations) + rep.Dropped
	}
	return o, nil
}

func denseScenario(seed uint64, p *probe) harness.Scenario {
	return harness.Scenario{
		Name:       "server-dense",
		Primaries:  []apps.PrimarySpec{p.spec(apps.Memcached(40000)), p.spec(apps.Memcached(40000))},
		Controller: p.controller(defaultSmartHarvest),
		Duration:   4 * sim.Second,
		Seed:       seed,
	}
}

func runServerDense(seed uint64, p *probe) (outcome, error) {
	return runServer(denseScenario(seed, p), p, nil)
}

// checkedScenario is server-checked without its trace sink and checker.
func checkedScenario(seed uint64, p *probe) harness.Scenario {
	return harness.Scenario{
		Name: "server-checked",
		Primaries: []apps.PrimarySpec{
			p.spec(apps.SquareWave(8, 1, 200*sim.Millisecond)),
			p.spec(apps.Moses(200)),
			p.spec(apps.IndexServe(300)),
		},
		Mechanism:  hypervisor.IPI,
		Controller: p.controller(harness.SmartHarvestPredictorFactory(harness.PredictorEnsemble, core.SmartHarvestOptions{})),
		Duration:   20 * sim.Second,
		Seed:       seed,
	}
}

// runServerChecked runs server-checked the way -trace -check users run
// it: a JSONL trace sink and an invariant checker on every run.
func runServerChecked(seed uint64, p *probe) (outcome, error) {
	jsonl := obs.NewJSONL(io.Discard)
	s := checkedScenario(seed, p)
	s.Checker = check.New()
	o, err := runServer(s, p, jsonl)
	if err != nil {
		return o, err
	}
	if err := jsonl.Flush(); err != nil {
		return o, fmt.Errorf("trace sink: %w", err)
	}
	if o.checkViolations > 0 {
		return o, fmt.Errorf("checker: %v", s.Checker.Finish().Err())
	}
	return o, nil
}

// balancedPools is the market experiment's three-tier "balanced" plan.
const balancedPools = "name=s1,tier=spot,reserved=20,price=0.5;name=m1,tier=standard,reserved=20;name=p1,tier=premium,reserved=24,price=2"

// fleetConfig is the fleet-market simulation. Its tenants are cluster's
// default mix without memcached: at 40k QPS a memcached tenant sends tens
// of times the requests of any other app, so with it a fleet run's host
// cost follows how many memcached tenants the seed happens to draw, and
// server-dense already covers that request path. The
// scheduler's resilience knobs are spelled out at their defaults so the
// traced run's shadow job checker binds exactly the values the scheduler
// runs with.
func fleetConfig(seed uint64, p *probe) (sched.Config, error) {
	pools, err := market.ParsePools(balancedPools)
	if err != nil {
		return sched.Config{}, err
	}
	return sched.Config{
		Fleet: cluster.Config{
			Servers:      8,
			ArrivalRate:  4,
			MeanLifetime: 2 * sim.Second,
			Workloads: []apps.PrimarySpec{
				p.spec(apps.IndexServe(500)), p.spec(apps.Moses(400)), p.spec(apps.ImgDNN(2000)),
			},
			Controller: p.controller(defaultSmartHarvest),
			Duration:   4 * sim.Second,
			Warmup:     sim.Second,
			Seed:       seed,
		},
		Policy:              sched.Predicted,
		ArrivalRate:         10,
		Market:              pools,
		MaxRequeues:         3,
		MaxPlacementRetries: 3,
		PlacementBackoff:    5 * sim.Millisecond,
		QuarantineDur:       250 * sim.Millisecond,
		QuarantineMax:       2 * sim.Second,
		ProbationDur:        500 * sim.Millisecond,
		DegradeEnter:        8,
		DegradeExit:         2,
	}, nil
}

func runFleetMarket(seed uint64, p *probe) (outcome, error) {
	cfg, err := fleetConfig(seed, p)
	if err != nil {
		return outcome{}, err
	}
	var shadow *check.JobChecker
	if p.traced {
		shadow = check.NewJobChecker()
		if err := shadow.Bind(check.JobConfig{
			MaxRequeues:         cfg.MaxRequeues,
			Servers:             cfg.Fleet.Servers,
			MaxPlacementRetries: cfg.MaxPlacementRetries,
			PlacementBackoff:    cfg.PlacementBackoff,
			QuarantineDur:       cfg.QuarantineDur,
			QuarantineMax:       cfg.QuarantineMax,
			ProbationDur:        cfg.ProbationDur,
			DegradeEnter:        cfg.DegradeEnter,
			DegradeExit:         cfg.DegradeExit,
			Market:              cfg.Market,
		}); err != nil {
			return outcome{}, err
		}
		cfg.Fleet.Observer = p.observer(nil, shadow)
	}
	p.begin()
	r, err := sched.Run(cfg)
	p.end()
	if err != nil {
		return outcome{}, err
	}
	o, err := fleetOutcome(r, p)
	if shadow != nil {
		rep := shadow.Finish()
		o.checkViolations = len(rep.Violations) + rep.Dropped
	}
	return o, err
}

func fleetOutcome(r *sched.Result, p *probe) (outcome, error) {
	var o outcome
	o.fromServers(p)
	if p.loop == nil {
		return o, fmt.Errorf("no tenant was built")
	}
	f, m := r.Fleet, r.Market
	if m == nil {
		return o, fmt.Errorf("market opened no pools")
	}
	o.harvested = f.FleetAvgHarvested
	o.p99ms = float64(f.TenantLatency.P99) / 1e6
	o.goodput = r.GoodputCoreSec
	for _, s := range f.PerServer {
		o.qosTrips += s.QoSTrips
	}
	o.tenantsPlaced, o.tenantsRejected = f.Placed, f.Rejected
	o.jobsSubmitted, o.jobsCompleted = r.Submitted, r.Completed
	o.evictions, o.requeues = r.Evictions, r.Requeues
	o.poolsAdmitted, o.poolsRejected = m.Admitted, m.Rejected
	o.evictionsByTier = m.EvictionsByTier
	o.revenueGoodput = m.RevenueGoodput
	lat := f.TenantLatency
	o.orderBits = digestOf(lat.Mean, lat.Stddev)
	lat.Mean, lat.Stddev = 0, 0
	o.digest = digestOf(o.simSeconds, o.events, r.Submitted, r.Completed, r.Abandoned, r.Unfinished,
		r.Evictions, r.Requeues, r.CompletionP50, r.CompletionP99, r.GoodputCoreSec, r.SLOJobs, r.SLOMet,
		f.Placed, f.Rejected, f.Departed, f.PerServer, f.FleetAvgHarvested, f.HarvestedCoreSec,
		f.ElasticCPUSec, lat, m.Admitted, m.Rejected, m.Revenue, m.Penalties,
		m.ReservedByTier, m.EvictionsByTier, m.ViolationsByTier, m.RevenueGoodput)
	return o, nil
}
