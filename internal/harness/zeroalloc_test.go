package harness

import (
	"testing"

	"smartharvest/internal/apps"
	"smartharvest/internal/core"
	"smartharvest/internal/hypervisor"
	"smartharvest/internal/sim"
	"smartharvest/internal/simrng"
	"smartharvest/internal/workload"
)

// requestPathSteps is how many loop steps one measured run of the
// request-path guard covers. testing.AllocsPerRun divides the malloc
// count by the number of runs as integers, so runs of single steps would
// round any rate below one allocation per step down to zero.
const requestPathSteps = 10000

// requestPathLoop assembles a server the way Run does — the given
// primaries on 10-core VMs, CPUBully in the ElasticVM, and the default
// SmartHarvest agent on the machine — and steps it to 2 s of simulated
// time, by which every free list and buffer on the path has warmed up.
// Latency recording starts at once (no warmup) so it is on the path too.
func requestPathLoop(t *testing.T, primaries ...apps.PrimarySpec) *sim.Loop {
	t.Helper()
	const vmCores = 10
	alloc := len(primaries) * vmCores
	total := alloc + 1
	rng := simrng.New(7)
	loop := sim.NewLoop()
	hvCfg := hypervisor.DefaultConfig(total)
	hvCfg.Seed = rng.Uint64()
	m, err := hypervisor.New(loop, hvCfg)
	if err != nil {
		t.Fatal(err)
	}
	m.SetInitialSplit(alloc)
	for _, spec := range primaries {
		vm := m.AddVM(spec.Name, hypervisor.PrimaryGroup, vmCores, vmCores)
		srv, err := spec.Build(loop, vm, rng.Split(), 0)
		if err != nil {
			t.Fatal(err)
		}
		srv.Start()
	}
	apps.NewCPUBully(loop, m.AddVM("elastic", hypervisor.ElasticGroup, total, total)).Start()
	agent, err := core.NewAgent(loop, machineHV{m}, core.NewSmartHarvest(alloc, core.SmartHarvestOptions{}),
		core.DefaultConfig(alloc, 1))
	if err != nil {
		t.Fatal(err)
	}
	agent.Start()
	loop.RunUntil(2 * sim.Second)
	return loop
}

// requestPathAllocs returns the allocations per block of requestPathSteps
// steps of loop.
func requestPathAllocs(loop *sim.Loop) float64 {
	return testing.AllocsPerRun(5, func() {
		for i := 0; i < requestPathSteps; i++ {
			loop.Step()
		}
	})
}

// TestRequestPathZeroAllocs pins the steady-state request path at zero
// allocations: arrivals, fanout with staggered subtasks, service
// sampling, dispatch and slice ends, request joins and latency recording,
// under the agent's 50 µs polls and window decisions.
func TestRequestPathZeroAllocs(t *testing.T) {
	loop := requestPathLoop(t, apps.Memcached(40000), apps.Memcached(40000), apps.IndexServe(300))
	if a := requestPathAllocs(loop); a != 0 {
		t.Fatalf("request path allocates %v per %d steps, want 0", a, requestPathSteps)
	}
}

// allocEvery64 is the request-path guard's mutant: a service distribution
// that allocates once every 64 samples.
type allocEvery64 struct {
	workload.ServiceDist
	n   int
	buf []byte
}

func (d *allocEvery64) Sample() sim.Time {
	d.n++
	if d.n%64 == 0 {
		d.buf = make([]byte, 64)
	}
	return d.ServiceDist.Sample()
}

// TestRequestPathZeroAllocsGuardCatchesMutant proves the guard sound: one
// allocation per 64 service samples on one memcached tenant must fail it.
func TestRequestPathZeroAllocsGuardCatchesMutant(t *testing.T) {
	mutant := apps.PrimarySpec{
		Name: "memcached-alloc64",
		QPS:  40000,
		Build: func(loop *sim.Loop, vm *hypervisor.VM, rng *simrng.Rand, warmup sim.Time) (*workload.Server, error) {
			return workload.NewServer(loop, vm, workload.ServerConfig{
				Name:    "memcached-alloc64",
				Arrival: workload.NewPoisson(rng.Split(), 40000),
				Service: &allocEvery64{ServiceDist: workload.NewLogNormalService(rng.Split(), 57*sim.Microsecond, 3.5, 2*sim.Millisecond)},
				Warmup:  warmup,
			}), nil
		},
	}
	loop := requestPathLoop(t, apps.Memcached(40000), mutant, apps.IndexServe(300))
	if a := requestPathAllocs(loop); a == 0 {
		t.Fatal("guard passed a service distribution that allocates every 64 samples")
	}
}
