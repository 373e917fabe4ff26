package bench

import (
	"smartharvest/internal/learner"
	"smartharvest/internal/market"
	"smartharvest/internal/sched"
	"smartharvest/internal/sim"
	"smartharvest/internal/simrng"
)

// Micro is one pinned microbenchmark of the perf snapshot. Each entry
// names the go-test benchmark it mirrors (GoBench in Pkg), so the root
// drift test can assert the pinned list matches what `go test -bench`
// actually discovers — a renamed or deleted benchmark fails the test
// instead of silently dropping out of the trajectory.
//
// Setup performs per-benchmark initialization and returns the timed
// loop body; the harness (measure.go) calibrates n and reports ns/op
// and allocs/op. Bodies mirror their go-test twins byte-for-intent:
// changing either side without the other breaks the pinned pairing.
type Micro struct {
	// Name is the snapshot-stable identifier, e.g. "sim/schedule-fire".
	Name string
	// Pkg is the package directory of the twin go-test benchmark,
	// relative to the repo root (e.g. "./internal/sim").
	Pkg string
	// GoBench is the twin benchmark function name in Pkg's tests.
	GoBench string
	// Setup builds the benchmark state and returns the timed body.
	Setup func() func(n int)
}

// Micros returns the pinned snapshot set, covering every hot subsystem:
// the sim event loop (schedule/fire, ticker, cancel, and the fleet's
// poll-lane mix), the CSOAA learner (feature computation, predict,
// update), market admission, and a small end-to-end fleet scheduler run.
// Order is fixed; names are part of the BENCH_*.json contract.
func Micros() []Micro {
	return []Micro{
		{
			Name: "sim/schedule-fire", Pkg: "./internal/sim", GoBench: "BenchmarkScheduleAndFire",
			Setup: func() func(n int) {
				l := sim.NewLoop()
				fn := func() {}
				return func(n int) {
					for i := 0; i < n; i++ {
						l.After(sim.Microsecond, fn)
						l.Step()
					}
				}
			},
		},
		{
			Name: "sim/ticker", Pkg: "./internal/sim", GoBench: "BenchmarkTicker",
			Setup: func() func(n int) {
				l := sim.NewLoop()
				ticks := 0
				l.NewTicker(0, 50*sim.Microsecond, func() { ticks++ })
				return func(n int) {
					for i := 0; i < n; i++ {
						l.RunUntil(l.Now() + 50*sim.Microsecond)
					}
				}
			},
		},
		{
			Name: "sim/cancel", Pkg: "./internal/sim", GoBench: "BenchmarkCancel",
			Setup: func() func(n int) {
				l := sim.NewLoop()
				fn := func() {}
				return func(n int) {
					for i := 0; i < n; i++ {
						e := l.After(sim.Millisecond, fn)
						l.Cancel(e)
					}
				}
			},
		},
		{
			Name: "sim/poll-lane", Pkg: "./internal/sim", GoBench: "BenchmarkPollLane",
			Setup: func() func(n int) {
				l := sim.NewLoop()
				var poll func()
				poll = func() { l.AfterFixed(50*sim.Microsecond, poll) }
				for i := 0; i < 8; i++ {
					l.At(sim.Time(i+1)*sim.Microsecond, poll)
				}
				x := uint64(1)
				var background func()
				background = func() {
					x = x*6364136223846793005 + 1442695040888963407
					l.After(sim.Time(1+x>>33%6400)*sim.Microsecond, background)
				}
				for i := 0; i < 96; i++ {
					background()
				}
				return func(n int) {
					for i := 0; i < n; i++ {
						l.Step()
					}
				}
			},
		},
		{
			Name: "learner/features", Pkg: "./internal/learner", GoBench: "BenchmarkFeatureComputation",
			Setup: func() func(n int) {
				fe := learner.NewFeatureExtractor(10)
				rng := simrng.New(1)
				samples := make([]int, 500) // one 25 ms window at 50 µs polls
				for i := range samples {
					samples[i] = rng.Intn(11)
				}
				return func(n int) {
					for i := 0; i < n; i++ {
						_ = fe.Compute(samples)
					}
				}
			},
		},
		{
			Name: "learner/csoaa-predict", Pkg: "./internal/learner", GoBench: "BenchmarkModelInference",
			Setup: func() func(n int) {
				c := learner.NewCSOAA(11, learner.NumFeatures, 0.1)
				x := []float64{0.1, 0.7, 0.3, 0.1, 0.3}
				return func(n int) {
					for i := 0; i < n; i++ {
						_ = c.Predict(x)
					}
				}
			},
		},
		{
			Name: "learner/csoaa-update", Pkg: "./internal/learner", GoBench: "BenchmarkModelUpdate",
			Setup: func() func(n int) {
				c := learner.NewCSOAA(11, learner.NumFeatures, 0.1)
				x := []float64{0.1, 0.7, 0.3, 0.1, 0.3}
				costs := make([]float64, 11)
				learner.FillCosts(costs, learner.SkewedCost{UnderPenalty: 10}, 5)
				return func(n int) {
					for i := 0; i < n; i++ {
						c.Update(x, costs)
					}
				}
			},
		},
		{
			Name: "market/admission", Pkg: "./internal/market", GoBench: "BenchmarkAdmission",
			Setup: func() func(n int) {
				cfg, err := market.ParsePools("name=s,tier=spot,reserved=8;name=m,tier=standard,reserved=4;name=p,tier=premium,reserved=2")
				if err != nil {
					panic(err) // fixed plan; cannot fail
				}
				return func(n int) {
					for i := 0; i < n; i++ {
						l, err := market.NewLedger(cfg, 1, func() sim.Time { return 0 }, nil)
						if err != nil {
							panic(err)
						}
						for s := range l.Specs() {
							l.TryOpen(s, 16)
						}
						for j := 0; j < 64; j++ {
							if l.AssignPool() == nil {
								panic("no pool assigned")
							}
						}
					}
				}
			},
		},
		{
			Name: "fleet/sched-run", Pkg: "./internal/sched", GoBench: "BenchmarkSchedRun",
			Setup: func() func(n int) {
				return func(n int) {
					for i := 0; i < n; i++ {
						if _, err := sched.Run(sched.BenchConfig(1)); err != nil {
							panic(err) // deterministic config; cannot fail
						}
					}
				}
			},
		},
	}
}
