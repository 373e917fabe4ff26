package traces

import (
	"sort"
	"testing"

	"smartharvest/internal/sim"
	"smartharvest/internal/simrng"
	"smartharvest/internal/workload"
)

// sortedReference is the generator before bursts were merged in: the same
// draws in the same order, concatenated, then sorted by At with the
// reflection-based sort. Generate must reproduce it exactly.
func sortedReference(cfg Config) []workload.TraceEvent {
	rng := simrng.New(cfg.Seed)
	var events []workload.TraceEvent
	if bgQPS := cfg.QPS * (1 - cfg.BurstFraction); bgQPS > 0 {
		meanGap := 1e9 / (bgQPS * (1 + cfg.LoadWave))
		for t := sim.Time(rng.Exp(meanGap)); t < cfg.Span; t += sim.Time(rng.Exp(meanGap)) {
			if cfg.LoadWave > 0 {
				phase := float64(t%cfg.WavePeriod) / float64(cfg.WavePeriod)
				accept := (1 + cfg.LoadWave*sinApprox(phase)) / (1 + cfg.LoadWave)
				if !rng.Bool(accept) {
					continue
				}
			}
			events = append(events, workload.TraceEvent{At: t, Batch: 1})
		}
	}
	if cfg.BurstFraction > 0 {
		perBurst := cfg.QPS * cfg.BurstFraction / cfg.BurstRate
		if perBurst < 1 {
			perBurst = 1
		}
		meanGap := 1e9 / cfg.BurstRate
		for t := sim.Time(rng.Exp(meanGap)); t < cfg.Span; t += sim.Time(rng.Exp(meanGap)) {
			n := 1 + rng.Geometric(1/perBurst)
			for i := 0; i < n; i++ {
				if at := t + sim.Time(rng.Intn(int(cfg.BurstWidth))); at < cfg.Span {
					events = append(events, workload.TraceEvent{At: at, Batch: 1})
				}
			}
		}
	}
	sort.Slice(events, func(i, j int) bool { return events[i].At < events[j].At })
	return events
}

// TestGenerateMatchesSortedReference pins the burst merge: for background
// only, bursts only, an unmodulated background and the IndexServe
// default, Generate is ordered by At and equal, event for event, to the
// sort of the same draws.
func TestGenerateMatchesSortedReference(t *testing.T) {
	cases := map[string]func(*Config){
		"no-bursts":   func(c *Config) { c.BurstFraction = 0 },
		"bursts-only": func(c *Config) { c.BurstFraction = 1 },
		"no-wave":     func(c *Config) { c.LoadWave = 0 },
		"indexserve":  func(*Config) {},
	}
	for name, edit := range cases {
		t.Run(name, func(t *testing.T) {
			for seed := uint64(1); seed <= 3; seed++ {
				cfg := DefaultConfig(500, 30*sim.Second)
				cfg.Seed = seed
				edit(&cfg)
				got, err := Generate(cfg)
				if err != nil {
					t.Fatal(err)
				}
				for i := 1; i < len(got); i++ {
					if got[i].At < got[i-1].At {
						t.Fatalf("seed %d: event %d at %v before event %d at %v", seed, i, got[i].At, i-1, got[i-1].At)
					}
				}
				want := sortedReference(cfg)
				if len(got) != len(want) {
					t.Fatalf("seed %d: %d events, reference has %d", seed, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("seed %d: event %d is %+v, reference %+v", seed, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestMergeTail checks the in-place merge on runs that interleave, that
// leave either run empty, and that share equal keys.
func TestMergeTail(t *testing.T) {
	ev := func(ats ...sim.Time) []workload.TraceEvent {
		out := make([]workload.TraceEvent, len(ats))
		for i, at := range ats {
			out[i] = workload.TraceEvent{At: at, Batch: 1}
		}
		return out
	}
	for _, tc := range []struct {
		in   []workload.TraceEvent
		n    int
		want []workload.TraceEvent
	}{
		{ev(1, 4, 6, 2, 3, 7), 3, ev(1, 2, 3, 4, 6, 7)},
		{ev(5, 6, 1, 2), 2, ev(1, 2, 5, 6)},
		{ev(1, 2, 3), 3, ev(1, 2, 3)},
		{ev(1, 2, 3), 0, ev(1, 2, 3)},
		{ev(2, 2, 5, 2, 5), 3, ev(2, 2, 2, 5, 5)},
	} {
		got := append([]workload.TraceEvent(nil), tc.in...)
		mergeTail(got, tc.n)
		for i := range tc.want {
			if got[i] != tc.want[i] {
				t.Fatalf("mergeTail(%v, %d) = %v, want %v", tc.in, tc.n, got, tc.want)
			}
		}
	}
}
