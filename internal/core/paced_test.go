package core

import (
	"context"
	"testing"
	"time"

	"smartharvest/internal/obs"
	"smartharvest/internal/sim"
)

// stopClock is a wall clock whose Sleep advances instantly and cancels
// the run once the clock passes limit, so a paced run stops after the
// same events RunUntil(limit) fires.
type stopClock struct {
	start, now time.Time
	limit      time.Duration
	cancel     context.CancelFunc
}

func (c *stopClock) Now() time.Time { return c.now }

func (c *stopClock) Sleep(d time.Duration) {
	c.now = c.now.Add(d)
	if c.now.Sub(c.start) > c.limit {
		c.cancel()
	}
}

// badWaits tops up the fake's dispatch-wait buffer with 10% starved
// samples, so every QoS window violates the 1% threshold.
func badWaits(hv *fakeHV) {
	for len(hv.waits) < 100 {
		w := int64(sim.Microsecond)
		if len(hv.waits) < 10 {
			w = int64(sim.Millisecond)
		}
		hv.waits = append(hv.waits, w)
	}
}

// TestPacedMatchesRunUntil is the differential test between the agent's
// two drivers: the same busy script, keyed on the driving clock, is run
// once by loop.RunUntil in virtual time and once by loop.RunPaced on a
// fake wall clock (the path cmd/hostagent takes on a real host). Both
// runs must make the identical sequence of window decisions; each case
// then checks the policy behaviour on the paced run.
func TestPacedMatchesRunUntil(t *testing.T) {
	cases := []struct {
		name  string
		dur   sim.Time
		ctrl  func() Controller
		mut   func(*Config)
		busy  func(hv *fakeHV, el sim.Time) int
		check func(t *testing.T, a *Agent, hv *fakeHV)
	}{{
		name: "steady",
		dur:  5 * sim.Second,
		busy: func(_ *fakeHV, _ sim.Time) int { return 2 },
		check: func(t *testing.T, a *Agent, hv *fakeHV) {
			if hv.primary > 5 || a.ResizeCount() == 0 {
				t.Fatalf("primary %d after %d resizes; steady busy=2 should harvest most cores",
					hv.primary, a.ResizeCount())
			}
		},
	}, {
		name: "spike",
		dur:  4 * sim.Second,
		busy: func(_ *fakeHV, el sim.Time) int {
			if el > 3*sim.Second {
				return 10
			}
			return 1
		},
		check: func(t *testing.T, a *Agent, hv *fakeHV) {
			if a.SafeguardInvocations() == 0 || hv.primary < 8 {
				t.Fatalf("safeguards %d, primary %d at the end of a sustained spike",
					a.SafeguardInvocations(), hv.primary)
			}
		},
	}, {
		name: "qos-trip",
		dur:  3 * sim.Second,
		mut:  func(c *Config) { c.HarvestPause = 30 * sim.Second },
		busy: func(hv *fakeHV, _ sim.Time) int {
			badWaits(hv)
			return 2
		},
		check: func(t *testing.T, a *Agent, hv *fakeHV) {
			if a.QoSTrips() == 0 || hv.primary != 10 {
				t.Fatalf("QoS trips %d, primary %d; want a trip and the full allocation",
					a.QoSTrips(), hv.primary)
			}
		},
	}, {
		name: "busy-floor",
		dur:  5 * sim.Second,
		busy: func(_ *fakeHV, _ sim.Time) int { return 6 },
		check: func(t *testing.T, a *Agent, hv *fakeHV) {
			if a.ResizeCount() == 0 {
				t.Fatal("no resizes; busy=6 of 10 leaves cores to harvest")
			}
			for _, r := range hv.resizeLog {
				if r < 7 {
					t.Fatalf("resize to %d below the busy+1 floor (busy 6)", r)
				}
			}
		},
	}, {
		name: "fixedbuffer",
		dur:  2 * sim.Second,
		ctrl: func() Controller { return NewFixedBuffer(10, 2) },
		mut:  func(c *Config) { c.PostResizeSleep = sim.Millisecond },
		busy: func(_ *fakeHV, _ sim.Time) int { return 3 },
		check: func(t *testing.T, a *Agent, hv *fakeHV) {
			if hv.primary != 5 {
				t.Fatalf("primary %d, want busy+k = 5", hv.primary)
			}
		},
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(paced bool) ([]obs.WindowEnd, *Agent, *fakeHV) {
				loop := sim.NewLoop()
				hv := newFake(loop, 11)
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				start := time.Unix(0, 0)
				clk := &stopClock{start: start, now: start, limit: tc.dur.ToDuration(), cancel: cancel}
				hv.busyFn = func(now sim.Time) int {
					if paced {
						now = sim.Duration(clk.now.Sub(start))
					}
					return tc.busy(hv, now)
				}
				rec := &safeguardWatcher{}
				cfg := DefaultConfig(10, 1)
				cfg.PollInterval = sim.Millisecond // cmd/hostagent's default
				cfg.Observer = rec
				if tc.mut != nil {
					tc.mut(&cfg)
				}
				var ctrl Controller = NewSmartHarvest(10, SmartHarvestOptions{})
				if tc.ctrl != nil {
					ctrl = tc.ctrl()
				}
				a, err := NewAgent(loop, hv, ctrl, cfg)
				if err != nil {
					t.Fatal(err)
				}
				a.Start()
				if paced {
					loop.RunPaced(ctx, clk)
				} else {
					loop.RunUntil(tc.dur)
				}
				return rec.windows, a, hv
			}
			want, _, _ := run(false)
			got, a, hv := run(true)
			if len(want) == 0 || len(got) != len(want) {
				t.Fatalf("paced run made %d window decisions, simulated run %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("window %d differs:\n paced %+v\n   sim %+v", i, got[i], want[i])
				}
			}
			tc.check(t, a, hv)
		})
	}
}
