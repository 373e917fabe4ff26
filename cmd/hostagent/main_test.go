package main

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"smartharvest/internal/core"
	"smartharvest/internal/sim"
)

func TestParseCores(t *testing.T) {
	cases := []struct {
		in      string
		want    []int
		wantErr bool
	}{
		{"0-3", []int{0, 1, 2, 3}, false},
		{"0,2,4", []int{0, 2, 4}, false},
		{"0-1, 4-5", []int{0, 1, 4, 5}, false},
		{"7", []int{7}, false},
		{"", nil, true},
		{"a-b", nil, true},
		{"3-1", nil, true},
		{"x", nil, true},
	}
	for _, c := range cases {
		got, err := parseCores(c.in)
		if c.wantErr {
			if err == nil {
				t.Errorf("parseCores(%q) accepted", c.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseCores(%q): %v", c.in, err)
			continue
		}
		if len(got) != len(c.want) {
			t.Errorf("parseCores(%q) = %v, want %v", c.in, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("parseCores(%q) = %v, want %v", c.in, got, c.want)
				break
			}
		}
	}
}

func TestBuildController(t *testing.T) {
	for in, want := range map[string]string{
		"smartharvest":  "smartharvest",
		"fixedbuffer:3": "fixedbuffer-3",
		"prevpeak:10":   "prevpeak10",
		"noharvest":     "noharvest",
	} {
		c, err := buildController(in, 10)
		if err != nil {
			t.Errorf("buildController(%q): %v", in, err)
			continue
		}
		if c.Name() != want {
			t.Errorf("buildController(%q) -> %q, want %q", in, c.Name(), want)
		}
	}
	for _, bad := range []string{"nope", "fixedbuffer:z"} {
		if _, err := buildController(bad, 10); err == nil {
			t.Errorf("buildController(%q) accepted", bad)
		}
	}
}

func TestAgentConfig(t *testing.T) {
	cfg := agentConfig(7, 25*time.Millisecond, time.Millisecond, false)
	if cfg.PrimaryAlloc != 7 || cfg.ElasticMin != 1 || cfg.Window != 25*sim.Millisecond ||
		cfg.PollInterval != sim.Millisecond || cfg.LongTermSafeguard {
		t.Fatalf("flags not applied: %+v", cfg)
	}
	// 25 polls per window: the missed-poll threshold scales to a tenth.
	if got := cfg.Resilience.DegradeAfterMissedPolls; got != 2 {
		t.Fatalf("missed-poll threshold %d at 25 polls/window, want 2", got)
	}
	// At the paper's polling rate the default configuration is untouched.
	cfg = agentConfig(7, 25*time.Millisecond, 50*time.Microsecond, true)
	if want := core.DefaultConfig(7, 1); cfg.Resilience != want.Resilience || cfg.PollInterval != want.PollInterval {
		t.Fatalf("paper rates changed the config: %+v", cfg)
	}
}

// TestAgentConfigValidation checks that host flag combinations the agent
// cannot run with are rejected before the loop starts.
func TestAgentConfigValidation(t *testing.T) {
	bad := []struct {
		name         string
		alloc        int
		window, poll time.Duration
	}{
		{"no-primary-cores", 0, 25 * time.Millisecond, time.Millisecond},
		{"alloc-exceeds-host", 11, 25 * time.Millisecond, time.Millisecond},
		{"poll-longer-than-window", 10, time.Millisecond, 2 * time.Millisecond},
		{"zero-poll", 10, 25 * time.Millisecond, 0},
	}
	for _, c := range bad {
		cfg := agentConfig(c.alloc, c.window, c.poll, true)
		if _, err := core.NewAgent(sim.NewLoop(), &idleHost{primary: 10}, core.NewNoHarvest(10), cfg); err == nil {
			t.Errorf("%s: config accepted", c.name)
		}
	}
}

// idleHost is a hypervisor whose primaries keep one core busy.
type idleHost struct{ primary int }

func (h *idleHost) TotalCores() int            { return 11 }
func (h *idleHost) BusyPrimaryCores() int      { return 1 }
func (h *idleHost) DrainPrimaryWaits() []int64 { return nil }
func (h *idleHost) SetPrimaryCores(n int) (core.ResizeResult, error) {
	applied := n != h.primary
	h.primary = n
	return core.ResizeResult{Applied: applied}, nil
}

func TestReportStats(t *testing.T) {
	loop := sim.NewLoop()
	cfg := agentConfig(10, 25*time.Millisecond, time.Millisecond, true)
	a, err := core.NewAgent(loop, &idleHost{primary: 10}, core.NewSmartHarvest(10, core.SmartHarvestOptions{}), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	var lastErr error
	reportStats(loop, sim.Second, a, func() error { return lastErr }, &out, &errOut)
	a.Start()
	loop.RunUntil(sim.Second)
	lastErr = errors.New("EIO")
	loop.RunUntil(2 * sim.Second)
	// One line per second of loop time, from the agent's live counters;
	// the backend error is reported once it is set.
	const want = "hostagent: target=2 windows=39 resizes=1 safeguards=0 qos-trips=0\n" +
		"hostagent: target=2 windows=79 resizes=1 safeguards=0 qos-trips=0\n"
	if out.String() != want {
		t.Fatalf("stats output\n%s\nwant\n%s", out.String(), want)
	}
	if got := errOut.String(); got != "hostagent: backend: EIO\n" {
		t.Fatalf("error output %q", got)
	}
}
