package hypervisor

import (
	"slices"
	"strings"
	"testing"

	"smartharvest/internal/sim"
)

// TestBusyCounterMatchesScan follows the per-group busy counters through
// dispatch, slice-end continuation, IPI preemption into the other group
// and RemoveVM, comparing BusyCores with a scan of the cores each time.
func TestBusyCounterMatchesScan(t *testing.T) {
	loop, m := newTestMachine(t, 4, IPI)
	m.SetInitialSplit(3)
	p := m.AddVM("p", PrimaryGroup, 3, 3)
	e := m.AddVM("e", ElasticGroup, 4, 4)
	scan := func(g GroupID) int {
		n := 0
		for _, c := range m.cores {
			if c.group == g && c.running != nil {
				n++
			}
		}
		return n
	}
	check := func(when string) {
		t.Helper()
		for g := GroupID(0); g < numGroups; g++ {
			if got, want := m.BusyCores(g), scan(g); got != want {
				t.Fatalf("%s: BusyCores(%v) = %d, scan %d", when, g, got, want)
			}
		}
		m.checkInvariants(t)
	}
	for i := 0; i < 3; i++ {
		p.Submit(50*sim.Millisecond, nil)
	}
	e.Submit(50*sim.Millisecond, nil)
	check("after dispatch")
	if m.BusyCores(PrimaryGroup) != 3 || m.BusyCores(ElasticGroup) != 1 {
		t.Fatalf("busy %d/%d, want 3/1", m.BusyCores(PrimaryGroup), m.BusyCores(ElasticGroup))
	}
	loop.RunUntil(25 * sim.Millisecond) // several slice ends that keep running
	check("after slice ends")
	m.SetPrimaryCores(1) // IPIs preempt two running primary cores
	loop.RunUntil(30 * sim.Millisecond)
	check("after IPI moves")
	if m.Preemptions() == 0 {
		t.Fatal("the shrink preempted nothing; the test lost its IPI case")
	}
	m.RemoveVM(p)
	check("after RemoveVM")
	if m.BusyCores(PrimaryGroup) != 0 {
		t.Fatalf("primary busy %d after removing its only VM", m.BusyCores(PrimaryGroup))
	}
	loop.RunUntil(sim.Second)
	check("after draining")
}

// TestCheckInvariantsCatchesBusyCounterDrift is the busy counter's
// mutant: a counter off by one in either group must be reported.
func TestCheckInvariantsCatchesBusyCounterDrift(t *testing.T) {
	for g := GroupID(0); g < numGroups; g++ {
		for _, delta := range []int{+1, -1} {
			_, m := newTestMachine(t, 4, CpuGroups)
			m.SetInitialSplit(2)
			m.AddVM("p", PrimaryGroup, 2, 2).Submit(sim.Millisecond, nil)
			m.AddVM("e", ElasticGroup, 2, 2).Submit(sim.Millisecond, nil)
			m.checkInvariants(t)
			m.busy[g] += delta
			err := m.CheckInvariants()
			if err == nil || !strings.Contains(err.Error(), "busy") {
				t.Fatalf("group %v busy counter off by %+d: got %v, want a busy-count violation", g, delta, err)
			}
		}
	}
}

// TestDrainPrimaryWaitsContract pins the double-buffered drain: a drained
// slice keeps its contents while the machine records new samples, until
// the next drain, and two drains return disjoint samples.
func TestDrainPrimaryWaitsContract(t *testing.T) {
	loop, m := newTestMachine(t, 1, CpuGroups)
	m.SetInitialSplit(1)
	vm := m.AddVM("p", PrimaryGroup, 2, 2)
	// One core, two 5 ms items: the second waits 5 ms for the first.
	vm.Submit(5*sim.Millisecond, nil)
	vm.Submit(5*sim.Millisecond, nil)
	loop.RunUntil(20 * sim.Millisecond)
	first := m.DrainPrimaryWaits()
	want1 := []int64{0, int64(5 * sim.Millisecond)}
	if !slices.Equal(first, want1) {
		t.Fatalf("first drain %v, want %v", first, want1)
	}

	// New samples land while the caller still holds the first slice. The
	// third item waits in the guest queue, not the ready queue, so its
	// dispatch wait counts from the moment a vCPU frees up.
	vm.Submit(4*sim.Millisecond, nil)
	vm.Submit(4*sim.Millisecond, nil)
	vm.Submit(4*sim.Millisecond, nil)
	loop.RunUntil(40 * sim.Millisecond)
	if !slices.Equal(first, want1) {
		t.Fatalf("first drain changed to %v before the next drain", first)
	}

	second := m.DrainPrimaryWaits()
	want2 := []int64{0, int64(4 * sim.Millisecond), int64(4 * sim.Millisecond)}
	if !slices.Equal(second, want2) {
		t.Fatalf("second drain %v, want only the samples since the first %v", second, want2)
	}
	if len(m.DrainPrimaryWaits()) != 0 {
		t.Fatal("a drain with nothing recorded returned samples")
	}
}
