package sim

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// diffRun drives one loop through a random program of At, After,
// AfterFixed, Cancel and Ticker operations. Times sit on a 10 µs grid
// and the fixed delays are grid multiples, so heap and lane events often
// fall due at the same instant. With fixed unset, the fixed-delay
// operations go through After instead, which makes the run the
// heap-only reference for the same program.
type diffRun struct {
	l       *Loop
	rng     *rand.Rand
	fixed   bool
	nextID  int
	ids     []int          // pending one-shot events, in scheduling order
	events  map[int]*Event // handle of each pending one-shot event
	tickers []*Ticker
	log     []Time // fired ids and Now() values, interleaved
}

// fixedDelays has more distinct delays than the loop has lanes, so some
// AfterFixed calls take the heap fallback.
var fixedDelays = []Time{0, 10 * Microsecond, 20 * Microsecond, 30 * Microsecond,
	40 * Microsecond, 50 * Microsecond}

func newDiffRun(seed uint64, fixed bool) *diffRun {
	return &diffRun{
		l:      NewLoop(),
		rng:    rand.New(rand.NewPCG(seed, 1)),
		fixed:  fixed,
		events: map[int]*Event{},
	}
}

func (r *diffRun) grid(n int) Time { return Time(r.rng.IntN(n)) * 10 * Microsecond }

func (r *diffRun) record(id int) { r.log = append(r.log, Time(id), r.l.Now()) }

// schedule adds one one-shot event through At, After or the fixed-delay
// path.
func (r *diffRun) schedule() {
	id := r.nextID
	r.nextID++
	fn := func() {
		r.ids = slices.DeleteFunc(r.ids, func(x int) bool { return x == id })
		delete(r.events, id)
		r.record(id)
		r.act()
	}
	var e *Event
	switch r.rng.IntN(3) {
	case 0:
		e = r.l.At(r.l.Now()+r.grid(6), fn)
	case 1:
		e = r.l.After(r.grid(6), fn)
	default:
		d := fixedDelays[r.rng.IntN(len(fixedDelays))]
		if r.fixed {
			e = r.l.AfterFixed(d, fn)
		} else {
			e = r.l.After(d, fn)
		}
	}
	r.ids = append(r.ids, id)
	r.events[id] = e
}

// act performs a few random operations, from a callback or between
// steps.
func (r *diffRun) act() {
	for n := r.rng.IntN(3); n > 0; n-- {
		switch op := r.rng.IntN(10); {
		case op < 6:
			if len(r.ids) < 200 {
				r.schedule()
			}
		case op < 8:
			if len(r.ids) > 0 {
				i := r.rng.IntN(len(r.ids))
				id := r.ids[i]
				r.l.Cancel(r.events[id])
				r.ids = slices.Delete(r.ids, i, i+1)
				delete(r.events, id)
			}
		case op < 9:
			if len(r.tickers) < 3 {
				id := -1 - len(r.tickers)
				r.tickers = append(r.tickers, r.l.NewTicker(r.l.Now()+r.grid(3),
					10*Microsecond+r.grid(5), func() { r.record(id) }))
			}
		default:
			if len(r.tickers) > 0 {
				tk := r.tickers[r.rng.IntN(len(r.tickers))]
				if r.rng.IntN(2) == 0 {
					tk.Stop()
				} else {
					tk.SetInterval(10*Microsecond + r.grid(5))
				}
			}
		}
	}
}

// drive runs the program: random operations between steps, and a mix of
// Step and RunUntil. After each driver action it records Now(), Len()
// and Fired().
func (r *diffRun) drive(actions int) []Time {
	var trace []Time
	for i := 0; i < actions; i++ {
		r.act()
		if r.rng.IntN(2) == 0 {
			r.l.Step()
		} else {
			r.l.RunUntil(r.l.Now() + r.grid(4))
		}
		if len(r.ids) == 0 && r.rng.IntN(4) == 0 {
			r.schedule()
		}
		trace = append(trace, r.l.Now(), Time(r.l.Len()), Time(r.l.Fired()))
	}
	return trace
}

// TestLanesMatchHeapOnlyLoop is the differential test of the fixed-delay
// lanes: the same random program, run once with AfterFixed and once with
// After in its place, must fire the same ids at the same Now() values,
// and report the same Len() and Fired() after every driver action.
func TestLanesMatchHeapOnlyLoop(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		lanes, heap := newDiffRun(seed, true), newDiffRun(seed, false)
		lt, ht := lanes.drive(2000), heap.drive(2000)
		if len(lanes.l.lanes) != maxLanes {
			t.Fatalf("seed %d: %d lanes in use, want %d", seed, len(lanes.l.lanes), maxLanes)
		}
		if i := firstDiff(lanes.log, heap.log); i >= 0 {
			t.Fatalf("seed %d: fire log diverges at entry %d (pair %d): lanes %v, heap-only %v",
				seed, i, i/2, window(lanes.log, i), window(heap.log, i))
		}
		if i := firstDiff(lt, ht); i >= 0 {
			t.Fatalf("seed %d: Now/Len/Fired diverge after driver action %d: lanes %v, heap-only %v",
				seed, i/3, window(lt, i), window(ht, i))
		}
		if len(lanes.log) < 2000 {
			t.Fatalf("seed %d: only %d events fired; the program is too thin to compare", seed, len(lanes.log)/2)
		}
	}
}

func firstDiff(a, b []Time) int {
	for i := 0; i < min(len(a), len(b)); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

func window(s []Time, i int) []Time { return s[max(0, i-4):min(len(s), i+4)] }

// TestLenExcludesCanceledLaneEvents: a canceled lane event stays in its
// lane until it reaches the head, but it is no longer pending.
func TestLenExcludesCanceledLaneEvents(t *testing.T) {
	l := NewLoop()
	var fired []int
	evs := make([]*Event, 4)
	for i := range evs {
		i := i
		evs[i] = l.AfterFixed(50*Microsecond, func() { fired = append(fired, i) })
		l.RunUntil(l.Now() + Microsecond)
	}
	l.Cancel(evs[2]) // mid-lane: stays in the ring
	if got := l.Len(); got != 3 {
		t.Fatalf("Len after a mid-lane cancel = %d, want 3", got)
	}
	if !evs[2].Canceled() {
		t.Fatal("canceled lane event does not report Canceled")
	}
	l.Cancel(evs[2]) // idempotent
	l.Cancel(evs[0]) // head: recycled at once
	if got := l.Len(); got != 2 {
		t.Fatalf("Len after canceling the head = %d, want 2", got)
	}
	l.Run()
	if !slices.Equal(fired, []int{1, 3}) {
		t.Fatalf("fired %v, want [1 3]", fired)
	}
	if l.Len() != 0 || l.Fired() != 2 {
		t.Fatalf("after Run: Len %d Fired %d, want 0 and 2", l.Len(), l.Fired())
	}
}

// TestLaneTiesGoToEarlierScheduled: at one instant, a heap event
// scheduled before a lane event fires first, and one scheduled after it
// fires second — lanes follow the same FIFO tie-break as the heap.
func TestLaneTiesGoToEarlierScheduled(t *testing.T) {
	l := NewLoop()
	var got []string
	l.At(50*Microsecond, func() { got = append(got, "heap-before") })
	l.AfterFixed(50*Microsecond, func() { got = append(got, "lane") })
	l.After(50*Microsecond, func() { got = append(got, "heap-after") })
	l.Run()
	if want := []string{"heap-before", "lane", "heap-after"}; !slices.Equal(got, want) {
		t.Fatalf("fire order %v, want %v", got, want)
	}
}

func TestAfterFixedPanics(t *testing.T) {
	for name, f := range map[string]func(l *Loop){
		"negative delay": func(l *Loop) { l.AfterFixed(-1, func() {}) },
		"nil callback":   func(l *Loop) { l.AfterFixed(Microsecond, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: AfterFixed did not panic", name)
				}
			}()
			f(NewLoop())
		}()
	}
}
