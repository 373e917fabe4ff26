package sim

import (
	"context"
	"testing"
	"time"
)

// fakeClock is a wall clock whose Sleep advances it instantly; onSleep,
// if set, runs after each advance.
type fakeClock struct {
	now     time.Time
	sleeps  int
	onSleep func()
}

func newFakeClock() *fakeClock { return &fakeClock{now: time.Unix(1000, 0)} }

func (c *fakeClock) Now() time.Time { return c.now }

func (c *fakeClock) Sleep(d time.Duration) {
	c.now = c.now.Add(d)
	c.sleeps++
	if c.onSleep != nil {
		c.onSleep()
	}
}

func TestRunPacedOrderAndWallInstant(t *testing.T) {
	l := NewLoop()
	l.RunUntil(5 * Millisecond) // pacing is relative to the loop's clock at the call
	clk := newFakeClock()
	start := clk.Now()
	type firing struct {
		id   int
		at   Time
		wall time.Duration
	}
	var got []firing
	schedule := func(id int, at Time) {
		l.At(at, func() { got = append(got, firing{id, l.Now(), clk.Now().Sub(start)}) })
	}
	schedule(3, 9*Millisecond)
	schedule(1, 6*Millisecond)
	schedule(2, 6*Millisecond) // same instant: FIFO after 1
	schedule(0, 5*Millisecond) // due at the call: fires without sleeping
	l.RunPaced(context.Background(), clk)

	want := []firing{{0, 5 * Millisecond, 0}, {1, 6 * Millisecond, time.Millisecond},
		{2, 6 * Millisecond, time.Millisecond}, {3, 9 * Millisecond, 4 * time.Millisecond}}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("firing %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if clk.sleeps != 2 {
		t.Fatalf("%d sleeps, want one per distinct future instant (2)", clk.sleeps)
	}
}

func TestRunPacedCatchesUpWithoutSkipping(t *testing.T) {
	l := NewLoop()
	clk := newFakeClock()
	var at []Time
	l.At(Millisecond, func() {
		at = append(at, l.Now())
		clk.now = clk.now.Add(10 * time.Millisecond) // a slow callback
	})
	for i := Time(2); i <= 5; i++ {
		l.At(i*Millisecond, func() { at = append(at, l.Now()) })
	}
	l.At(20*Millisecond, func() { at = append(at, l.Now()) })
	l.RunPaced(context.Background(), clk)

	want := []Time{1, 2, 3, 4, 5, 20}
	if len(at) != len(want) {
		t.Fatalf("fired at %v, want every event (ms) %v", at, want)
	}
	for i := range want {
		if at[i] != want[i]*Millisecond {
			t.Fatalf("event %d saw virtual time %v, want its scheduled %vms", i, at[i], want[i])
		}
	}
	// One sleep to reach 1ms; the 2-5ms events were overdue and fired at
	// once; one more sleep reaches 20ms (9ms past the 11ms the clock
	// reached).
	if clk.sleeps != 2 {
		t.Fatalf("%d sleeps, want 2", clk.sleeps)
	}
	if el := clk.Now().Sub(time.Unix(1000, 0)); el != 20*time.Millisecond {
		t.Fatalf("wall clock advanced %v, want 20ms", el)
	}
}

func TestRunPacedReturns(t *testing.T) {
	t.Run("empty queue", func(t *testing.T) {
		l := NewLoop()
		l.RunPaced(context.Background(), newFakeClock())
		l.After(Millisecond, func() {})
		l.RunPaced(context.Background(), newFakeClock())
		if l.Len() != 0 || l.Now() != Millisecond {
			t.Fatalf("len %d now %v after draining", l.Len(), l.Now())
		}
	})
	t.Run("cancel from a callback", func(t *testing.T) {
		l := NewLoop()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		ticks := 0
		l.NewTicker(Millisecond, Millisecond, func() {
			if ticks++; ticks == 3 {
				cancel()
			}
		})
		l.RunPaced(ctx, newFakeClock())
		if ticks != 3 || l.Len() != 1 {
			t.Fatalf("ticks %d pending %d, want 3 ticks and the ticker still pending", ticks, l.Len())
		}
	})
	t.Run("cancel while sleeping", func(t *testing.T) {
		l := NewLoop()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		clk := newFakeClock()
		clk.onSleep = cancel
		fired := false
		l.After(Second, func() { fired = true })
		l.RunPaced(ctx, clk)
		if fired || l.Len() != 1 {
			t.Fatalf("fired=%v pending=%d: an event due after cancel must not run", fired, l.Len())
		}
	})
	t.Run("already canceled", func(t *testing.T) {
		l := NewLoop()
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		clk := newFakeClock()
		l.After(Second, func() { t.Fatal("fired after cancel") })
		l.RunPaced(ctx, clk)
		if clk.sleeps != 0 {
			t.Fatalf("slept %d times on a canceled context", clk.sleeps)
		}
	})
}

func TestRunPacedZeroAllocs(t *testing.T) {
	l := NewLoop()
	clk := newFakeClock()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fn := func() {}
	const events = 100
	run := func() {
		for i := Time(1); i <= events; i++ {
			l.After(i*Microsecond, fn)
		}
		l.RunPaced(ctx, clk)
	}
	run() // fill the free list
	if a := testing.AllocsPerRun(20, run); a != 0 {
		t.Fatalf("RunPaced allocates %.2f per %d events, want 0", a, events)
	}
}
