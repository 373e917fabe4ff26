package sim

import "testing"

// BenchmarkLoop measures the schedule-and-fire churn typical of the
// simulator's scheduling events: a small standing queue with events
// constantly added and popped.
func BenchmarkLoop(b *testing.B) {
	l := NewLoop()
	fn := func() {}
	// Standing backlog so pops exercise the heap, not the trivial
	// single-element case.
	for i := 0; i < 64; i++ {
		l.After(Time(i+1)*Microsecond, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.After(100*Microsecond, fn)
		l.Step()
	}
}

// BenchmarkTicker measures one tick of a 50 µs ticker, the cadence of the
// agent's busy poll (~20,000 fires per simulated second per agent).
func BenchmarkTicker(b *testing.B) {
	l := NewLoop()
	ticks := 0
	l.NewTicker(0, 50*Microsecond, func() { ticks++ })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.RunUntil(l.Now() + 50*Microsecond)
	}
	if ticks < b.N {
		b.Fatalf("ticks = %d, want >= %d", ticks, b.N)
	}
}

// BenchmarkCancel measures the schedule-then-cancel pattern used by
// timeout-style events that almost never fire.
func BenchmarkCancel(b *testing.B) {
	l := NewLoop()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := l.After(Millisecond, fn)
		l.Cancel(e)
	}
}

// BenchmarkPollLane measures one event of the fleet's shape: 8 agents
// polling every 50 µs through AfterFixed (one shared lane) over about 96
// background heap events, each re-scheduled with a pseudo-random delay
// of up to 6.4 ms, so polls are about 84% of fired events. It is the
// go-test twin of the perf snapshot's sim/poll-lane micro
// (internal/bench).
func BenchmarkPollLane(b *testing.B) {
	l := NewLoop()
	var poll func()
	poll = func() { l.AfterFixed(50*Microsecond, poll) }
	for i := 0; i < 8; i++ {
		l.At(Time(i+1)*Microsecond, poll) // staggered first polls
	}
	x := uint64(1)
	var background func()
	background = func() {
		x = x*6364136223846793005 + 1442695040888963407 // 64-bit LCG
		l.After(Time(1+x>>33%6400)*Microsecond, background)
	}
	for i := 0; i < 96; i++ {
		background()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Step()
	}
}
