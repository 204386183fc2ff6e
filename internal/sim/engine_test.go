package sim

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestTimeConversions(t *testing.T) {
	if Second != 320000 {
		t.Fatalf("Second = %d, want 320000 symbols", Second)
	}
	if Millisecond*1000 != Second {
		t.Fatalf("Millisecond*1000 = %d, want %d", Millisecond*1000, Second)
	}
	if got := FromSeconds(2.5); got != 800000 {
		t.Fatalf("FromSeconds(2.5) = %d, want 800000", got)
	}
	if got := FromMilliseconds(2.5); got != 800 {
		t.Fatalf("FromMilliseconds(2.5) = %d, want 800 (one frame)", got)
	}
	if got := Time(800).Milliseconds(); got != 2.5 {
		t.Fatalf("800 ticks = %vms, want 2.5ms", got)
	}
	if got := Time(320000).Seconds(); got != 1.0 {
		t.Fatalf("320000 ticks = %vs, want 1s", got)
	}
}

func TestTimeString(t *testing.T) {
	if s := Time(800).String(); s != "2.500ms" {
		t.Fatalf("String = %q", s)
	}
}

// once returns a step that records its firing time and stops.
func once(fires *[]Time) StepFunc {
	return func(e *Engine) Time {
		*fires = append(*fires, e.Now())
		return -1
	}
}

func TestEngineRunsInTimeOrder(t *testing.T) {
	e := NewEngine()
	var order []Time
	for _, at := range []Time{50, 10, 30, 20, 40} {
		e.ScheduleEvery(at, once(&order))
	}
	e.Run()
	want := []Time{10, 20, 30, 40, 50}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("fired at %v, want %v", order, want)
	}
	if e.Now() != 50 {
		t.Fatalf("clock = %v, want 50", e.Now())
	}
}

// Drivers due at the same time fire in the order they were armed, and a
// re-arm counts as arming again: a driver armed for t+800 before the
// periodic driver re-arms for t+800 fires ahead of it.
func TestEngineStableFIFOAtSameTime(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 100; i++ {
		e.ScheduleEvery(10, func(*Engine) Time {
			order = append(order, i)
			return -1
		})
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time drivers not FIFO: order[%d] = %d", i, v)
		}
	}

	var ticks []string
	n, t0 := 0, e.Now()
	e.ScheduleEvery(t0, func(*Engine) Time {
		ticks = append(ticks, "tick")
		if n++; n == 3 {
			return -1
		}
		return 800
	})
	e.ScheduleEvery(t0+800, func(*Engine) Time {
		ticks = append(ticks, "once")
		return -1
	})
	e.Run()
	if want := []string{"tick", "once", "tick", "tick"}; !reflect.DeepEqual(ticks, want) {
		t.Fatalf("drivers fired %v, want %v", ticks, want)
	}
}

// A step may schedule further drivers.
func TestEngineScheduleFromHandler(t *testing.T) {
	e := NewEngine()
	count := 0
	var step StepFunc
	step = func(eng *Engine) Time {
		count++
		if count < 10 {
			eng.ScheduleEvery(eng.Now()+5, step)
		}
		return -1
	}
	e.ScheduleEvery(0, step)
	e.Run()
	if count != 10 {
		t.Fatalf("chained steps = %d, want 10", count)
	}
	if e.Now() != 45 {
		t.Fatalf("clock = %v, want 45", e.Now())
	}
}

func TestEngineSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	var fires []Time
	e.ScheduleEvery(10, once(&fires))
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.ScheduleEvery(5, once(&fires))
}

func TestEngineNilHandlerPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("nil step did not panic")
		}
	}()
	e.ScheduleEvery(0, nil)
}

func TestScheduleEveryFixedPeriod(t *testing.T) {
	e := NewEngine()
	var fires []Time
	e.ScheduleEvery(5, func(eng *Engine) Time {
		fires = append(fires, eng.Now())
		if len(fires) == 4 {
			return -1 // stop from within
		}
		return 10
	})
	e.Run()
	if want := []Time{5, 15, 25, 35}; !reflect.DeepEqual(fires, want) {
		t.Fatalf("fired at %v, want %v", fires, want)
	}
	if got := e.Obs().EngineEvents; got != 4 {
		t.Fatalf("EngineEvents = %d, want 4", got)
	}
}

func TestScheduleEveryVariablePeriod(t *testing.T) {
	// Variable cadence, like RMAV's variable-length frames.
	e := NewEngine()
	delays := []Time{3, 7, 1}
	i := 0
	var fires []Time
	e.ScheduleEvery(0, func(eng *Engine) Time {
		fires = append(fires, eng.Now())
		if i >= len(delays) {
			return -1
		}
		d := delays[i]
		i++
		return d
	})
	e.Run()
	if want := []Time{0, 3, 10, 11}; !reflect.DeepEqual(fires, want) {
		t.Fatalf("fired at %v, want %v", fires, want)
	}
}

// Reset must leave the engine equivalent to a fresh one in behaviour
// (same firing order, same clock), drop drivers still pending, and keep
// EngineEvents cumulative.
func TestEngineResetBehavesLikeFresh(t *testing.T) {
	script := func(e *Engine, trace *[]Time) {
		for _, at := range []Time{7, 3, 3, 9, 7} {
			n := 0
			e.ScheduleEvery(at, func(eng *Engine) Time {
				*trace = append(*trace, eng.Now())
				if n++; n == 2 {
					return -1
				}
				return at
			})
		}
		e.Run()
	}
	var fresh, reused []Time
	script(NewEngine(), &fresh)

	er := NewEngine()
	var scratch []Time
	script(er, &scratch)
	// Left pending across the Reset: it must never fire afterwards.
	er.ScheduleEvery(er.Now()+50, func(*Engine) Time {
		t.Error("driver pending at Reset fired after it")
		return -1
	})
	er.Reset()
	if er.Now() != 0 {
		t.Fatalf("post-Reset clock = %v, want 0", er.Now())
	}
	script(er, &reused)
	if !reflect.DeepEqual(fresh, reused) {
		t.Fatalf("reset engine trace %v != fresh trace %v", reused, fresh)
	}
	if got, want := er.Obs().EngineEvents, uint64(2*len(fresh)); got != want {
		t.Fatalf("EngineEvents = %d across a Reset, want cumulative %d", got, want)
	}
}

// Steady-state reuse must not allocate: Reset keeps the driver slice, so
// a Reset/ScheduleEvery/Run cycle with a prebuilt step is free.
func TestEngineSteadyStateAllocationFree(t *testing.T) {
	e := NewEngine()
	n := 0
	step := func(*Engine) Time {
		if n++; n%100 == 0 {
			return -1
		}
		return 800
	}
	cycle := func() {
		e.Reset()
		e.ScheduleEvery(0, step)
		e.ScheduleEvery(400, step)
		e.Run()
	}
	cycle()
	batch := func() {
		for i := 0; i < 100; i++ {
			cycle()
		}
	}
	// The fewest of three exact counts: runtime-internal mallocs (a new
	// thread, timer-heap growth) land in the process-wide count at random,
	// while one on the measured path recurs in every batch.
	if allocs := min(testing.AllocsPerRun(1, batch), testing.AllocsPerRun(1, batch), testing.AllocsPerRun(1, batch)); allocs != 0 {
		t.Fatalf("steady-state reset/schedule/run: %.0f mallocs in 100 cycles, want 0", allocs)
	}
}

// Property: for any set of drivers with random starts and periods,
// firings come in non-decreasing time order and every driver fires
// exactly as often as its step allows.
func TestEngineOrderingProperty(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		e := NewEngine()
		total := int(n%16) + 1
		want, fired := 0, 0
		last := Time(-1)
		ok := true
		for i := 0; i < total; i++ {
			period, left := Time(r.Intn(50)), r.Intn(8)+1
			want += left
			e.ScheduleEvery(Time(r.Intn(1000)), func(eng *Engine) Time {
				fired++
				if eng.Now() < last {
					ok = false
				}
				last = eng.Now()
				if left--; left == 0 {
					return -1
				}
				return period
			})
		}
		e.Run()
		return ok && fired == want && e.Obs().EngineEvents == uint64(want)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: random delays and drivers scheduled from steps preserve
// causality (the clock never runs backwards).
func TestEngineClockMonotoneProperty(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := NewEngine()
		remaining := 100
		prev := Time(0)
		ok := true
		var step StepFunc
		step = func(eng *Engine) Time {
			if eng.Now() < prev {
				ok = false
			}
			prev = eng.Now()
			if remaining == 0 {
				return -1
			}
			remaining--
			if r.Intn(4) == 0 {
				eng.ScheduleEvery(eng.Now()+Time(r.Intn(10)), step)
			}
			return Time(r.Intn(10))
		}
		e.ScheduleEvery(0, step)
		e.Run()
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
