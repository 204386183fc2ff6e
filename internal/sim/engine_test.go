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

// Re-arming the driver and running it allocates nothing, so the clock
// adds no allocation to what the benchmark's replay times.
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
		e.ScheduleEvery(e.Now(), step)
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
		t.Fatalf("steady-state schedule/run: %.0f mallocs in 100 cycles, want 0", allocs)
	}
}

// Property: for a driver with a random start and period, firings come in
// non-decreasing time order and the driver fires exactly as often as its
// step allows.
func TestEngineOrderingProperty(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := NewEngine()
		period, left := Time(r.Intn(50)), r.Intn(8)+1
		want, fired := left, 0
		last := Time(-1)
		ok := true
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
		e.Run()
		return ok && fired == want && e.Obs().EngineEvents == uint64(want)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: random delays preserve causality (the clock never runs
// backwards).
func TestEngineClockMonotoneProperty(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := NewEngine()
		remaining := 100
		prev := Time(0)
		ok := true
		e.ScheduleEvery(0, func(eng *Engine) Time {
			if eng.Now() < prev {
				ok = false
			}
			prev = eng.Now()
			if remaining == 0 {
				return -1
			}
			remaining--
			return Time(r.Intn(10))
		})
		e.Run()
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
